"""Markov logic networks and tight logic programs as weighted counting problems.

Each encoder produces a theory whose counts answer probability queries by the
ratio count(theory + query) / count(theory). Both source languages also get a
direct enumeration oracle over their native semantics, so the encoder and the
counting pipeline can be checked against each other end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import DEFAULT_ENGINE, wfomc
from .errors import CapExceededError, NonTightProgramError, WfomcError
from .frontends import BodyLiteral, LogicProgram, MlnModel, ProbFact, Rule
from .grounding import expand
from .logic import (
    FLOAT,
    And,
    Atom,
    Domain,
    Exists,
    FalseF,
    Formula,
    FreshNamer,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSig,
    TrueF,
    Variable,
    Weight,
    WeightFn,
    WeightedTheory,
    close_universally,
    first_occurrence_vars,
    fold_and,
    fold_or,
    free_vars,
    predicates,
    subformulas,
)
from .transform import skolemize, to_cnf_distribute


@dataclass(frozen=True)
class WfomcEncoding:
    """A theory whose count ratios realize a model's probabilities.

    ``model_predicates`` are the predicates of the model as written, the
    ones a query may use. The encoders record them, so that the predicates
    they or Skolemization invent are not among them; left out, they are
    those of the theory's sentences and its weighted ones (a ``.fol``
    theory is its own model).
    """

    theory: WeightedTheory
    model_predicates: frozenset[PredicateSig] | None = None

    def __post_init__(self):
        if self.model_predicates is None:
            t = self.theory
            object.__setattr__(self, "model_predicates",
                               frozenset(t.predicates()).union(t.weights.pairs))

    def prepared(self) -> "WfomcEncoding":
        """The encoding Skolemized and in clausal form. Queries are
        conjoined to this form, which is sound because the elimination
        step stays correct under later conjunction of new sentences."""
        t = to_cnf_distribute(skolemize(self.theory))
        return WfomcEncoding(t, self.model_predicates)


# ---------------------------------------------------------------------------
# Markov logic networks


def encode_mln(m: MlnModel) -> WfomcEncoding:
    """Per soft formula: a parameter predicate over its free variables, tied
    by an equivalence and weighted (e^w, 1). Hard formulas become plain
    constraints. The weights are floats (e^w is irrational); counting takes
    each as its exact binary value."""
    own = frozenset().union(*(predicates(r.formula) for r in m.rules))
    names = FreshNamer({sig.name for sig in own})
    sentences: list[Formula] = []
    pairs: dict[PredicateSig, tuple[Weight, Weight]] = {}
    for r in m.rules:
        xbar = first_occurrence_vars(r.formula)
        if r.hard:
            sentences.append(close_universally(r.formula, xbar))
        else:
            p = names.atom("P", xbar)
            sentences.append(close_universally(Iff(p, r.formula), xbar))
            try:
                pairs[p.pred] = (math.exp(r.weight), 1.0)
            except OverflowError:
                raise WfomcError(f"soft weight {r.weight}: e^{r.weight} is out of "
                                 "float range") from None
    return WfomcEncoding(WeightedTheory(tuple(sentences), WeightFn(pairs, FLOAT)),
                         model_predicates=own)


def mln_oracle(m: MlnModel, d: Domain, query: Formula, cap: int = 20) -> float:
    """Reference MLN semantics by world enumeration.

    A world's weight is the product of e^w over satisfied ground soft
    instances, zero if it violates any hard instance; the result is the
    normalized weight of the worlds satisfying the query.
    """
    instances: list[tuple[float, Formula]] = []
    for r in m.rules:
        xbar = first_occurrence_vars(r.formula)
        for combo in itertools.product(d.constants, repeat=len(xbar)):
            instances.append((r.weight, expand(r.formula, d, dict(zip(xbar, combo)))))
    ground_query = expand(query, d)
    if free_vars(ground_query):
        raise WfomcError("query must be a sentence")

    formulas = [g for _, g in instances] + [ground_query]
    atoms = list(dict.fromkeys(a for f in formulas for a in subformulas(f) if isinstance(a, Atom)))
    if len(atoms) > cap:
        raise CapExceededError(f"{len(atoms)} ground atoms exceed the oracle cap {cap}")

    z = 0.0
    hit = 0.0
    for bits in itertools.product((False, True), repeat=len(atoms)):
        world = {a for a, b in zip(atoms, bits) if b}
        w = 1.0
        for weight, g in instances:
            sat = _eval_ground(g, world)
            if math.isinf(weight):
                if not sat:
                    w = 0.0
                    break
            elif sat:
                w *= math.exp(weight)
        if w == 0.0:
            continue
        z += w
        if _eval_ground(ground_query, world):
            hit += w
    if z == 0.0:
        raise WfomcError("model has zero partition function")
    return hit / z


def _eval_ground(f: Formula, world: set) -> bool:
    if isinstance(f, Atom):
        return f in world
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return not _eval_ground(f.body, world)
    if isinstance(f, And):
        return all(_eval_ground(p, world) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval_ground(p, world) for p in f.parts)
    if isinstance(f, Implies):
        return (not _eval_ground(f.left, world)) or _eval_ground(f.right, world)
    if isinstance(f, Iff):
        return _eval_ground(f.left, world) == _eval_ground(f.right, world)
    raise WfomcError(f"formula is not ground: {type(f).__name__}")


# ---------------------------------------------------------------------------
# Logic programs: tightness and completion


@dataclass(frozen=True)
class TightnessReport:
    ok: bool
    cycle: tuple[str, ...] = ()


def tightness_check(p: LogicProgram) -> TightnessReport:
    """Acyclicity of the positive predicate dependency graph."""
    edges: dict[str, set[str]] = {}
    for r in p.rules:
        out = edges.setdefault(r.head.pred.name, set())
        for lit in r.body:
            if lit.positive:
                out.add(lit.atom.pred.name)

    # Depth-first, with an iterator over the successors of each node on the path.
    state: dict[str, int] = {}
    for root in sorted(edges):
        if root in state:
            continue
        state[root] = 1
        path, succs = [root], [iter(sorted(edges[root]))]
        while path:
            for succ in succs[-1]:
                if state.get(succ) == 1:
                    return TightnessReport(False, tuple(path[path.index(succ):]))
                if succ not in state:
                    state[succ] = 1
                    path.append(succ)
                    succs.append(iter(sorted(edges.get(succ, ()))))
                    break
            else:
                state[path.pop()] = 2
                succs.pop()
    return TightnessReport(True)


def clarks_completion(p: LogicProgram) -> WeightedTheory:
    """One if-and-only-if sentence per derived predicate; body-only variables
    are existentially quantified. Predicates with neither rules nor a
    probabilistic fact are completed to false."""
    report = tightness_check(p)
    if not report.ok:
        raise NonTightProgramError(list(report.cycle))

    fact_preds = {f.head.pred for f in p.facts}
    for r in p.rules:
        if r.head.pred in fact_preds:
            raise WfomcError(
                f"predicate {r.head.pred.name} has both a probabilistic fact and rules"
            )

    by_head: dict[PredicateSig, list[Rule]] = {}  # in order of first rule
    body_preds: dict[PredicateSig, None] = {}  # an ordered set
    for r in p.rules:
        by_head.setdefault(r.head.pred, []).append(r)
        body_preds.update(dict.fromkeys(lit.atom.pred for lit in r.body))

    sentences: list[Formula] = []
    for pred, rules in by_head.items():
        canon = _distinct_vars(rules[0].head, "rule head", ", got a constant")
        disjuncts = [_rule_disjunct(r, canon) for r in rules]
        head = Atom(pred, tuple(Variable(v) for v in canon))
        sentences.append(close_universally(Iff(head, fold_or(disjuncts)), canon))

    for pred in body_preds:
        if pred in by_head or pred in fact_preds:
            continue
        atom = Atom(pred, tuple(Variable(f"x{i + 1}") for i in range(pred.arity)))
        sentences.append(close_universally(Not(atom)))

    return WeightedTheory(tuple(sentences))


def _distinct_vars(a: Atom, what: str, constant: str) -> tuple[str, ...]:
    """The names of ``a``'s arguments, which must be distinct variables.
    ``what`` names ``a`` in the errors, and ``constant`` ends the one for a
    constant argument."""
    names = tuple(t.name for t in a.args if isinstance(t, Variable))
    if len(names) != len(a.args):
        raise WfomcError(f"{what} {a.pred.name} must use distinct variables{constant}")
    if len(set(names)) != len(names):
        raise WfomcError(f"{what} {a.pred.name} repeats a variable")
    return names


def _rule_disjunct(rule: Rule, canon: tuple[str, ...]) -> Formula:
    """Body of one rule with its head variables renamed to the canonical ones
    and the remaining variables existentially quantified."""
    own = _distinct_vars(rule.head, "rule head", ", got a constant")
    ren = dict(zip(own, canon))
    body_vars: list[str] = []
    for lit in rule.body:
        for t in lit.atom.args:
            if isinstance(t, Variable) and t.name not in own and t.name not in body_vars:
                body_vars.append(t.name)
    # Body-only variables that collide with canonical names get renamed.
    names = FreshNamer({*canon, *own, *body_vars})
    for i, v in enumerate(body_vars):
        if v in canon:
            ren[v] = body_vars[i] = names.variable(v)

    parts: list[Formula] = []
    for lit in rule.body:
        args = tuple(
            Variable(ren.get(t.name, t.name)) if isinstance(t, Variable) else t
            for t in lit.atom.args
        )
        a = Atom(lit.atom.pred, args)
        parts.append(a if lit.positive else Not(a))
    body = fold_and(parts)
    for v in reversed(body_vars):
        body = Exists(v, body)
    return body


# ---------------------------------------------------------------------------
# ProbLog encoding


def encode_problog(p: LogicProgram) -> WfomcEncoding:
    """Completion of the rules; each probabilistic fact weights its predicate
    (p, 1-p). Multiple facts on one predicate are routed through fresh
    auxiliary predicates first."""
    own = _program_predicates(p)
    p = _expand_multifacts(p, own)
    for f in p.facts:
        _distinct_vars(f.head, "probabilistic fact", "")
    theory = clarks_completion(p)
    pairs = {
        f.head.pred: (f.prob, 1 - f.prob)
        for f in p.facts
    }
    return WfomcEncoding(theory.replace(weights=WeightFn(pairs)), model_predicates=own)


def _program_predicates(p: LogicProgram) -> frozenset[PredicateSig]:
    """The predicates of the facts' heads and the rules' heads and bodies."""
    atoms = [f.head for f in p.facts]
    for r in p.rules:
        atoms += (r.head, *(lit.atom for lit in r.body))
    return frozenset(a.pred for a in atoms)


def _expand_multifacts(p: LogicProgram, own: frozenset[PredicateSig]) -> LogicProgram:
    """``p`` with each fact on a predicate of several facts routed through
    an auxiliary predicate, named fresh against ``own``, p's predicates."""
    counts: dict[PredicateSig, int] = {}
    for f in p.facts:
        counts[f.head.pred] = counts.get(f.head.pred, 0) + 1
    multi = {sig for sig, n in counts.items() if n > 1}
    if not multi:
        return p

    names = FreshNamer({sig.name for sig in own})
    facts: list[ProbFact] = []
    rules = list(p.rules)
    for f in p.facts:
        if f.head.pred not in multi:
            facts.append(f)
            continue
        aux_atom = names.atom(f.head.pred.name + "_",
                              _distinct_vars(f.head, "probabilistic fact", ""))
        facts.append(ProbFact(f.prob, aux_atom))
        rules.append(Rule(f.head, (BodyLiteral(True, aux_atom),)))
    return LogicProgram(tuple(facts), tuple(rules))


# ---------------------------------------------------------------------------
# ProbLog oracle


def problog_oracle(p: LogicProgram, d: Domain, query: Formula,
                   cap: int = 20) -> Fraction:
    """Reference semantics: enumerate fact worlds, build each world's minimal
    model by a stratified fixpoint, and sum the weights of the worlds whose
    model satisfies the query."""
    strata = _stratify(p)

    coins: list[tuple[Fraction, Atom]] = []
    for f in p.facts:
        vars_ = _distinct_vars(f.head, "probabilistic fact", "")
        for combo in itertools.product(d.constants, repeat=len(vars_)):
            coins.append((f.prob, Atom(f.head.pred, combo)))
    if len(coins) > cap:
        raise CapExceededError(f"{len(coins)} ground facts exceed the oracle cap {cap}")

    ground_rules = _ground_rules(p, d)
    ground_query = expand(query, d)
    if free_vars(ground_query):
        raise WfomcError("query must be a sentence")

    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(coins)):
        weight = Fraction(1)
        world = set()
        for (prob, a), b in zip(coins, bits):
            weight *= prob if b else 1 - prob
            if b:
                world.add(a)
        model = _minimal_model(world, ground_rules, strata)
        if _eval_ground(ground_query, model):
            total += weight
    return total


def _stratify(p: LogicProgram) -> dict[str, int]:
    """Predicate strata: positive edges stay within a stratum or go down,
    negative edges strictly down. Errors on unstratifiable negation."""
    preds = set()
    for r in p.rules:
        preds.add(r.head.pred.name)
        preds |= {lit.atom.pred.name for lit in r.body}
    preds |= {f.head.pred.name for f in p.facts}
    stratum = {q: 0 for q in preds}
    for _ in range(len(preds) + 1):
        changed = False
        for r in p.rules:
            for lit in r.body:
                need = stratum[lit.atom.pred.name] + (0 if lit.positive else 1)
                if stratum[r.head.pred.name] < need:
                    stratum[r.head.pred.name] = need
                    changed = True
        if not changed:
            return stratum
    raise WfomcError("program is not stratified (negation through a cycle)")


def _ground_rules(p: LogicProgram, d: Domain) -> list[tuple[Atom, list[tuple[bool, Atom]]]]:
    out = []
    for r in p.rules:
        vars_: list[str] = []
        for t in r.head.args:
            if isinstance(t, Variable) and t.name not in vars_:
                vars_.append(t.name)
        for lit in r.body:
            for t in lit.atom.args:
                if isinstance(t, Variable) and t.name not in vars_:
                    vars_.append(t.name)
        for combo in itertools.product(d.constants, repeat=len(vars_)):
            binding = dict(zip(vars_, combo))
            head = _bind_atom(r.head, binding)
            body = [(lit.positive, _bind_atom(lit.atom, binding)) for lit in r.body]
            out.append((head, body))
    return out


def _bind_atom(a: Atom, binding: dict) -> Atom:
    return Atom(a.pred, tuple(
        binding[t.name] if isinstance(t, Variable) else t for t in a.args
    ))


def _minimal_model(facts: set, ground_rules, strata: dict[str, int]) -> set:
    model = set(facts)
    for level in sorted(set(strata.values())):
        rules_here = [(h, b) for h, b in ground_rules if strata[h.pred.name] == level]
        changed = True
        while changed:
            changed = False
            for head, body in rules_here:
                if head in model:
                    continue
                if all((a in model) == pos for pos, a in body):
                    model.add(head)
                    changed = True
    return model


# ---------------------------------------------------------------------------
# Probability queries through the counting pipeline


def query_probability(e: WfomcEncoding, d: Domain, query: Formula,
                      engine: str = DEFAULT_ENGINE) -> Weight:
    """Pr(query) = count(theory + query) / count(theory).

    Both counts come from one ``wfomc`` call. With the dpll engine that is
    one grounding, and the lifted rules (``lifted.count``) count twice only
    the part or slice that holds the query, by one search memo. The query
    is conjoined after Skolemization; that is exactly the situation the
    elimination step is modular for.

    The counts are exact, so the ratio is exact. A model with float weights
    (an MLN's e^w) gets it as a float, rounded once here: this is the one
    place a float leaves the pipeline.

    The query's predicates must be the model's (``model_predicates``),
    never one that an encoder or Skolemization invented. A model predicate
    that no prepared sentence mentions (a ProbLog fact that no rule uses)
    joins the theory through a tautology, so that both counts range over
    the same atoms.
    """
    used = predicates(query)
    missing = sorted(sig.name for sig in used - e.model_predicates)
    if missing:
        raise WfomcError(f"query predicate(s) {missing} not in the model")
    prepared = e.prepared().theory
    unused = used - set(prepared.predicates())
    if unused:
        prepared = prepared.replace(sentences=prepared.sentences + tuple(
            _tautology(sig) for sig in sorted(unused, key=lambda p: (p.name, p.arity))))

    numerator, denominator = wfomc(prepared, d, engine, query=query)
    if denominator == 0:
        raise WfomcError("model has zero partition function")
    ratio = numerator / denominator
    if prepared.weights.mode != FLOAT:
        return ratio
    try:
        return float(ratio)
    except OverflowError:
        raise WfomcError("the probability is out of float range") from None


def _tautology(sig: PredicateSig) -> Formula:
    """forall x1..xk (p(x1..xk) | ~p(x1..xk)): it puts p's atoms in the base."""
    atom = Atom(sig, tuple(Variable(f"x{i + 1}") for i in range(sig.arity)))
    return close_universally(Or(atom, Not(atom)))
