"""Normal-form conversions and count-preserving quantifier elimination.

The elimination step swaps a quantified subexpression for a fresh relaxation
predicate pair: a definition predicate Z weighted (1, 1) and a cancellation
predicate S weighted (1, -1) whose negative branch exactly cancels the models
the relaxation admits beyond the original theory. Driving it innermost-first
removes every non-leading quantifier in polynomially many steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import WfomcError
from .logic import (
    BINARY,
    FALSE,
    TRUE,
    And,
    Atom,
    Constant,
    Exists,
    FalseF,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSig,
    QUANT,
    ScaleFactor,
    TrueF,
    Variable,
    Weight,
    WeightedTheory,
    bound_vars,
    children,
    classify_normal_form,
    close_universally,
    first_occurrence_vars,
    fold_or,
    free_vars,
    is_literal,
    is_quantifier_free,
    negate,
    predicates,
    standardize_apart,
    strip_foralls,
    subformulas,
    with_children,
)

NF_OK_FOR_CNF = ("skolem", "fo-cnf")


# ---------------------------------------------------------------------------
# Fresh predicate names


@dataclass
class FreshNamer:
    """Hands out Z0,Z1,.../Sk0,Sk1,... names that never collide."""

    reserved: set[str] = field(default_factory=set)
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_theory(cls, t: WeightedTheory) -> "FreshNamer":
        names = {sig.name for sig in t.predicates()}
        names |= {sig.name for sig in t.weights.pairs}
        return cls(names)

    def fresh(self, prefix: str, arity: int) -> PredicateSig:
        k = self.counters.get(prefix, 0)
        while f"{prefix}{k}" in self.reserved:
            k += 1
        name = f"{prefix}{k}"
        self.reserved.add(name)
        self.counters[prefix] = k + 1
        return PredicateSig(name, arity)

    def tseitin(self, arity: int) -> PredicateSig:
        return self.fresh("Z", arity)

    def skolem(self, arity: int) -> PredicateSig:
        return self.fresh("Sk", arity)


# ---------------------------------------------------------------------------
# Paths into sentences


def formula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    for i in path:
        kids = children(f)
        if i >= len(kids):
            raise WfomcError("stale elimination site: path no longer valid")
        f = kids[i]
    return f


def replace_at(f: Formula, path: tuple[int, ...], new: Formula) -> Formula:
    if not path:
        return new
    kids = list(children(f))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return with_children(f, tuple(kids))


@dataclass(frozen=True)
class ElimSite:
    """Where the next quantifier elimination applies.

    ``path`` leads from the sentence root to a quantifier node whose body is
    quantifier-free; ``ys`` are the subexpression's free variables in first
    occurrence order (they become the fresh predicates' arguments).
    """

    sentence_index: int
    path: tuple[int, ...]
    kind: str  # "exists" | "forall"
    var: str
    ys: tuple[str, ...]


def _site_in(f: Formula, path: list[int], leading: bool) -> tuple[tuple[int, ...], Formula] | None:
    """First (preorder) quantifier below the leading prefix with a
    quantifier-free body."""
    if isinstance(f, QUANT):
        if leading and isinstance(f, ForAll):
            path.append(0)
            found = _site_in(f.body, path, True)
            path.pop()
            return found
        if is_quantifier_free(f.body):
            return tuple(path), f
        path.append(0)
        found = _site_in(f.body, path, False)
        path.pop()
        return found
    for i, c in enumerate(children(f)):
        path.append(i)
        found = _site_in(c, path, False)
        path.pop()
        if found:
            return found
    return None


def next_internal_site(t: WeightedTheory) -> ElimSite | None:
    for si, s in enumerate(t.sentences):
        found = _site_in(s, [], True)
        if found:
            path, node = found
            kind = "exists" if isinstance(node, Exists) else "forall"
            return ElimSite(si, path, kind, node.var, first_occurrence_vars(node))
    return None


def internal_quantifier_count(t: WeightedTheory) -> int:
    """Quantifiers not in a sentence's leading universal prefix."""
    total = 0
    for s in t.sentences:
        _, body = strip_foralls(s)
        total += sum(1 for g in subformulas(body) if isinstance(g, QUANT))
    return total


# ---------------------------------------------------------------------------
# Negation normal form and prenexing


def to_nnf(f: Formula) -> Formula:
    """Push negations onto atoms; eliminates -> and <->."""
    return _nnf(f, True)


def _nnf(f: Formula, pos: bool) -> Formula:
    if isinstance(f, Atom):
        return f if pos else Not(f)
    if isinstance(f, TrueF):
        return TRUE if pos else FALSE
    if isinstance(f, FalseF):
        return FALSE if pos else TRUE
    if isinstance(f, Not):
        return _nnf(f.body, not pos)
    if isinstance(f, And):
        cls = And if pos else Or
        return cls(_nnf(f.left, pos), _nnf(f.right, pos))
    if isinstance(f, Or):
        cls = Or if pos else And
        return cls(_nnf(f.left, pos), _nnf(f.right, pos))
    if isinstance(f, Implies):
        if pos:
            return Or(_nnf(f.left, False), _nnf(f.right, True))
        return And(_nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Iff):
        if pos:
            return And(
                Or(_nnf(f.left, False), _nnf(f.right, True)),
                Or(_nnf(f.left, True), _nnf(f.right, False)),
            )
        return And(
            Or(_nnf(f.left, True), _nnf(f.right, True)),
            Or(_nnf(f.left, False), _nnf(f.right, False)),
        )
    if isinstance(f, ForAll):
        cls = ForAll if pos else Exists
        return cls(f.var, _nnf(f.body, pos))
    if isinstance(f, Exists):
        cls = Exists if pos else ForAll
        return cls(f.var, _nnf(f.body, pos))
    raise WfomcError(f"cannot normalize {type(f).__name__}")


def to_prenex(f: Formula) -> Formula:
    """Pull all quantifiers to the front. Input must be standardized apart."""
    taken = set(bound_vars(f)) | set(free_vars(f))
    f = _expand_quantified_iff(f, taken)
    prefix, matrix = _pull(f)
    for cls, var in reversed(prefix):
        matrix = cls(var, matrix)
    return matrix


def _expand_quantified_iff(f: Formula, taken: set[str]) -> Formula:
    """Quantifiers cannot move through <->; rewrite such nodes first.

    ``taken`` holds every variable name of the whole formula, so the renames
    forced by the duplication cannot collide with binders elsewhere.
    """
    kids = tuple(_expand_quantified_iff(c, taken) for c in children(f))
    f = with_children(f, kids)
    if isinstance(f, Iff) and not is_quantifier_free(f):
        expanded = And(Implies(f.left, f.right), Implies(f.right, f.left))
        return _rename_apart(expanded, taken)
    return f


def _rename_apart(f: Formula, used: set[str]) -> Formula:
    used |= free_vars(f)

    def walk(g: Formula, ren: dict[str, str]) -> Formula:
        if isinstance(g, Atom):
            args = tuple(
                Variable(ren[a.name]) if isinstance(a, Variable) and a.name in ren else a
                for a in g.args
            )
            return Atom(g.pred, args)
        if isinstance(g, QUANT):
            name = g.var
            if name in used:
                k = 1
                while f"{g.var}_{k}" in used:
                    k += 1
                name = f"{g.var}_{k}"
            used.add(name)
            inner = dict(ren)
            inner[g.var] = name
            return type(g)(name, walk(g.body, inner))
        return with_children(g, tuple(walk(c, ren) for c in children(g)))

    return walk(f, {})


def _pull(f: Formula) -> tuple[list, Formula]:
    if isinstance(f, QUANT):
        prefix, matrix = _pull(f.body)
        return [(type(f), f.var)] + prefix, matrix
    if isinstance(f, Not):
        prefix, matrix = _pull(f.body)
        flipped = [(Exists if cls is ForAll else ForAll, v) for cls, v in prefix]
        return flipped, Not(matrix)
    if isinstance(f, (And, Or)):
        pl, ml = _pull(f.left)
        pr, mr = _pull(f.right)
        return pl + pr, type(f)(ml, mr)
    if isinstance(f, Implies):
        pl, ml = _pull(f.left)
        pr, mr = _pull(f.right)
        flipped = [(Exists if cls is ForAll else ForAll, v) for cls, v in pl]
        return flipped + pr, Implies(ml, mr)
    return [], f


# ---------------------------------------------------------------------------
# The elimination step


# The weights of a Skolem predicate are (1, -1). Weight pairs are written
# exact here; ``WeightFn`` stores them in its own mode.
_SKOLEM_WF = Fraction(-1)


def eliminate_one(t: WeightedTheory, site: ElimSite, namer: FreshNamer) -> WeightedTheory:
    """One elimination: replace the quantified subexpression by a fresh atom
    and append the three relaxation sentences with their weights.

    A universal site is first rewritten through double negation, so the
    replacement atom appears negated and the appended disjuncts keep the
    body's original polarity.
    """
    sentence = t.sentences[site.sentence_index]
    node = formula_at(sentence, site.path)
    if not isinstance(node, QUANT) or node.var != site.var:
        raise WfomcError("stale elimination site: quantifier moved")

    ys = site.ys
    terms = tuple(Variable(v) for v in ys)
    z = Atom(namer.tseitin(len(ys)), terms)
    s = Atom(namer.skolem(len(ys)), terms)

    if isinstance(node, Exists):
        replacement: Formula = z
        disjunct = negate(node.body)
    else:
        # forall x, phi  ==  ~exists x, ~phi
        replacement = Not(z)
        disjunct = node.body

    replaced = replace_at(sentence, site.path, replacement)
    quantified = ys + (site.var,)
    appended = (
        _wrap(Or(z, disjunct), quantified),
        _wrap(Or(s, z), ys),
        _wrap(Or(s, disjunct), quantified),
    )
    sentences = list(t.sentences)
    sentences[site.sentence_index] = replaced
    sentences.extend(appended)
    weights = t.weights.extended({z.pred: (1, 1), s.pred: (1, _SKOLEM_WF)})
    return t.replace(sentences=tuple(sentences), weights=weights)


def _wrap(body: Formula, vars_: tuple[str, ...]) -> Formula:
    for v in reversed(vars_):
        body = ForAll(v, body)
    return body


def _shortcut_step(t: WeightedTheory, site: ElimSite, namer: FreshNamer) -> WeightedTheory:
    """Prefix-universal existential: skip the definition predicate entirely
    and replace the whole sentence by the single cancellation sentence."""
    sentence = t.sentences[site.sentence_index]
    node = formula_at(sentence, site.path)
    ys = site.ys
    s = Atom(namer.skolem(len(ys)), tuple(Variable(v) for v in ys))
    new_sentence = _wrap(Or(s, negate(node.body)), ys + (site.var,))
    sentences = list(t.sentences)
    sentences[site.sentence_index] = new_sentence
    weights = t.weights.extended({s.pred: (1, _SKOLEM_WF)})
    return t.replace(sentences=tuple(sentences), weights=weights)


def _prefix_universal(t: WeightedTheory, site: ElimSite) -> bool:
    f = t.sentences[site.sentence_index]
    for _ in site.path:
        if not isinstance(f, ForAll):
            return False
        f = f.body
    return True


# ---------------------------------------------------------------------------
# Drivers


def skolemize(t: WeightedTheory) -> WeightedTheory:
    """Eliminate every internal quantifier, innermost first.

    Sentences of the form (forall ys, exists x, phi) take the single-sentence
    shortcut (``skolemize_full`` never does); everything else goes through
    the full elimination step. The weighted count is preserved for every
    domain.
    """
    return _skolemize(t, use_shortcut=True)


def skolemize_full(t: WeightedTheory) -> WeightedTheory:
    """Skolemize without the prefix-universal shortcut."""
    return _skolemize(t, use_shortcut=False)


def _skolemize(t: WeightedTheory, use_shortcut: bool) -> WeightedTheory:
    t = standardize_apart(t)
    namer = FreshNamer.for_theory(t)
    while True:
        site = next_internal_site(t)
        if site is None:
            return t
        if use_shortcut and site.kind == "exists" and _prefix_universal(t, site):
            t = _shortcut_step(t, site, namer)
        else:
            t = eliminate_one(t, site, namer)


def skolemize_prenex_shortcut(t: WeightedTheory) -> WeightedTheory:
    """Skolemize a prenex theory, avoiding definition predicates wherever an
    existential is preceded only by universals.

    Requires every sentence to be in prenex form with all universals before
    the first existential; otherwise directs the caller to ``skolemize``.
    """
    t = standardize_apart(t)
    for s in t.sentences:
        body = s
        seen_exists = False
        while isinstance(body, QUANT):
            if isinstance(body, Exists):
                seen_exists = True
            elif seen_exists:
                raise WfomcError(
                    "sentence is not of the forall*exists* prenex shape; use skolemize"
                )
            body = body.body
        if not is_quantifier_free(body):
            raise WfomcError("sentence is not in prenex form; use skolemize")
    return _skolemize(t, use_shortcut=True)


# ---------------------------------------------------------------------------
# CNF conversions


def _require_skolem(t: WeightedTheory, op: str):
    if classify_normal_form(t) not in NF_OK_FOR_CNF:
        raise WfomcError(f"{op} expects a theory in Skolem normal form; skolemize first")


def to_cnf_distribute(t: WeightedTheory) -> WeightedTheory:
    """Distribute disjunctions over conjunctions; one sentence per clause."""
    _require_skolem(t, "to_cnf_distribute")
    sentences: list[Formula] = []
    for s in t.sentences:
        _, matrix = strip_foralls(s)
        for clause in _distribute(to_nnf(matrix)):
            sentences.append(close_universally(_clause_formula(clause)))
    out = t.replace(sentences=tuple(sentences))
    return _account_dropped(t, out)


def _distribute(f: Formula) -> list[list[Formula]]:
    if isinstance(f, And):
        return _distribute(f.left) + _distribute(f.right)
    if isinstance(f, Or):
        left = _distribute(f.left)
        right = _distribute(f.right)
        return [l + r for l in left for r in right]
    if isinstance(f, TrueF):
        return []
    if isinstance(f, FalseF):
        return [[]]
    if is_literal(f):
        return [[f]]
    raise WfomcError(f"matrix not in negation normal form: {type(f).__name__}")


def _clause_formula(lits: list[Formula]) -> Formula:
    seen: list[Formula] = []
    for l in lits:
        if l not in seen:
            seen.append(l)
    return fold_or(seen)


def _push_scale(scale: list[ScaleFactor], base: Weight, nvars: int):
    if base != 1:  # base 1 is a no-op for every domain size
        scale.append(ScaleFactor(base, nvars))


def _account_dropped(before: WeightedTheory, after: WeightedTheory,
                     accounted=frozenset()) -> WeightedTheory:
    """If a simplification erased a predicate, its atoms became unconstrained;
    track the (wt + wf) per-grounding factor so counts stay comparable.
    Predicates in ``accounted`` already have their factor in ``after``."""
    gone = set()
    for s in before.sentences:
        gone |= predicates(s)
    for s in after.sentences:
        gone -= predicates(s)
    gone -= accounted
    if not gone:
        return after
    scale = list(after.scale)
    for sig in sorted(gone, key=lambda p: (p.name, p.arity)):
        wt, wf = before.weights.get(sig)
        _push_scale(scale, wt + wf, sig.arity)
    return after.replace(scale=tuple(scale))


def to_cnf_tseitin(t: WeightedTheory, namer: FreshNamer | None = None) -> WeightedTheory:
    """Structure-preserving CNF: ``true`` and ``false`` are dropped from each
    matrix, then every conjunction or biconditional nested in a clause and
    every operand of a biconditional that is not a literal is named with a
    fresh definition predicate weighted (1, 1) (``_definitional_clauses``).
    Output size is linear in the input; every model of the input extends
    uniquely, so counts agree."""
    _require_skolem(t, "to_cnf_tseitin")
    namer = namer or FreshNamer.for_theory(t)
    sentences: list[Formula] = []
    defs: list[PredicateSig] = []
    for s in t.sentences:
        _, matrix = strip_foralls(s)
        for clause in _definitional_clauses(_drop_constants(matrix), namer, defs):
            sentences.append(close_universally(_clause_formula(clause)))
    out = t.replace(sentences=tuple(sentences),
                    weights=t.weights.extended(dict.fromkeys(defs, (1, 1))))
    return _account_dropped(t, out)


def clausify(matrix: Formula, namer: FreshNamer, defs: list[PredicateSig]) -> list[list[Formula]]:
    """Clauses (lists of literals) of a quantifier-free matrix that count as
    it does over the same universal prefix.

    ``true`` and ``false`` are dropped first. The matrix is then distributed
    when that gives no more clauses than it has literals, and otherwise
    clausified with definitions as by ``to_cnf_tseitin``; each definition
    predicate, weighted (1, 1), is appended to ``defs``.
    """
    m = _drop_constants(matrix)
    clauses, _, literals = _sizes(m)
    if clauses <= literals:
        return _distribute(to_nnf(m))
    return _definitional_clauses(m, namer, defs)


def _drop_constants(f: Formula) -> Formula:
    """``f`` with every ``true`` and ``false`` simplified away: ``TRUE``,
    ``FALSE`` or a formula without constants."""
    if isinstance(f, Not):
        return _const_not(_drop_constants(f.body))
    if not isinstance(f, BINARY):
        return f
    left, right = _drop_constants(f.left), _drop_constants(f.right)
    const = (TrueF, FalseF)
    if not isinstance(left, const) and not isinstance(right, const):
        return type(f)(left, right)
    cls = type(f)
    if cls is Implies:  # l -> r is ~l | r
        cls, left = Or, _const_not(left)
    if isinstance(right, const):  # &, | and <-> are symmetric
        left, right = right, left
    if cls is And:
        return right if isinstance(left, TrueF) else FALSE
    if cls is Or:
        return TRUE if isinstance(left, TrueF) else right
    return right if isinstance(left, TrueF) else _const_not(right)  # Iff


def _const_not(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    return negate(f)


def _sizes(f: Formula) -> tuple[int, int, int]:
    """(clauses of ``f`` distributed, clauses of ``~f`` distributed, literals
    of ``f``), with both polarities counted in one pass."""
    if isinstance(f, Atom):
        return 1, 1, 1
    if isinstance(f, TrueF):
        return 0, 1, 0
    if isinstance(f, FalseF):
        return 1, 0, 0
    if isinstance(f, Not):
        pos, neg, k = _sizes(f.body)
        return neg, pos, k
    lp, ln, lk = _sizes(f.left)
    rp, rn, rk = _sizes(f.right)
    if isinstance(f, And):
        return lp + rp, ln * rn, lk + rk
    if isinstance(f, Or):
        return lp * rp, ln + rn, lk + rk
    if isinstance(f, Implies):
        return ln * rp, lp + rn, lk + rk
    return ln * rp + lp * rn, lp * rp + ln * rn, lk + rk  # Iff


def _definitional_clauses(m: Formula, namer: FreshNamer,
                          defs: list[PredicateSig]) -> list[list[Formula]]:
    """Clauses of a matrix without constants (or a lone constant), linear in
    its size.

    The matrix is read as a conjunction of clauses through its connectives
    under their polarity, as ``to_nnf`` would push negations, but without
    building the NNF, which doubles both operands of every ``<->``. An
    operand that fits neither shape (a conjunction inside a clause, or a
    biconditional) is named by a fresh atom D(free variables), tied to it by
    an equivalence whose clauses name its own operands in turn. So each
    subformula is named at most once, and every model extends to exactly
    one model of the clauses. The clauses of ``m`` come first, then the
    definitions'.
    """
    if isinstance(m, TrueF):
        return []
    if isinstance(m, FalseF):
        return [[]]
    definitions: list[list[Formula]] = []

    def literal(f: Formula, pos: bool) -> Formula:
        """A literal equivalent to f, or to ~f when not ``pos``."""
        while isinstance(f, Not):
            f, pos = f.body, not pos
        if not isinstance(f, Atom):
            fv = first_occurrence_vars(f)
            d = Atom(namer.fresh("D", len(fv)), tuple(Variable(v) for v in fv))
            defs.append(d.pred)
            if isinstance(f, Iff):
                a, b = literal(f.left, True), literal(f.right, True)
                definitions.extend([[Not(d), negate(a), b], [Not(d), a, negate(b)],
                                    [d, a, b], [d, negate(a), negate(b)]])
            elif isinstance(f, And):
                lits = [literal(g, p) for g, p in operands(f, True, True)]
                definitions.extend([Not(d), l] for l in lits)
                definitions.append([d] + [negate(l) for l in lits])
            else:  # Or, Implies
                lits = [literal(g, p) for g, p in operands(f, True, False)]
                definitions.append([Not(d)] + lits)
                definitions.extend([d, negate(l)] for l in lits)
            f = d
        return f if pos else Not(f)

    clauses = []
    for g, pos in operands(m, True, True):
        if isinstance(g, Iff):
            a, b = literal(g.left, True), literal(g.right, True)
            if pos:
                clauses += [[negate(a), b], [a, negate(b)]]
            else:
                clauses += [[a, b], [negate(a), negate(b)]]
        else:
            clauses.append([literal(h, p) for h, p in operands(g, pos, False)])
    return clauses + definitions


def operands(f: Formula, pos: bool, conjunctive: bool) -> list[tuple[Formula, bool]]:
    """The operands (subformula, polarity) of ``f`` under polarity ``pos``
    read as one n-ary conjunction (or disjunction), left to right, through
    ``~``, ``&``, ``|`` and ``->`` as ``to_nnf`` would push negations; an
    operand is never a negation. An explicit stack, so a long fold needs no
    recursion."""
    out = []
    stack = [(f, pos)]
    while stack:
        f, pos = stack.pop()
        if isinstance(f, Not):
            stack.append((f.body, not pos))
        elif isinstance(f, And if pos == conjunctive else Or):
            stack.append((f.right, pos))
            stack.append((f.left, pos))
        elif isinstance(f, Implies) and pos != conjunctive:
            stack.append((f.right, pos))
            stack.append((f.left, not pos))
        else:
            out.append((f, pos))
    return out


# ---------------------------------------------------------------------------
# First-order unit propagation


@dataclass(frozen=True)
class _Lit:
    positive: bool
    atom: Atom


def _matches(pattern: Atom, occurrence: Atom) -> bool:
    """True when every grounding of the occurrence instantiates the pattern."""
    if pattern.pred != occurrence.pred:
        return False
    binding: dict[str, object] = {}
    for p, o in zip(pattern.args, occurrence.args):
        if isinstance(p, Constant):
            if not (isinstance(o, Constant) and o == p):
                return False
        else:
            prev = binding.get(p.name)
            if prev is None:
                binding[p.name] = o
            elif prev != o:
                return False
    return True


def _clause_of(matrix: Formula) -> list[_Lit]:
    """The literals of a clause, in document order."""
    lits: list[_Lit] = []
    stack = [matrix]
    while stack:
        f = stack.pop()
        if isinstance(f, Or):
            stack.append(f.right)
            stack.append(f.left)
        elif isinstance(f, Atom):
            lits.append(_Lit(True, f))
        elif isinstance(f, Not) and isinstance(f.body, Atom):
            lits.append(_Lit(False, f.body))
        else:
            raise WfomcError("unit propagation expects a clausal theory")
    return lits


def _all_distinct_vars(a: Atom) -> bool:
    names = [t.name for t in a.args if isinstance(t, Variable)]
    return len(names) == len(a.args) and len(set(names)) == len(names)


def unit_propagate(t: WeightedTheory) -> WeightedTheory:
    """Simplify a clausal theory with its unit clauses, to fixpoint.

    A unit whose arguments are distinct variables forces its predicate
    everywhere; the predicate disappears and its weight enters the theory's
    deferred scale. Partial units (ground or with repeated arguments) are
    kept but still simplify subsumed occurrences. Deriving the empty clause
    yields the unsatisfiable theory (count 0).
    """
    clauses: list[list[_Lit]] = []
    for s in t.sentences:
        _, matrix = strip_foralls(s)
        if isinstance(matrix, TrueF):
            continue
        if isinstance(matrix, FalseF):
            return t.replace(sentences=(FALSE,))
        clauses.append(_clause_of(matrix))

    scale = list(t.scale)
    forced: set[PredicateSig] = set()

    changed = True
    while changed:
        changed = False
        for ui, unit in enumerate(clauses):
            if len(unit) != 1:
                continue
            lit = unit[0]
            new_clauses: list[list[_Lit]] = []
            for j, c in enumerate(clauses):
                if j == ui:
                    new_clauses.append(c)
                    continue
                if any(l.positive == lit.positive and _matches(lit.atom, l.atom) for l in c):
                    changed = True
                    continue  # satisfied by the unit
                kept = [l for l in c
                        if not (l.positive != lit.positive and _matches(lit.atom, l.atom))]
                if len(kept) != len(c):
                    changed = True
                    if not kept:
                        return t.replace(sentences=(FALSE,), scale=tuple(scale))
                new_clauses.append(kept)
            clauses = new_clauses
            if _all_distinct_vars(lit.atom):
                wt, wf = t.weights.get(lit.atom.pred)
                _push_scale(scale, wt if lit.positive else wf, lit.atom.pred.arity)
                forced.add(lit.atom.pred)
                clauses = [c for k, c in enumerate(clauses) if k != ui]
                changed = True
            if changed:
                break  # restart with the updated clause list

    sentences = tuple(
        close_universally(fold_or([l.atom if l.positive else Not(l.atom) for l in c]))
        for c in clauses
    )
    return _account_dropped(t, t.replace(sentences=sentences, scale=tuple(scale)), forced)


# ---------------------------------------------------------------------------
# Staged elimination (soundness argument, step by step)


@dataclass(frozen=True)
class StagedElimination:
    """The four intermediate theories of one existential elimination.

    isolate:     subexpression named by Z, full equivalence kept.
    split:       equivalence split into its two implications.
    feature:     forward implication replaced by an S-equivalence, S weighted (1, 0).
    implication: S-equivalence weakened to an implication, S weighted (1, -1).
    """

    isolate: WeightedTheory
    split: WeightedTheory
    feature: WeightedTheory
    implication: WeightedTheory
    z: PredicateSig
    s: PredicateSig
    ys: tuple[str, ...]
    sigma: Formula  # exists x, ~Z(ys) | phi   (free in ys)


def staged_elimination(t: WeightedTheory, site: ElimSite) -> StagedElimination:
    if site.kind != "exists":
        raise WfomcError("staged elimination is defined for existential sites")
    t = standardize_apart(t)
    namer = FreshNamer.for_theory(t)
    sentence = t.sentences[site.sentence_index]
    node = formula_at(sentence, site.path)
    if not isinstance(node, Exists) or node.var != site.var:
        raise WfomcError("stale elimination site: quantifier moved")

    ys = site.ys
    terms = tuple(Variable(v) for v in ys)
    z = Atom(namer.tseitin(len(ys)), terms)
    s = Atom(namer.skolem(len(ys)), terms)

    replaced = list(t.sentences)
    replaced[site.sentence_index] = replace_at(sentence, site.path, z)

    equivalence = _wrap(Iff(z, Exists(node.var, node.body)), ys)
    isolate = t.replace(
        sentences=tuple(replaced) + (equivalence,),
        weights=t.weights.extended({z.pred: (1, 1)}),
    )

    forward = _wrap(Exists(node.var, Or(Not(z), node.body)), ys)
    backward = _wrap(Or(z, negate(node.body)), ys + (site.var,))
    split = isolate.replace(sentences=tuple(replaced) + (forward, backward))

    sigma = Exists(node.var, Or(Not(z), node.body))
    named = _wrap(Iff(s, sigma), ys)
    feature = split.replace(
        sentences=tuple(replaced) + (named, backward),
        weights=split.weights.extended({s.pred: (1, 0)}),
    )

    implication = feature.replace(
        sentences=tuple(replaced) + (_wrap(Or(s, z), ys),
                                     _wrap(Or(s, negate(node.body)), ys + (site.var,)),
                                     backward),
        weights=feature.weights.extended({s.pred: (1, _SKOLEM_WF)}),
    )

    return StagedElimination(isolate, split, feature, implication,
                             z.pred, s.pred, ys, sigma)
