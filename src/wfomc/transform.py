"""Normal-form conversions and count-preserving quantifier elimination.

The elimination step swaps a quantified subexpression for a fresh relaxation
predicate pair: a definition predicate Z weighted (1, 1) and a cancellation
predicate S weighted (1, -1) whose negative branch exactly cancels the models
the relaxation admits beyond the original theory. Driving it innermost-first
removes every non-leading quantifier in polynomially many steps: one walk per
sentence lists its sites in post-order, and a step leaves every other site's
path, variable and free variables as they were. Unit propagation is one pass
too, each unit clause applied once, lowest position first.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import WfomcError
from .logic import (
    FALSE,
    NF_FO_CNF,
    NF_SKOLEM,
    TRUE,
    And,
    Atom,
    Constant,
    Exists,
    FalseF,
    ForAll,
    Formula,
    FreshNamer,
    Iff,
    Implies,
    Junction,
    Not,
    Or,
    PredicateSig,
    QUANT,
    ScaleFactor,
    TrueF,
    Variable,
    Weight,
    WeightFn,
    WeightedTheory,
    bound_vars,
    children,
    classify_normal_form,
    close_universally,
    first_occurrence_vars,
    fold_and,
    fold_or,
    free_vars,
    is_quantifier_free,
    negate,
    rename_bound,
    standardize_apart,
    strip_foralls,
    with_children,
)

NF_OK_FOR_CNF = (NF_SKOLEM, NF_FO_CNF)


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


def _sites(f: Formula) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Every quantifier of sentence ``f`` below its leading universal
    prefix, innermost first (post-order), as (path, whether only the prefix
    is above it). One walk over an explicit stack, where a quantifier is
    pushed again, marked done, under its children."""
    prefix, f = strip_foralls(f)
    stack = [(f, (0,) * len(prefix), True, False)]
    while stack:
        g, path, leading, done = stack.pop()
        if done:
            yield path, leading
            continue
        if isinstance(g, QUANT):
            stack.append((g, path, leading, True))
        kids = children(g)
        stack += [(kids[k], path + (k,), False, False) for k in reversed(range(len(kids)))]


def _site(sentences, i: int, path: tuple[int, ...]) -> ElimSite:
    """The site at ``path`` of ``sentences[i]``, as the sentence is now."""
    node = formula_at(sentences[i], path)
    kind = "exists" if isinstance(node, Exists) else "forall"
    return ElimSite(i, path, kind, node.var, first_occurrence_vars(node))


def next_internal_site(t: WeightedTheory) -> ElimSite | None:
    """The first site of the first sentence that has one: the site the
    elimination (``_eliminate_all``) clears first."""
    for i, s in enumerate(t.sentences):
        for path, _ in _sites(s):
            return _site(t.sentences, i, path)
    return None


def internal_quantifier_count(t: WeightedTheory) -> int:
    """Quantifiers not in a sentence's leading universal prefix."""
    return sum(1 for s in t.sentences for _ in _sites(s))


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
    if isinstance(f, Junction):
        cls = type(f) if pos else (Or if isinstance(f, And) else And)
        return cls(*[_nnf(p, pos) for p in f.parts])
    if isinstance(f, Implies):
        return _nnf(Or(Not(f.left), f.right), pos)
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
    f = _expand_quantified_iff(f, FreshNamer(bound_vars(f) | free_vars(f)))
    prefix, matrix = _pull(f)
    for cls, var in reversed(prefix):
        matrix = cls(var, matrix)
    return matrix


def _expand_quantified_iff(f: Formula, names: FreshNamer) -> Formula:
    """Quantifiers cannot move through <->; rewrite such nodes first.

    ``names`` holds every variable name of the whole formula, so the renames
    forced by the duplication cannot collide with binders elsewhere.
    """
    kids = tuple(_expand_quantified_iff(c, names) for c in children(f))
    f = with_children(f, kids)
    if isinstance(f, Iff) and not is_quantifier_free(f):
        expanded = And(Implies(f.left, f.right), Implies(f.right, f.left))
        return rename_bound(expanded, names)
    return f


def _pull(f: Formula) -> tuple[list, Formula]:
    if isinstance(f, QUANT):
        prefix, matrix = _pull(f.body)
        return [(type(f), f.var)] + prefix, matrix
    if isinstance(f, Not):
        prefix, matrix = _pull(f.body)
        flipped = [(Exists if cls is ForAll else ForAll, v) for cls, v in prefix]
        return flipped, Not(matrix)
    if isinstance(f, Junction):
        pulled = [_pull(p) for p in f.parts]
        return [q for prefix, _ in pulled for q in prefix], type(f)(*[m for _, m in pulled])
    if isinstance(f, Implies):
        pl, ml = _pull(f.left)
        pr, mr = _pull(f.right)
        flipped = [(Exists if cls is ForAll else ForAll, v) for cls, v in pl]
        return flipped + pr, Implies(ml, mr)
    return [], f


# ---------------------------------------------------------------------------
# The elimination step


# The weight pairs of definition and Skolem predicates, exact; ``WeightFn``
# stores them in its own mode.
_DEFINITION = (Fraction(1), Fraction(1))
_SKOLEM = (Fraction(1), Fraction(-1))


def _eliminate(sentences: list[Formula], weights: dict, site: ElimSite,
               namer: FreshNamer, shortcut: bool):
    """The elimination step, in place: the quantified subexpression at
    ``site`` leaves ``sentences`` and the fresh predicates' weight pairs
    enter ``weights``.

    The subexpression is replaced by a fresh definition atom Z(ys),
    weighted (1, 1), and three sentences are appended: Z | ~phi, S | Z and
    S | ~phi, with S(ys) a cancellation predicate weighted (1, -1) and phi
    the body. A universal site is first rewritten through double negation,
    so Z appears negated and the appended disjuncts keep the body's
    polarity. With ``shortcut``, for an existential directly under the
    sentence's leading universals, the whole sentence is replaced by its
    cancellation sentence S | ~phi and no Z is made.
    """
    i = site.sentence_index
    node = formula_at(sentences[i], site.path)
    if not isinstance(node, QUANT) or node.var != site.var:
        raise WfomcError("stale elimination site: quantifier moved")
    ys = site.ys
    quantified = ys + (site.var,)
    exists = isinstance(node, Exists)
    disjunct = negate(node.body) if exists else node.body  # forall x, phi == ~exists x, ~phi
    if shortcut:
        s = namer.atom("Sk", ys)
        sentences[i] = close_universally(Or(s, disjunct), quantified)
        weights[s.pred] = _SKOLEM
        return
    z = namer.atom("Z", ys)
    s = namer.atom("Sk", ys)
    sentences[i] = replace_at(sentences[i], site.path, z if exists else Not(z))
    sentences += [close_universally(Or(z, disjunct), quantified),
                  close_universally(Or(s, z), ys), close_universally(Or(s, disjunct), quantified)]
    weights[z.pred] = _DEFINITION
    weights[s.pred] = _SKOLEM


def _eliminate_all(sentences: list[Formula], namer: FreshNamer, use_shortcut: bool) -> dict:
    """Clear every internal quantifier of ``sentences`` in place, sentence
    by sentence, in the order of one walk (``_sites``); the sentences a
    step appends have none. Returns the fresh predicates' weight pairs, in
    naming order.

    A step replaces its subformula by an atom over the subformula's free
    variables in first-occurrence order, so every other site keeps its
    path, variable and ``ys``, and its body is quantifier-free when its turn
    comes. The shortcut site, an existential directly under the leading
    universals, is above every other site of its sentence, so it is last.
    """
    weights: dict = {}
    for i in range(len(sentences)):
        for path, leading in _sites(sentences[i]):
            _eliminate(sentences, weights, _site(sentences, i, path), namer,
                       use_shortcut and leading)
    return weights


def eliminate_one(t: WeightedTheory, site: ElimSite, namer: FreshNamer) -> WeightedTheory:
    """One elimination step (``_eliminate``, without the shortcut): the
    quantified subexpression at ``site`` replaced by a fresh atom, and the
    three relaxation sentences appended with their weights."""
    sentences = list(t.sentences)
    weights: dict = {}
    _eliminate(sentences, weights, site, namer, shortcut=False)
    return t.replace(sentences=tuple(sentences), weights=t.weights.extended(weights))


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
    """Bound variables renamed apart once, every sentence's sites cleared
    in order by the elimination step (``_eliminate_all``), and one theory
    and one weight function built from the result."""
    names = FreshNamer()  # sentences have no free variables
    sentences = [rename_bound(s, names) for s in t.sentences]
    weights = _eliminate_all(sentences, FreshNamer.for_theory(t), use_shortcut)
    return t.replace(sentences=tuple(sentences), weights=t.weights.extended(weights))


def skolemize_prenex_shortcut(t: WeightedTheory) -> WeightedTheory:
    """Skolemize a prenex theory, avoiding definition predicates wherever an
    existential is preceded only by universals.

    Requires every sentence to be in prenex form with all universals before
    the first existential; otherwise directs the caller to ``skolemize``.
    """
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
    return _written(t, [c for s in t.sentences for c in _distribute(to_nnf(strip_foralls(s)[1]))])


def _distribute(f: Formula) -> list[list[tuple[Atom, bool]]]:
    if isinstance(f, And):
        return [c for p in f.parts for c in _distribute(p)]
    if isinstance(f, Or):
        out = [[]]
        for p in f.parts:
            out = [l + r for l in out for r in _distribute(p)]
        return out
    if isinstance(f, TrueF):
        return []
    if isinstance(f, FalseF):
        return [[]]
    if isinstance(f, Atom):
        return [[(f, True)]]
    if isinstance(f, Not) and isinstance(f.body, Atom):
        return [[(f.body, False)]]
    raise WfomcError(f"matrix not in negation normal form: {type(f).__name__}")


def to_cnf_tseitin(t: WeightedTheory) -> WeightedTheory:
    """Structure-preserving CNF: ``true`` and ``false`` are dropped from each
    matrix, then every conjunction or biconditional nested in a clause and
    every operand of a biconditional that is not a literal is named with a
    fresh definition predicate weighted (1, 1) (``_definitional_clauses``).
    Output size is linear in the input; every model of the input extends
    uniquely, so counts agree."""
    _require_skolem(t, "to_cnf_tseitin")
    namer = FreshNamer.for_theory(t)
    defs: list[PredicateSig] = []
    clauses = [c for s in t.sentences
               for c in _definitional_clauses(_drop_constants(strip_foralls(s)[1]), namer, defs)]
    return _written(t, clauses, weights=t.weights.extended(dict.fromkeys(defs, (1, 1))))


def clausify(matrix: Formula, namer: FreshNamer,
             defs: list[PredicateSig]) -> list[list[tuple[Atom, bool]]]:
    """Clauses (lists of (atom, positive) literals) of a quantifier-free
    matrix that count as it does over the same universal prefix.

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
    """``f`` with every ``true`` and ``false`` simplified away and each
    ``l -> r`` read as ``~l | r``: ``TRUE``, ``FALSE`` or a formula of
    ``~``, ``&``, ``|`` and ``<->`` without constants."""
    if isinstance(f, Not):
        return _const_not(_drop_constants(f.body))
    const = (TrueF, FalseF)
    if isinstance(f, Iff):
        left, right = _drop_constants(f.left), _drop_constants(f.right)
        if isinstance(right, const):  # <-> is symmetric
            left, right = right, left
        if not isinstance(left, const):
            return Iff(left, right)
        return right if isinstance(left, TrueF) else _const_not(right)
    if isinstance(f, Implies):
        f = Or(Not(f.left), f.right)
    if not isinstance(f, Junction):
        return f
    kept = []
    for p in map(_drop_constants, f.parts):
        if not isinstance(p, const):
            kept.append(p)
        elif isinstance(p, FalseF) == isinstance(f, And):
            return p  # false in a conjunction, true in a disjunction
    return fold_and(kept) if isinstance(f, And) else fold_or(kept)


def _const_not(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    return negate(f)


def _sizes(f: Formula) -> tuple[int, int, int]:
    """(clauses of ``f`` distributed, clauses of ``~f`` distributed, literals
    of ``f``) for ``f`` without ``->`` (``_drop_constants``), with both
    polarities counted in one pass."""
    if isinstance(f, Atom):
        return 1, 1, 1
    if isinstance(f, TrueF):
        return 0, 1, 0
    if isinstance(f, FalseF):
        return 1, 0, 0
    if isinstance(f, Not):
        pos, neg, k = _sizes(f.body)
        return neg, pos, k
    if isinstance(f, Iff):
        lp, ln, lk = _sizes(f.left)
        rp, rn, rk = _sizes(f.right)
        return ln * rp + lp * rn, lp * rp + ln * rn, lk + rk
    pos, neg, k = zip(*map(_sizes, f.parts))
    if isinstance(f, And):
        return sum(pos), math.prod(neg), sum(k)
    return math.prod(pos), sum(neg), sum(k)  # Or


def _definitional_clauses(m: Formula, namer: FreshNamer,
                          defs: list[PredicateSig]) -> list[list[tuple[Atom, bool]]]:
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
    definitions: list[list[tuple[Atom, bool]]] = []

    def literal(f: Formula, pos: bool) -> tuple[Atom, bool]:
        """A literal equivalent to f, or to ~f when not ``pos``."""
        while isinstance(f, Not):
            f, pos = f.body, not pos
        if not isinstance(f, Atom):
            d = namer.atom("D", first_occurrence_vars(f))
            defs.append(d.pred)
            if isinstance(f, Iff):
                a, b = literal(f.left, True), literal(f.right, True)
                definitions.extend([[(d, False), _neg(a), b], [(d, False), a, _neg(b)],
                                    [(d, True), a, b], [(d, True), _neg(a), _neg(b)]])
            elif isinstance(f, And):
                lits = [literal(g, p) for g, p in operands(f, True, True)]
                definitions.extend([(d, False), l] for l in lits)
                definitions.append([(d, True)] + [_neg(l) for l in lits])
            else:  # Or
                lits = [literal(g, p) for g, p in operands(f, True, False)]
                definitions.append([(d, False)] + lits)
                definitions.extend([(d, True), _neg(l)] for l in lits)
            f = d
        return f, pos

    clauses = []
    for g, pos in operands(m, True, True):
        if isinstance(g, Iff):
            a, b = literal(g.left, True), literal(g.right, True)
            if pos:
                clauses += [[_neg(a), b], [a, _neg(b)]]
            else:
                clauses += [[a, b], [_neg(a), _neg(b)]]
        else:
            clauses.append([literal(h, p) for h, p in operands(g, pos, False)])
    return clauses + definitions


def _neg(lit: tuple[Atom, bool]) -> tuple[Atom, bool]:
    atom, positive = lit
    return atom, not positive


def operands(f: Formula, pos: bool, conjunctive: bool) -> list[tuple[Formula, bool]]:
    """The operands (subformula, polarity) of ``f`` under polarity ``pos``
    read as one n-ary conjunction (or disjunction), left to right, through
    ``~``, ``&``, ``|`` and ``->`` as ``to_nnf`` would push negations; an
    operand is never a negation. An explicit stack, so nested connectives
    need no recursion."""
    out = []
    stack = [(f, pos)]
    while stack:
        f, pos = stack.pop()
        if isinstance(f, Not):
            stack.append((f.body, not pos))
        elif isinstance(f, And if pos == conjunctive else Or):
            stack += [(p, pos) for p in reversed(f.parts)]
        elif isinstance(f, Implies) and pos != conjunctive:
            stack.append((f.right, pos))
            stack.append((f.left, not pos))
        else:
            out.append((f, pos))
    return out


# ---------------------------------------------------------------------------
# First-order clause form
#
# A literal is a pair (atom, positive) and a clause a list of literals, read
# under the universal closure of its variables. ``clause_walk`` reads a
# sentence as one clause, ``clause_form`` puts sentences in clause form, and
# ``_written`` writes clauses back as the sentences of a theory.


def clause_walk(s: Formula):
    """Sentence ``s`` read as one clause: (literals, inner variables), True
    when a constant makes it a tautology, or None.

    Below the leading universal prefix, literals are collected through the
    connectives of a disjunction under their polarity (``operands``), so
    ``S(x) & F(x,y) -> S(y)`` is the clause ``~S(x) | ~F(x,y) | S(y)``; a
    ``true`` literal makes it a tautology and a ``false`` one drops out. A
    disjunctive quantifier (``exists`` under positive polarity, ``forall``
    under negative) whose variable the prefix does not bind is walked
    through too, and its variable is inner: the clause of a binding of the
    prefix holds the literals of every binding of the inner variables
    (``grounding.clause_instances``). Any other operand, or a variable
    that no quantifier above it binds (``s`` is then no sentence), gives
    None.
    """
    prefix, f = strip_foralls(s)
    lits = []
    inner = []
    stack = [(f, True, set(prefix))]  # with the variables bound there
    while stack:
        f, pos, bound = stack.pop()
        for g, pos in operands(f, pos, False):
            if isinstance(g, Atom):
                for t in g.args:
                    if isinstance(t, Variable) and t.name not in bound:
                        return None
                lits.append((g, pos))
            elif isinstance(g, (TrueF, FalseF)):
                if isinstance(g, TrueF) == pos:
                    return True
            elif isinstance(g, Exists if pos else ForAll) and g.var not in prefix:
                inner.append(g.var)
                stack.append((g.body, pos, bound | {g.var}))
            else:
                return None
    return lits, inner


def clause_form(sentences, reserved) -> tuple[list, list]:
    """The clauses of ``sentences`` as (literals, inner variables) pairs,
    with the same weighted count, and the predicates added for them as
    (predicate, exact weight pair) pairs.

    Each sentence that reads as one clause (``clause_walk``) is that
    clause. The others are Skolemized together by the step ``skolemize``
    runs (``_eliminate_all``), without building a theory, and each matrix
    that is still not one clause is clausified (``clausify``), without
    inner variables. The added predicates, Skolem and definition
    predicates of the elimination (sorted by name and arity) and then
    clausify's definitions, get names that avoid the predicates
    ``reserved``, which must include every predicate of ``sentences``. The
    clause-shaped sentences' clauses come first, in order, then the
    Skolemized sentences'. A formula with a free variable is refused: the
    walk of a clause-shaped sentence meets each variable in its scope, so
    only the others are walked again for it.
    """
    clauses, rest = [], []
    for s in sentences:
        walked = clause_walk(s)
        if walked is None:
            free = first_occurrence_vars(s)
            if free:
                raise WfomcError(f"free variable {free[0]!r} in a sentence to ground")
            rest.append(s)
        elif walked is not True:
            clauses.append(walked)
    if not rest:
        return clauses, []
    namer = FreshNamer({sig.name for sig in reserved})
    names = FreshNamer()
    rest = [rename_bound(s, names) for s in rest]
    weights = _eliminate_all(rest, namer, use_shortcut=True)
    new = sorted(weights, key=lambda sig: (sig.name, sig.arity))
    for s in rest:
        walked = clause_walk(s)
        if walked is None:
            clauses += [(c, ()) for c in clausify(strip_foralls(s)[1], namer, new)]
        elif walked is not True:
            clauses.append(walked)
    return clauses, [(sig, weights.get(sig, _DEFINITION)) for sig in new]


def _written(t: WeightedTheory, clauses, weights: WeightFn | None = None,
             scale: list[ScaleFactor] | None = None, accounted=frozenset()) -> WeightedTheory:
    """``t`` with one sentence per clause, its universal closure with each
    repeated literal written once, and ``weights`` and ``scale`` if given.

    A predicate of ``t`` that no clause mentions has unconstrained atoms:
    its (wt + wf) factor per grounding enters the scale, so counts stay
    comparable, unless ``accounted`` names it (its factor is in ``scale``).
    The sum is exact in float mode too: counting reads each float weight
    as its exact binary value.
    """
    sentences, mentioned = [], set()
    for c in clauses:
        lits = dict.fromkeys(c)
        mentioned.update(atom.pred for atom, _ in lits)
        sentences.append(close_universally(fold_or([atom if positive else Not(atom)
                                                    for atom, positive in lits])))
    scale = list(t.scale if scale is None else scale)
    for sig in t.predicates():  # sorted by (name, arity)
        if sig not in mentioned and sig not in accounted:
            wt, wf = t.weights.exact(sig)
            _push_scale(scale, wt + wf, sig.arity)
    return t.replace(sentences=tuple(sentences), scale=tuple(scale),
                     weights=t.weights if weights is None else weights)


def _push_scale(scale: list[ScaleFactor], base: Weight, nvars: int):
    if base != 1:  # base 1 is a no-op for every domain size
        scale.append(ScaleFactor(base, nvars))


# ---------------------------------------------------------------------------
# First-order unit propagation


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


def _all_distinct_vars(a: Atom) -> bool:
    names = [t.name for t in a.args if isinstance(t, Variable)]
    return len(names) == len(a.args) and len(set(names)) == len(names)


def unit_propagate(t: WeightedTheory) -> WeightedTheory:
    """Simplify a clausal theory with its unit clauses, to fixpoint.

    Each sentence must read as one clause without inner variables
    (``clause_walk``). A unit whose arguments are distinct variables forces
    its predicate everywhere; the predicate disappears and its weight
    enters the theory's deferred scale. Partial units (ground or with
    repeated arguments) are kept but still simplify subsumed occurrences.
    Deriving the empty clause yields the unsatisfiable theory (count 0).

    One pass: each unit is applied once, lowest position first (a heap),
    to the clauses that mention its predicate. Clauses only shrink, so a
    clause becomes a unit at most once, when it is pushed, and a unit never
    changes a clause twice. So units apply in the order of a scan restarted
    from the first clause after each change: the same scale factors and the
    same surviving clauses, in the same order.
    """
    clauses: list[list[tuple[Atom, bool]] | None] = []
    for s in t.sentences:
        walked = clause_walk(s)
        if walked is True:
            continue
        if walked is None or walked[1]:
            raise WfomcError("unit propagation expects a clausal theory")
        if not walked[0]:
            return t.replace(sentences=(FALSE,))
        clauses.append(walked[0])

    occurs: dict[PredicateSig, list[int]] = {}
    for j, c in enumerate(clauses):
        for pred in dict.fromkeys(atom.pred for atom, _ in c):
            occurs.setdefault(pred, []).append(j)
    units = [j for j, c in enumerate(clauses) if len(c) == 1]  # sorted, so a heap
    scale = list(t.scale)
    forced: set[PredicateSig] = set()
    while units:
        ui = heapq.heappop(units)
        if clauses[ui] is None:
            continue  # satisfied by an earlier unit
        [(atom, positive)] = clauses[ui]
        for j in occurs[atom.pred]:
            c = clauses[j]
            if j == ui or c is None:
                continue
            if any(p == positive and _matches(atom, a) for a, p in c):
                clauses[j] = None  # satisfied by the unit
                continue
            kept = [(a, p) for a, p in c if not (p != positive and _matches(atom, a))]
            if not kept:
                return t.replace(sentences=(FALSE,), scale=tuple(scale))
            if len(kept) == 1 and len(c) > 1:
                heapq.heappush(units, j)
            clauses[j] = kept
        if _all_distinct_vars(atom):  # the unit forces its predicate and goes
            clauses[ui] = None
            wt, wf = t.weights.get(atom.pred)
            _push_scale(scale, wt if positive else wf, atom.pred.arity)
            forced.add(atom.pred)

    return _written(t, [c for c in clauses if c is not None], scale=scale, accounted=forced)


# ---------------------------------------------------------------------------
# Staged elimination (soundness argument, step by step)


@dataclass(frozen=True)
class StagedElimination:
    """The four intermediate theories of one existential elimination.

    isolate:     subexpression named by Z, full equivalence kept.
    split:       equivalence split into its two implications.
    feature:     forward implication replaced by an S-equivalence, S weighted (1, 0).
    implication: S-equivalence weakened to an implication, S weighted (1, -1):
                 the output of the elimination step (``eliminate_one``).
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
    """The four stages of eliminating the existential at ``site`` of
    ``standardize_apart(t)``, each with the count of ``t``. The last,
    ``implication``, is ``eliminate_one``'s output, the step ``skolemize``
    runs, so the ladder certifies that step; the others are built around
    its predicates Z and S, the two it adds to the weights."""
    if site.kind != "exists":
        raise WfomcError("staged elimination is defined for existential sites")
    t = standardize_apart(t)
    node = formula_at(t.sentences[site.sentence_index], site.path)
    if not isinstance(node, Exists) or node.var != site.var:
        raise WfomcError("stale elimination site: quantifier moved")
    implication = eliminate_one(t, site, FreshNamer.for_theory(t))

    z_sig, s_sig = list(implication.weights.pairs)[len(t.weights.pairs):]
    ys = site.ys
    terms = tuple(Variable(v) for v in ys)
    z, s = Atom(z_sig, terms), Atom(s_sig, terms)
    replaced = implication.sentences[:len(t.sentences)]
    backward = implication.sentences[len(t.sentences)]  # forall ys, x: Z | ~phi

    equivalence = close_universally(Iff(z, Exists(node.var, node.body)), ys)
    isolate = t.replace(
        sentences=replaced + (equivalence,),
        weights=t.weights.extended({z_sig: _DEFINITION}),
    )

    forward = close_universally(Exists(node.var, Or(Not(z), node.body)), ys)
    split = isolate.replace(sentences=replaced + (forward, backward))

    sigma = Exists(node.var, Or(Not(z), node.body))
    named = close_universally(Iff(s, sigma), ys)
    feature = split.replace(
        sentences=replaced + (named, backward),
        weights=split.weights.extended({s_sig: (1, 0)}),
    )

    return StagedElimination(isolate, split, feature, implication, z_sig, s_sig, ys, sigma)
