"""Lifted counting: the ``dpll`` engine's recursion over first-order clauses.

``count(g, query)`` counts a ground problem from its first-order clause form
(``transform.clause_form``): rows (literals, inner variables, asked) over
blocks (predicate, weight pair, asked), the asked ones being the query's
clause form. Each clause set tries, in order (Van den Broeck 2011;
Gribkoff, Van den Broeck & Suciu 2014):

  * independent parts (``_count``): rows that share no predicate are
    counted apart, and a block that no row mentions gives its free factor;
  * the power rule (``_split``): one slice per class of constants, each
    counted by this same recursion;
  * the ground leaf (``_ground``): ``counting.wmc_dpll`` over the rows'
    instances (``grounding.clause_problem``).

With a query, each rule returns the pair (count with it, count without); a
part or slice that the query does not touch is counted once for both. A
slice drops one argument, so the recursion is at most as deep as the
largest arity. Parts with a nullary predicate (``mother.fol``) or without a
separator (smokers) are counted whole. ``wmc_dpll`` is called through
``counting``, so that a wrapper set there sees each call.
"""

from __future__ import annotations

from fractions import Fraction

from . import counting
from .grounding import GroundProblem, HerbrandBase, clause_problem
from .logic import Atom, Constant, Formula, PredicateSig
from .transform import clause_form

_SEPARATOR_BACKTRACKS = 64  # dead ends of the position search before it gives up


def count(g: GroundProblem, query: Formula | None = None):
    """The weighted count of g; given a query sentence over g's predicates
    and constants, the pair (count of g ∧ query, count of g), the query's
    clause form made over g's."""
    form, added = clause_form(g.sentences, [sig for sig, _ in g.base.blocks])
    blocks = [(sig, pair, False) for (sig, _), pair in zip(g.base.blocks, g.weights)]
    blocks += [(sig, pair, False) for sig, pair in added]
    rows = [(lits, inner, False) for lits, inner in form]
    if query is not None:
        form, added = clause_form([query], [sig for sig, _, _ in blocks])
        rows = [(lits, inner, True) for lits, inner in form] + rows
        blocks += [(sig, pair, True) for sig, pair in added]
    total = _count(rows, blocks, g.base.constants)
    if g.scalar != 1:  # a Fraction product reduces by gcds
        total = (total[0] * g.scalar, total[1] * g.scalar) if isinstance(total, tuple) else total * g.scalar
    return (total, total) if query is not None and not isinstance(total, tuple) else total


def _count(rows, blocks, constants, whole: bool = False):
    """The count of the rows over the blocks, or the pair (with the asked
    ones, without) when there are any. A union-find over predicate names
    (distinct in a theory's base; a shared one only joins parts) finds the
    parts. One part that mentions every block goes to the power rule, else
    to the leaf; ``whole`` says that the rows are known to be one (a slice
    that keeps every row of its part), and the union-find is skipped.
    Otherwise the union-find counts its joins, so one part is told without
    grouping the rows."""
    if whole:
        return _one_part(rows, blocks, constants)
    parent: dict[str, str] = {}
    joins = 0
    for lits, _, _ in rows:
        first = None
        for a, _ in lits:
            x = a.pred.name
            p = parent.setdefault(x, x)
            while p != x:
                parent[x] = x = parent[p]
                p = parent[x]
            if first is None:
                first = x
            elif x != first:
                parent[x] = first
                joins += 1
    if (joins == len(parent) - 1 and all(row[0] for row in rows)
            and all(block[0].name in parent for block in blocks)):
        return _one_part(rows, blocks, constants)
    parts: dict = {}  # per root, (rows, blocks); rows without literals share None
    for row in rows:
        parts.setdefault(_root(parent, row[0][0][0].pred.name) if row[0] else None, ([], []))[0].append(row)
    free = []  # the blocks that no row mentions
    for block in blocks:
        if block[0].name in parent:
            parts[_root(parent, block[0].name)][1].append(block)
        else:
            free.append(block)
    if len(parts) == 1 and not free:
        (part, own), = parts.values()
        return _one_part(part, own, constants)
    n = len(constants)
    total, with_query, without, asked = Fraction(1), 1, 1, False
    for sig, (wt, wf), asked_block in free:
        factor = (wt + wf) ** (n ** sig.arity)
        if asked_block:
            asked, with_query = True, with_query * factor
        else:
            total = total * factor
    for part, own in parts.values():
        got = _count(part, own, constants)
        if isinstance(got, tuple):
            asked = True
            with_query, without = with_query * got[0], without * got[1]
        else:  # a part the query does not touch
            total = total * got
    return (total * with_query, total * without) if asked else total


def _one_part(rows, blocks, constants):
    """The power rule, or the leaf where it does not apply."""
    got = _split(rows, blocks, constants)
    return _ground(rows, blocks, constants) if got is None else got


def _root(parent: dict, x: str) -> str:
    while parent[x] != x:
        x = parent[x]
    return x


def _ground(rows, blocks, constants):
    """The leaf: ``counting.wmc_dpll`` over the rows' ground instances,
    with the asked rows, over blocks after the others', as its query."""
    g = clause_problem(HerbrandBase(constants), (), 1,
                       [(lits, inner) for lits, inner, asked in rows if not asked],
                       [(sig, pair) for sig, pair, asked in blocks if not asked])
    query = [(lits, inner) for lits, inner, asked in rows if asked]
    if not query:
        return counting.wmc_dpll(g)
    return counting.wmc_dpll(g, clause_problem(g.base, g.weights, 1, query,
                                               [(sig, pair) for sig, pair, asked in blocks if asked]))


def _split(rows, blocks, constants):
    """The power rule: one part's count, or pair, from one slice per class
    of constants; None when it has no separator.

    A separator puts each predicate P's atoms at one argument position
    pos(P) (``_positions``) and gives each row one term, an outer variable
    or a constant, at pos(P) in every atom of the row. Every ground clause
    and atom then belongs to the slice of the one constant at its separator
    positions, and slices share no atom (Beame et al. 2015). The slice of c
    binds each separator to c and drops its argument: blocks of arity one
    less under the same names, which stay distinct; an evidence row, whose
    separator is a constant, joins that constant's slice only. No block may
    be nullary or asked, and at most one row is asked, with a constant for
    its separator.

    Permuting the constants that the unasked rows do not name maps one
    slice to another, so one such generic slice is counted and raised to
    their number. The asked row's slice gives the pair; when its constant is
    generic, its count without the query stands for the others. Nothing is
    divided: a Skolem atom's free factor 1 + (-1) is 0.
    """
    for sig, _, asked in blocks:
        if not sig.arity or asked:
            return None
    if not all(row[0] for row in rows) or sum(row[2] for row in rows) > 1:
        return None
    pos = _positions([_separator_options(lits, inner, asked) for lits, inner, asked in rows])
    if pos is None or any(sig not in pos for sig, _, _ in blocks):
        return None
    renamed = {sig: PredicateSig(sig.name, sig.arity - 1) for sig, _, _ in blocks}
    sliced = [(renamed[sig], pair, False) for sig, pair, _ in blocks]
    seps = [lits[0][0].args[pos[lits[0][0].pred]] for lits, _, _ in rows]

    def slice_count(c: Constant):
        kept = [([(Atom(renamed[a.pred], tuple(c if arg == sep else arg for i, arg in enumerate(a.args)
                                               if i != pos[a.pred])), positive)
                  for a, positive in lits], inner, asked)
                for (lits, inner, asked), sep in zip(rows, seps)
                if sep == c or not isinstance(sep, Constant)]
        return _count(kept, sliced, constants, len(kept) == len(rows))

    ask = next((sep for row, sep in zip(rows, seps) if row[2]), None)
    if ask is not None:
        pair = slice_count(ask)
    named = {arg for lits, _, asked in rows if not asked
             for a, _ in lits for arg in a.args if isinstance(arg, Constant)}
    total = 1
    for c in constants:
        if c in named and c != ask:
            total = total * slice_count(c)
    generic = [c for c in constants if c not in named]
    if ask in generic:  # the asked slice without the query stands for the others
        total = total * pair[1] ** (len(generic) - 1)
    elif generic:
        total = total * slice_count(generic[0]) ** len(generic)
    return total if ask is None else (total * pair[0], total * pair[1])


def _separator_options(lits, inner, constant: bool) -> list:
    """The ways a clause can be separated, one per term that is in every
    atom and is not an inner variable (only constants, if ``constant``):
    per predicate, the positions at which the term sits in every atom of
    that predicate. A term that leaves some predicate no position is no
    option."""
    terms = None
    for a, _ in lits:
        held = {arg for arg in a.args if isinstance(arg, Constant)
                or not constant and arg.name not in inner}
        terms = held if terms is None else terms & held
    options = []
    for term in sorted(terms, key=lambda t: (type(t).__name__, t.name)):
        need: dict[PredicateSig, frozenset[int]] = {}
        for a, _ in lits:
            at = frozenset(i for i, arg in enumerate(a.args) if arg == term)
            need[a.pred] = need.get(a.pred, at) & at
        if all(need.values()):
            options.append(tuple(need.items()))
    return options


def _positions(options: list) -> dict | None:
    """One position per predicate such that each clause has an option, a
    tuple of (predicate, allowed positions), that allows every one of its
    predicates its position; None when the search finds no such choice.

    A depth-first search over the clauses, those with the fewest options
    first, on an explicit stack. Clauses with one option do not branch; a
    choice that leaves a later clause no option is undone, and after
    ``_SEPARATOR_BACKTRACKS`` such dead ends the search gives up.
    """
    order = sorted(dict.fromkeys(map(tuple, options)), key=len)
    allowed: dict = {}
    stack = []  # per chosen clause: (allowed before it, its options left)
    left = None  # the options of the next clause not yet tried
    dead_ends = 0
    while len(stack) < len(order):
        if left is None:
            left = iter(order[len(stack)])
        for option in left:
            narrowed = _narrowed(allowed, option)
            if narrowed is not None:
                stack.append((allowed, left))
                allowed, left = narrowed, None
                break
        else:
            dead_ends += 1
            if not stack or dead_ends > _SEPARATOR_BACKTRACKS:
                return None
            allowed, left = stack.pop()
    return {sig: min(at) for sig, at in allowed.items()}


def _narrowed(allowed: dict, option) -> dict | None:
    """``allowed`` with each predicate's positions cut to the option's, or
    None when that leaves a predicate none."""
    out = dict(allowed)
    for sig, at in option:
        at = out.get(sig, at) & at
        if not at:
            return None
        out[sig] = at
    return out
