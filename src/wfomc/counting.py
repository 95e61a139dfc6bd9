"""Exact weighted model counting of ground problems.

``ENGINES`` maps each engine's name to the function that runs it, and
``wfomc`` looks the name up there; the CLI's ``--engine`` reads the same
table. It holds two engines, ``brute`` and ``dpll``, over two counters:

  * ``wmc_bruteforce`` enumerates truth assignments with the block kernels
    from ``_kernels`` and sums exact per-assignment weight products. This is
    the semantic reference for everything else in the package. It is the
    only user of numpy, which its functions import on first use, so that
    the rest of the package loads and counts without it.
  * ``wmc_dpll`` is an exhaustive search over CNF with unit propagation,
    connected-component decomposition and symmetric component caching:
    a component's count is cached under its clauses with the domain
    constants renamed canonically, so components that differ only by a
    permutation of the constants (as the components of a universal theory
    often do) are searched once. The search runs on an explicit stack, so
    its depth never meets Python's recursion limit.

DPLL counts clauses, and ``tseitin_ground`` makes them at the first-order
level: a sentence that reads as one clause, disjunctive quantifiers
included, is instantiated from the Herbrand base layout; the others are
Skolemized (the source paper's count-preserving step) and clausified before
they are instantiated (``transform.clause_form``). No ground formula is built, and every atom, Skolem
and definition atoms included, lies in the base layout, so the symmetric
cache can rename all of them.

``wfomc(t, d, engine, query=q)`` returns the pair (count of t ∧ q, count of
t) that a probability query needs. Brute force counts the two independently.
DPLL puts the theory in clause form and searches it once, then puts the
query in clause form over the theory's, conditions it on the theory's
top-level unit assignment and counts again only the components the query
touches, with the same memo.

Every count is an exact rational: ``ground`` turns each predicate's weight
pair (one per base block) into ``Fraction``s, so a float weight counts as
its exact binary value. Skolem weights (1, -1) make counts alternating
sums, which floats would cancel to noise. Negative weights flow through
both engines unchanged.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat

from .errors import CapExceededError, WfomcError
from .grounding import (
    GroundProblem,
    HerbrandBase,
    check_constants,
    clause_instances,
    ground,
    herbrand_base,
)
from .logic import (
    And,
    Atom,
    Domain,
    FalseF,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TrueF,
    WeightedTheory,
    children,
    constants,
    free_vars,
    predicates,
)
from .transform import clause_form, clause_walk

DEFAULT_MAX_ATOMS = 26
_BLOCK_BITS = 18  # assignments are enumerated in blocks of 2**_BLOCK_BITS
_INT64_SAFE = 1 << 62


def max_atoms_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("WFOMC_MAX_ATOMS", "").strip()
    if not env:
        return DEFAULT_MAX_ATOMS
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise WfomcError(f"WFOMC_MAX_ATOMS must be a non-negative integer, not {env!r}")
    return cap


# ---------------------------------------------------------------------------
# Formula compilation


@dataclass(frozen=True)
class Program:
    ops: np.ndarray
    args: np.ndarray
    stack_need: int
    atoms: tuple[int, ...]  # base index per bit position


def compile_program(formula: Formula, base: HerbrandBase) -> Program:
    """Flatten a ground formula into postfix instructions over atom bits."""
    import numpy as np

    from . import _kernels as K

    used: list[int] = []  # base index per bit
    bit_of: dict[Atom, int] = {}
    ops: list[int] = []
    args: list[int] = []
    binary = {And: K.OP_AND, Or: K.OP_OR, Implies: K.OP_IMP, Iff: K.OP_IFF}

    def emit(f: Formula) -> int:  # returns stack need of the subtree
        if isinstance(f, Atom):
            bit = bit_of.get(f)
            if bit is None:
                bit = bit_of[f] = len(used)
                used.append(base.atom_index(f))
            ops.append(K.OP_LOAD)
            args.append(bit)
            return 1
        if isinstance(f, TrueF):
            ops.append(K.OP_TRUE)
            args.append(0)
            return 1
        if isinstance(f, FalseF):
            ops.append(K.OP_FALSE)
            args.append(0)
            return 1
        if isinstance(f, Not):
            need = emit(f.body)
            ops.append(K.OP_NOT)
            args.append(0)
            return need
        op = binary.get(type(f))
        if op is None:
            raise WfomcError(f"quantifier in ground formula: {type(f).__name__}")
        first, *rest = children(f)
        need = emit(first)
        for g in rest:  # a chain of k operands is k-1 binary ops
            need = max(need, 1 + emit(g))
            ops.append(op)
            args.append(0)
        return need

    need = emit(formula)
    return Program(
        np.asarray(ops, dtype=np.int8),
        np.asarray(args, dtype=np.int64),
        need,
        tuple(used),
    )


# ---------------------------------------------------------------------------
# Brute-force engine


def wmc_bruteforce(g: GroundProblem, cap: int | None = None) -> Fraction:
    """Sum of weight products over all satisfying assignments of the base."""
    _check_brute_cap(len(g.base), cap)
    prog = compile_program(g.formula, g.base)
    m = len(prog.atoms)
    used = set(prog.atoms)
    weights = g.atom_weights

    # Atoms the formula never mentions contribute an independent (wt + wf)
    # factor each; enumeration only runs over the mentioned atoms.
    free = Fraction(1)
    for i, (wt, wf) in enumerate(weights):
        if i not in used:
            free = free * (wt + wf)

    used_weights = [weights[i] for i in prog.atoms]
    unit = all(wt == 1 and wf == 1 for wt, wf in used_weights)

    total, den = _sum_exact(prog, used_weights, m, unit)
    return Fraction(total, den) * free * g.scalar


def _check_brute_cap(n: int, cap: int | None):
    limit = max_atoms_cap(cap)
    if n > limit:
        raise CapExceededError(
            f"Herbrand base has {n} atoms, above the brute-force cap {limit}; "
            "use the dpll engine (--engine dpll) or raise WFOMC_MAX_ATOMS"
        )


def _blocks(m: int):
    # The kernels evaluate 64 assignments per uint64 word and take only
    # word-aligned starts, so _BLOCK_BITS is at least 6; a base of m < 6
    # atoms is one block.
    step = 1 << min(m, _BLOCK_BITS)
    for start in range(0, 1 << m, step):
        yield start, step


def _sum_exact(prog: Program, weights, m: int, unit: bool) -> tuple[int, int]:
    import numpy as np

    from . import _kernels as K

    if unit:
        sat = 0
        for start, count in _blocks(m):
            words = K.satisfying_words(prog.ops, prog.args, prog.stack_need,
                                       start, count)
            sat += K.popcount(words, count)
        return sat, 1

    # Clear denominators once: each assignment weight becomes an integer
    # product of per-atom numerators over a constant common denominator.
    nums_t, nums_f, den = [], [], 1
    for wt, wf in weights:
        d = math.lcm(wt.denominator, wf.denominator)
        nums_t.append(int(wt * d))
        nums_f.append(int(wf * d))
        den *= d

    k = m // 2
    low = _weight_table(nums_t[:k], nums_f[:k])
    high = _weight_table(nums_t[k:], nums_f[k:])
    # Every table entry and every product is at most the bound, also when
    # one table is all zeros. Below 2**62 the products are added in int64
    # segments whose sums stay below 2**62; past it, as Python ints in one.
    bound = max(1, *map(abs, low)) * max(1, *map(abs, high))
    if bound < _INT64_SAFE:
        dtype, segment = np.int64, _INT64_SAFE // bound
    else:
        dtype, segment = object, 1 << m
    low_a = np.asarray(low, dtype=dtype)
    high_a = np.asarray(high, dtype=dtype)
    low_mask = (1 << k) - 1

    total = 0
    for start, count in _blocks(m):
        mask = K.satisfying_mask(prog.ops, prog.args, prog.stack_need,
                                 start, count)
        idx = np.arange(start, start + count, dtype=np.int64)[mask.view(np.bool_)]
        vals = low_a[idx & low_mask] * high_a[idx >> k]
        total += sum(np.add.reduceat(vals, np.arange(0, vals.size, segment)).tolist())
    return total, den


def _weight_table(nums_t: list, nums_f: list) -> list:
    """table[b] = product over atoms i of (t_i if bit i of b else f_i)."""
    table = [1]
    for t, f in zip(nums_t, nums_f):
        table = [w * f for w in table] + [w * t for w in table]
    return table


# ---------------------------------------------------------------------------
# Model enumeration (test-scale helper)


def weighted_models(g: GroundProblem, cap: int = 20):
    """Yield (bits, weight) for every satisfying assignment of the full base.

    ``bits[i]`` is the truth value of ``g.base.atoms[i]``. Intended for
    small instances only.
    """
    import numpy as np

    from . import _kernels as K

    n = len(g.base)
    if n > cap:
        raise CapExceededError(f"{n} atoms is too many to enumerate models")
    prog = compile_program(g.formula, g.base)
    # Bit i of an assignment is base atom i: loads read base indices.
    args = np.asarray([prog.atoms[a] if op == K.OP_LOAD else 0
                       for op, a in zip(prog.ops, prog.args)], dtype=np.int64)
    mask = K.satisfying_mask(prog.ops, args, prog.stack_need, 0, 1 << n)
    weights = g.atom_weights
    for a in np.nonzero(mask)[0].tolist():
        bits = tuple((a >> i) & 1 for i in range(n))
        w = Fraction(1)
        for b, (wt, wf) in zip(bits, weights):
            w = w * (wt if b else wf)
        yield bits, w * g.scalar


# ---------------------------------------------------------------------------
# Clause form


def _add_instances(lits, inner, base: HerbrandBase, clauses: dict):
    """Add the ground instances of a clause to ``clauses``, numbered from
    the base layout. Instances that are tautologies are dropped; a clause
    without literals is the empty clause (the domain is never empty)."""
    if not lits:
        clauses[frozenset()] = None
        return
    instances = clause_instances(lits, base, inner)
    positive = {a.pred for a, pos in lits if pos}
    if any(not pos and a.pred in positive for a, pos in lits):
        for inst in instances:  # some instance may be a tautology
            c = frozenset(inst)
            if not any(-l in c for l in c):
                clauses[c] = None
    else:
        clauses.update(dict.fromkeys(map(frozenset, instances)))


def _clause_tuple(clauses: dict) -> tuple[frozenset[int], ...]:
    """The clauses, or only the empty clause when they hold it."""
    return (frozenset(),) if frozenset() in clauses else tuple(clauses)


def clauses_of(g: GroundProblem) -> list[frozenset[int]] | None:
    """Clause view of a ground problem, or None unless every sentence reads
    as one clause.

    A problem in clause form (``tseitin_ground``'s output) returns its
    clauses. Otherwise each sentence's instances are numbered from the base
    layout, and no ground formula is built: tautological and repeated
    clauses are dropped, and a false clause leaves the single empty clause.
    """
    if g.clauses is not None:
        return list(g.clauses)
    clauses: dict[frozenset[int], None] = {}
    for s in g.sentences:
        walked = clause_walk(s)
        if walked is None:
            return None
        if walked is not True:
            _add_instances(*walked, g.base, clauses)
    return list(_clause_tuple(clauses))


def tseitin_ground(g: GroundProblem) -> GroundProblem:
    """Clause form of a ground problem, with the same weighted count.

    A problem already in clause form is returned as it is. The sentences
    are put in clause form at the first-order level
    (``transform.clause_form``), and each clause's instances are numbered
    from the base layout, without a ground formula. The predicates that
    clause form adds (Skolem predicates and definitions) get names fresh
    against every predicate of the base and blocks laid out after its own,
    so a query encoded over a theory's clause form gets its predicates
    numbered after the theory's.
    """
    if g.clauses is not None:
        return g
    form, added = clause_form(g.sentences, [sig for sig, _ in g.base.blocks])
    base = g.base.appended(sig for sig, _ in added)
    clauses: dict[frozenset[int], None] = {}
    for lits, inner in form:
        _add_instances(lits, inner, base, clauses)
    weights = g.weights + tuple(pair for _, pair in added)
    return GroundProblem(base, weights, g.scalar, clauses=_clause_tuple(clauses))


# ---------------------------------------------------------------------------
# DPLL engine


def wmc_dpll(g: GroundProblem, query: GroundProblem | None = None):
    """Component-caching DPLL count; requires a problem in clause form, or
    one whose sentences each read as one clause (``clauses_of``).

    Given ``query``, clauses over ``g``'s base extended by blocks for the
    query's own predicates (``tseitin_ground`` of the query's sentences over
    the clause form of ``g``), returns the pair (count of g ∧ query, count of g)
    from one search. The count of ``g`` is kept in parts: its top-level unit
    assignment and its residual components. The query's clauses are reduced
    by that assignment and merged with the components they share an atom
    with, and only the merged set is counted again, with the same memo
    (``_DpllCounter.conditioned``).
    """
    clauses = clauses_of(g)
    query_clauses = () if query is None else clauses_of(query)
    if clauses is None or query_clauses is None:
        raise WfomcError("wmc_dpll needs a CNF ground formula; "
                         "convert with tseitin_ground first")
    counter = _DpllCounter(g if query is None else query)
    current = frozenset(clauses)
    atoms = set(map(abs, frozenset().union(*current)))
    top = None if frozenset() in current else counter._propagate(current, atoms, _units(current))
    components = []  # (clauses, atoms, count) per top-level component
    if top is None:
        total = 0
    else:
        total, residual, rest, _ = top
        for comp in _components(residual, rest) if residual else ():
            count = counter._search([comp])
            components.append((*comp, count))
            total = total * count
    total = counter.times_free(total, atoms, len(g.base))
    if query is None:
        return counter.value(total)
    with_query = counter.conditioned(top, components, query_clauses, len(query.base))
    return counter.value(with_query), counter.value(total)


class _DpllCounter:
    """Weighted counts of clause sets, each over the atoms it mentions.

    Atoms are numbered from 1 and literals are signed atom numbers. Each
    block's weight pair is scaled by the lcm of its denominators once, so
    the search multiplies Python ints and ``value`` divides a final total by
    ``den``, the product of those scales over every atom of the base.

    The memo is keyed by each component's clauses up to a renaming of the
    domain constants (``_key``), so components that differ only by such a
    renaming share one count. What the key reads about atoms depends only
    on the base layout (``_KeyTables``), and counters over one layout of at
    most ``_KEY_TABLES_MAX_ATOMS`` atoms share it through a cache of the
    ``_KEY_TABLES_MAX`` layouts used last; the memo holds counts, which
    depend on the weights, and stays with the counter.
    """

    def __init__(self, g: GroundProblem):
        base = g.base
        n = len(base)
        # lit_w[l] is the weight of literal l; a negative index counts from
        # the end, so both signs fit in one list of 2n + 1 slots.
        self.lit_w = [None] * (2 * n + 1)
        self.free = [None] * (n + 1)  # free[a] = wt + wf of atom a
        self.den = 1
        self.scalar = g.scalar
        for (sig, first), (wt, wf) in zip(base.blocks, g.weights):
            k = base.block_length(sig.arity)
            d = math.lcm(wt.denominator, wf.denominator)
            wt, wf = int(wt * d), int(wf * d)
            self.den *= d ** k
            self.lit_w[first + 1:first + 1 + k] = [wt] * k
            self.lit_w[2 * n + 1 - first - k:2 * n + 1 - first] = [wf] * k
            self.free[first + 1:first + 1 + k] = [wt + wf] * k
        layout = len(base.constants), tuple((sig.arity, first) for sig, first in base.blocks)
        self.tables = (_key_tables if n <= _KEY_TABLES_MAX_ATOMS else _KeyTables)(*layout)
        self.memo: dict[frozenset, int] = {}

    def value(self, total: int) -> Fraction:
        """A search total as a count: unscaled, times the problem's scalar."""
        return Fraction(total, self.den) * self.scalar

    def times_free(self, total: int, covered: set, n: int) -> int:
        """``total`` times the free factor of each atom 1..n not in ``covered``."""
        free = self.free
        for a in range(1, n + 1):
            if a not in covered:
                total = total * free[a]
        return total

    def conditioned(self, top, components, query_clauses, n: int):
        """Count of the theory's clauses and ``query_clauses`` over atoms
        1..n, from the theory's top-level parts as ``wmc_dpll`` keeps them.

        ``top`` is the theory's top-level propagation (None when the
        theory has no model). Its assigned literals U hold in every model,
        so the query's clauses that U satisfies drop out and the others are
        counted with U assigned; a clause that U empties leaves no model.
        With Q the atoms of the reduced query, the count is the weight of
        U, times the count of each component that shares no atom with Q,
        times the count of the reduced query merged with the other
        components, times the free factor of every atom that none of these
        mentions. It is built from parts, never by dividing the theory's
        count: an atom's free factor wt + wf can be 0 (the Skolem weights
        (1, -1)).
        """
        if top is None or frozenset() in query_clauses:
            return 0
        _, _, rest, units = top
        live = [c for c in query_clauses if c.isdisjoint(units)]
        mentioned = set(map(abs, frozenset().union(*live)))
        assigned = set(map(abs, units))
        query_atoms = mentioned - assigned
        merged = set(live)
        total = 1
        for clauses, atoms, count in components:
            if atoms.isdisjoint(query_atoms):
                total = total * count
            else:
                merged |= clauses
                mentioned |= atoms
        total = total * self.count(frozenset(merged), mentioned, units | _units(live))
        return self.times_free(total, rest | mentioned | assigned, n)

    def count(self, clauses: frozenset, atoms: set, lits: set):
        """Count of a clause set without empty clauses, times the weight of
        ``lits``, under the conditions of ``_propagate``."""
        reduced = self._propagate(clauses, atoms, lits)
        if reduced is None:
            return 0
        factor, residual, rest, _ = reduced
        return factor * self._search(_components(residual, rest)) if residual else factor

    def _propagate(self, clauses, atoms: set, lits: set):
        """Assign ``lits``, then each unit clause that arises, in one scan
        of the clauses per round.

        ``atoms`` are exactly the atoms of ``clauses``, and ``lits`` hold
        the literal of every unit clause among them. A round drops the
        clauses its literals satisfy, removes their complements from the
        others and collects the clauses left with one literal as the next
        round's literals. Returns (factor, residual clauses, their atoms,
        assigned literals), where the factor weighs the assigned literals
        and the atoms that the residual no longer mentions, or None when
        two literals to assign conflict or a clause loses all its literals.
        """
        lit_w = self.lit_w
        factor = 1
        assigned = set()
        while lits:
            negs = {-l for l in lits}
            if not negs.isdisjoint(lits):
                return None
            assigned |= lits
            for l in lits:
                factor = factor * lit_w[l]
            touched = lits | negs
            units = set()
            kept = []
            for c in clauses:
                if c.isdisjoint(touched):
                    kept.append(c)
                elif c.isdisjoint(lits):
                    c = c - negs
                    if len(c) > 1:
                        kept.append(c)
                    elif c:
                        units |= c  # assigned next round, which satisfies it
                    else:
                        return None
            clauses, lits = kept, units
        if not assigned:
            return factor, clauses, atoms, assigned
        residual = frozenset(clauses)
        left = set(map(abs, frozenset().union(*residual)))
        dropped = atoms - left
        dropped.difference_update(map(abs, assigned))
        free = self.free
        for a in dropped:
            factor = factor * free[a]
        return factor, residual, left, assigned

    def _search(self, components) -> int:
        """Product of the counts of connected clause sets without unit or
        empty clauses, given as (clauses, atoms) pairs.

        A lone clause is counted in closed form. Any other component's
        literal occurrences are counted once; they give its memo key
        (``_key``) and, on a miss, its branch atom (``_branch_atom``), so
        the node is searched. Each phase is propagated at once, and the
        phases that do not conflict wait on an explicit stack, so no Python
        call nests per decision. A frame is [memo key, total, phases], with
        one [factor, pending components] per phase, the current one last.
        Each finished component multiplies into the current phase of the
        frame below it; a frame whose phases are all done stores its total.
        """
        memo = self.memo
        stack = [[None, 0, [[1, list(reversed(components))]]]]
        while True:
            frame = stack[-1]
            phase = frame[2][-1]
            if phase[1]:
                clauses, atoms = phase[1].pop()
                if len(clauses) == 1:
                    phase[0] = phase[0] * self._lone_clause(next(iter(clauses)))
                    continue
                occurrences = Counter(chain.from_iterable(clauses))
                key = self._key(clauses, atoms, occurrences)
                count = memo.get(key)
                if count is None:
                    a = _branch_atom(occurrences)
                    phases = []
                    for branch in (-a, a):  # the last phase is searched first
                        reduced = self._propagate(clauses, atoms, {branch})
                        if reduced is not None:
                            factor, residual, rest, _ = reduced
                            pending = _components(residual, rest)[::-1] if residual else []
                            phases.append([factor, pending])
                    if phases:
                        stack.append([key, 0, phases])
                        continue
                    count = memo[key] = 0
                phase[0] = phase[0] * count
                continue
            frame[1] = frame[1] + phase[0]
            frame[2].pop()
            if frame[2]:
                continue
            stack.pop()
            if not stack:
                return frame[1]
            memo[frame[0]] = frame[1]
            below = stack[-1][2][-1]
            below[0] = below[0] * frame[1]

    def _lone_clause(self, clause: frozenset):
        """Count of one clause over its own atoms, in closed form.

        The clause is false under exactly one assignment of its atoms. This
        keeps the search depth from growing with the clause length
        (`exists y R(y)` grounds to one clause with a literal per constant).
        """
        total = falsified = 1
        for l in clause:
            total = total * self.free[abs(l)]
            falsified = falsified * self.lit_w[-l]
        return total - falsified

    def _key(self, clauses: frozenset, atoms: set, occurrences: Counter) -> frozenset:
        """The clauses with the domain constants renamed canonically.

        Each constant gets a signature: a sum over its occurrences, counted
        per literal in ``occurrences``, of a feature of (block, argument
        position, sign), which no order of the constants changes. Constants
        are renumbered 0, 1, ... by (signature, position), and every atom
        is renumbered by the base layout (``_KeyTables``), definition and
        Skolem atoms included (a nullary atom keeps its number). All atoms
        of a block weigh the same, so two clause sets with one key differ
        by a weight-preserving bijection on atoms, and have one count,
        whatever the signatures are: weak signatures cost only hits.
        """
        tables = self.tables
        features = tables.features
        signature: defaultdict[int, int] = defaultdict(int)
        for l, k in occurrences.items():
            terms = features.get(l)
            if terms is None:
                terms = tables.decode(l)
            for const, f in terms:
                signature[const] += f * k
        # Sorting (signature, constant) pairs orders the constants by
        # signature, ties by position.
        rank = {const: i for i, (_, const) in enumerate(sorted(zip(signature.values(), signature)))}
        layout = tables.layout
        renamed = {}
        for a in atoms:
            new, terms = layout[a]
            for const, stride in terms:
                new += rank[const] * stride
            renamed[a] = new
            renamed[-a] = -new
        return frozenset(map(frozenset, map(map, repeat(renamed.__getitem__), clauses)))


class _KeyTables:
    """What ``_DpllCounter._key`` reads about the atoms of a base layout,
    filled per atom on first use (``decode``).

    A layout is the number of constants ``n`` and (arity, first index) per
    block, so predicate names and weights do not change the tables.
    ``layout[a]`` is (a's number with every constant at position 0, one
    (constant position, stride) per argument), and ``features[l]`` one
    (constant position, feature) per argument of the atom of literal l.
    """

    def __init__(self, n: int, blocks: tuple[tuple[int, int], ...]):
        self.n = n
        self.firsts = [first for _, first in blocks]
        # Per block: its first atom, argument strides, and per argument the
        # feature of a positive and of a negative literal.
        self.blocks = [(first + 1, tuple(n ** (arity - 1 - j) for j in range(arity)),
                        tuple(_mix(first, j, 1) for j in range(arity)),
                        tuple(_mix(first, j, -1) for j in range(arity)))
                       for arity, first in blocks]
        self.layout: dict[int, tuple] = {}
        self.features: dict[int, tuple] = {}

    def decode(self, l: int) -> tuple:
        """Fill ``layout`` and ``features`` for the atom of literal ``l``
        and return ``features[l]``."""
        a = abs(l)
        first, strides, positive, negative = self.blocks[bisect_right(self.firsts, a - 1) - 1]
        n, offset = self.n, a - first
        consts = [offset // stride % n for stride in strides]
        self.layout[a] = (first, tuple(zip(consts, strides)))
        self.features[a] = tuple(zip(consts, positive))
        self.features[-a] = tuple(zip(consts, negative))
        return self.features[l]


_KEY_TABLES_MAX = 8  # base layouts whose key tables are kept
_KEY_TABLES_MAX_ATOMS = 1 << 12  # the tables of a base with more atoms are not kept
_key_tables = lru_cache(maxsize=_KEY_TABLES_MAX)(_KeyTables)


def _mix(*xs: int) -> int:
    """A fixed non-negative pseudo-random integer for a tuple of ints."""
    return hash(xs) & ((1 << 61) - 1)


def _units(clauses) -> set[int]:
    """The literals of the unit clauses."""
    return {l for c in clauses if len(c) == 1 for l in c}


def _components(clauses: frozenset, atoms: set[int]) -> list[tuple[frozenset, set[int]]]:
    """Connected components as (clauses, atoms) pairs; ``atoms`` are the
    atoms the clauses mention.

    A union-find over the atoms, with path halving done inline: the search
    calls this at every node, and a call per literal would cost more than
    the rest of the loop. It stops as soon as one component holds every
    atom.
    """
    parent = {a: a for a in atoms}
    roots = len(atoms)
    for c in clauses:
        first = 0
        for l in c:
            x = l if l > 0 else -l
            p = parent[x]
            while p != x:  # path halving
                g = parent[p]
                parent[x] = g
                x, p = g, parent[g]
            if not first:
                first = x
            elif x != first:
                parent[x] = first
                roots -= 1
        if roots == 1:
            return [(clauses, atoms)]
    root_of: dict[int, int] = {}
    members: dict[int, set[int]] = {}
    for a in atoms:
        x = a
        while parent[x] != x:
            x = parent[x]
        root_of[a] = x
        members.setdefault(x, set()).add(a)
    groups: dict[int, list] = {}
    for c in clauses:
        groups.setdefault(root_of[abs(next(iter(c)))], []).append(c)
    return [(frozenset(g), members[root]) for root, g in groups.items()]


def _branch_atom(occurrences: Counter) -> int:
    """Atom with the most occurrences, given per literal, the lowest on ties."""
    best = most = 0
    get = occurrences.get
    for l, k in occurrences.items():
        a = l if l > 0 else -l
        k += get(-l, 0)
        if k > most or k == most and a < best:
            best, most = a, k
    return best


# ---------------------------------------------------------------------------
# Top-level counting


def _brute(t: WeightedTheory, d: Domain, cap: int | None, query: Formula | None):
    """Ground t once and count by enumeration, the query joining t's
    sentences for the first of the two counts."""
    # The Herbrand base's layout gives its size before any atom, so the cap
    # is checked before ``ground``, which computes the scale factor
    # base ** n**k first: `scale 3 2` at n = 100000 would raise 3 to 10^10.
    _check_brute_cap(len(herbrand_base(t, d)), cap)
    g = ground(t, d)
    if query is None:
        return wmc_bruteforce(g, cap=cap)
    with_query = replace(g, sentences=g.sentences + (query,))
    return wmc_bruteforce(with_query, cap=cap), wmc_bruteforce(g, cap=cap)


def _dpll(t: WeightedTheory, d: Domain, cap: int | None, query: Formula | None):
    """Put t's sentences in clause form and then the query's over it, and
    answer both counts from one search. ``cap`` bounds brute force only."""
    theory = tseitin_ground(ground(t, d))
    if query is None:
        return wmc_dpll(theory)
    # The query's own predicates are laid out after the theory's.
    encoded = tseitin_ground(replace(theory, clauses=None, sentences=(query,)))
    return wmc_dpll(theory, encoded)


# Every engine, by name: ``engine(t, d, cap, query)`` returns the count of t,
# or with a query the pair (count of t ∧ query, count of t). An engine calls
# ``ground`` and the counters through this module's globals, never through
# references it holds, so that a wrapper set on those globals sees each call.
ENGINES = {"brute": _brute, "dpll": _dpll}
DEFAULT_ENGINE = "brute"


def wfomc(t: WeightedTheory, d: Domain, engine: str = DEFAULT_ENGINE,
          cap: int | None = None, query: Formula | None = None):
    """Weighted first-order model count of the theory over the domain, by
    the engine of that name in ``ENGINES``.

    Given a query sentence over the theory's predicates and the domain's
    constants, returns the pair (count of t ∧ query, count of t). Brute
    force makes the two counts independently; DPLL answers both from one
    search.
    """
    if query is not None:
        _check_query(t, d, query)
    count = ENGINES.get(engine)
    if count is None:
        names = ", ".join(map(repr, ENGINES))
        raise WfomcError(f"unknown engine {engine!r} (expected one of {names})")
    return count(t, d, cap, query)


def _check_query(t: WeightedTheory, d: Domain, query: Formula):
    """Raise unless ``query`` is a sentence over t's predicates, with their
    arities, and d's constants. Since its predicates are t's, t's base is
    the base of t ∧ query, and t's sentences need no second check."""
    free = free_vars(query)
    if free:
        raise WfomcError(f"query has free variable(s) {sorted(free)}")
    arity = {sig.name: sig.arity for sig in t.predicates()}
    used = predicates(query)
    for sig in used:
        if arity.get(sig.name, sig.arity) != sig.arity:
            raise WfomcError(f"predicate {sig.name} used with arities "
                             f"{arity[sig.name]} and {sig.arity}")
    missing = sorted({sig.name for sig in used} - set(arity))
    if missing:
        raise WfomcError(f"query predicate(s) {missing} not in the theory")
    check_constants(constants(query), d, "the query")


# ---------------------------------------------------------------------------
# DIMACS-style export


def export_dimacs(g: GroundProblem) -> str:
    """CNF in DIMACS format with `c wght <lit> <weight>` comment lines."""
    clauses = clauses_of(g)
    if clauses is None:
        raise WfomcError("export_dimacs needs a CNF ground formula")
    lines = [f"p cnf {len(g.base)} {len(clauses)}"]
    for i, (a, (wt, wf)) in enumerate(zip(g.base.atoms, g.atom_weights)):
        lines.append(f"c atom {i + 1} {a.pred.name}"
                     + ("(" + ",".join(t.name for t in a.args) + ")" if a.args else ""))
        lines.append(f"c wght {i + 1} {wt.numerator}/{wt.denominator}")
        lines.append(f"c wght {-(i + 1)} {wf.numerator}/{wf.denominator}")
    for c in clauses:
        lines.append(" ".join([*map(str, sorted(c, key=abs)), "0"]))
    return "\n".join(lines) + "\n"
