"""Exact weighted model counting of ground problems.

``ENGINES`` maps each engine's name to the function that runs it, and
``wfomc`` looks the name up there; the CLI's ``--engine`` reads the same
table. It holds two engines, ``brute`` and ``dpll``, over two counters:

  * ``wmc_bruteforce`` enumerates truth assignments with the block kernels
    from ``_kernels`` and sums exact per-assignment weight products. It
    compiles the grounder's hash-consed DAG (``GroundProblem.dag``) to one
    instruction per distinct node (``compile_program``), so a shared
    subformula or atom is evaluated once per block of assignments. This is
    the semantic reference for everything else in the package. It is the
    only user of numpy, which its functions import on first use, so that
    the rest of the package loads and counts without it.
  * ``wmc_dpll`` is an exhaustive search over CNF with unit propagation,
    connected-component decomposition and symmetric component caching:
    a component's count is cached under its clauses with the domain
    constants renamed canonically, so components that differ only by a
    permutation of the constants (as the components of a universal theory
    often do) are searched once. The search runs on an explicit stack, so
    its depth never meets Python's recursion limit. The memo of counts is
    per count, since counts depend on the weights; each component's memo
    key and branch atom do not, and are kept per base layout with a
    budget of clauses (``_KeyTables``), so a count that repeats a
    structure under other weights, as a weight sweep or learning loop
    does, computes no key. One routine makes every phase of the search,
    the root included (``_DpllCounter._phase``): it propagates the phase's
    literals (the root's unit clauses; a branch literal and the units its
    node's one partition leaves) and sorts the residual into components.
    Propagation scans only for units that some clause holds, indexes a
    long cascade's clauses by literal, so it stays linear in the cascade,
    and gives each atom that the phase drops its free factor, at the root
    each atom that no clause mentions too. A phase residual that the node
    table holds is known to be one component without a union-find. Each
    searched node splits its clauses once for both phases of its branch
    atom. The cyclic garbage collector is paused during the search.

Both counters, and ``export_dimacs``, take any ground problem: closed
sentences or clauses. ``wmc_dpll``, ``clauses_of`` and ``export_dimacs``
read clauses only through ``tseitin_ground``, which works at the
first-order level: a sentence that reads as one clause, disjunctive
quantifiers included, is kept as one row; the others are Skolemized (the
source paper's count-preserving step, so no theory is refused) and
clausified (``transform.clause_form``). ``grounding.clause_problem``, the
one builder of a clause problem, which ``lifted`` uses too, then
instantiates the rows from the Herbrand base layout. No ground formula is
built, and every atom, Skolem and definition atoms included, lies in the
base layout, so the symmetric cache can rename all of them.

The ``dpll`` engine is ``lifted.count``, lifted rules over the first-order
clause form (independent parts, the power rule) with ``wmc_dpll`` for what
no rule takes. ``wfomc(t, d, engine, query=q)`` returns the pair (count of
t ∧ q, count of t) that a probability query needs. Brute force counts the
two independently; ``lifted.count`` counts twice only the part or slice
that holds the query, by one ``wmc_dpll`` search with one memo.

Every count is an exact rational: ``ground`` turns each predicate's weight
pair (one per base block) into ``Fraction``s, so a float weight counts as
its exact binary value. Skolem weights (1, -1) make counts alternating
sums, which floats would cancel to noise. Negative weights flow through
both engines unchanged.
"""

from __future__ import annotations

import gc
import math
import os
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat

from .errors import CapExceededError, WfomcError
from . import lifted
from .grounding import (
    GroundDag,
    GroundProblem,
    check_constants,
    clause_problem,
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
    constants,
    free_vars,
    predicates,
)
from .transform import clause_form

DEFAULT_MAX_ATOMS = 26
_BLOCK_BITS = 18  # assignments are enumerated in blocks of 2**_BLOCK_BITS
_INT64_SAFE = 1 << 62
_SCAN_ROUNDS = 3  # propagation rounds that scan every clause before an index pays;
# a branch's own round is the node step's partition, and a round that no
# clause holds is not scanned, so neither counts


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
    """A ground DAG as instructions for ``_kernels.satisfying_words``: one
    per node reachable from the root, children first, the root last.

    Each instruction writes its node's array to a slot, ``slots[k]``, and
    ``args[k]`` holds the slots of its operands, or for a load the atom's
    bit; ``ops[k]`` is its opcode. A slot is given again only after the
    last instruction that reads its node, so the slots number the
    program's width: the most nodes live at once, each instruction's own
    included. The evaluator holds one array per slot. ``atoms`` is the base
    index per bit.
    """

    ops: tuple[int, ...]
    args: tuple[tuple[int, ...], ...]
    slots: tuple[int, ...]
    atoms: tuple[int, ...]


def compile_program(dag: GroundDag) -> Program:
    """One instruction per distinct node of a ground DAG reachable from its
    root, in node order; an n-ary ``And``/``Or`` is one instruction. Bits
    are numbered in order of the atoms' instructions.

    A backward pass finds each reachable node's last reader, the first
    reader it meets. The forward pass gives each instruction a slot, a
    spare one if there is one, and then gives back the slots of the
    operands it reads last, so it never writes over an operand.
    """
    from . import _kernels as K

    code = {And: K.OP_AND, Or: K.OP_OR, Not: K.OP_NOT, Implies: K.OP_IMP,
            Iff: K.OP_IFF, TrueF: K.OP_TRUE, FalseF: K.OP_FALSE}
    nodes = dag.nodes
    last = {dag.root: dag.root}  # per reachable node, its last reader
    for i in range(dag.root, -1, -1):
        if i in last and nodes[i][0] is not Atom:
            for j in nodes[i][1:]:
                if j not in last:
                    last[j] = i
    atoms: list[int] = []  # base index per bit
    ops: list[int] = []
    args: list[tuple[int, ...]] = []
    slots: list[int] = []
    slot: dict[int, int] = {}  # per node
    spare: list[int] = []  # slots given back
    width = 0
    for i in sorted(last):
        if spare:
            slot[i] = spare.pop()
        else:
            slot[i] = width
            width += 1
        slots.append(slot[i])
        node = nodes[i]
        if node[0] is Atom:
            ops.append(K.OP_LOAD)
            args.append((len(atoms),))
            atoms.append(node[1])
            continue
        ops.append(code[node[0]])
        args.append(tuple([slot[j] for j in node[1:]]))
        for j in node[1:]:
            if last[j] == i:
                last[j] = -1  # an operand read twice is given back once
                spare.append(slot[j])
    return Program(tuple(ops), tuple(args), tuple(slots), tuple(atoms))


# ---------------------------------------------------------------------------
# Brute-force engine


def wmc_bruteforce(g: GroundProblem, cap: int | None = None) -> Fraction:
    """Sum of weight products over all satisfying assignments of the base."""
    _check_brute_cap(len(g.base), cap)
    prog = compile_program(g.dag)
    base = g.base
    scaled, den = _scaled(g)
    firsts = [first for _, first in base.blocks]
    unused = [base.block_length(sig.arity) for sig, _ in base.blocks]
    weights = []  # per bit
    for i in prog.atoms:
        b = bisect_right(firsts, i) - 1
        unused[b] -= 1
        weights.append(scaled[b])

    # Atoms the formula never mentions contribute an independent (wt + wf)
    # factor each, one power per block; enumeration only runs over the
    # mentioned atoms.
    free = 1
    for (t, f), k in zip(scaled, unused):
        free *= (t + f) ** k
    total = _sum_exact(prog, weights) if free else 0
    return Fraction(total * free * g.scalar.numerator, den * g.scalar.denominator)


def _scaled(g: GroundProblem) -> tuple[list[tuple[int, int]], int]:
    """Each block's weight pair times the lcm of its denominators, as
    integers, and ``den``, the product of those scales over every atom of
    the base: each assignment's weight is an integer product over ``den``."""
    scaled, den = [], 1
    for (sig, _), (wt, wf) in zip(g.base.blocks, g.weights):
        d = math.lcm(wt.denominator, wf.denominator)
        scaled.append((wt.numerator * (d // wt.denominator), wf.numerator * (d // wf.denominator)))
        den *= d ** g.base.block_length(sig.arity)
    return scaled, den


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


def _sum_exact(prog: Program, weights: list[tuple[int, int]]) -> int:
    """Sum over the satisfying assignments of the program's atoms of the
    product of their integer weights, ``weights[bit]`` = (true, false)."""
    import numpy as np

    from . import _kernels as K

    m = len(prog.atoms)
    if all(w == (1, 1) for w in weights):
        sat = 0
        for start, count in _blocks(m):
            words = K.satisfying_words(prog.ops, prog.args, prog.slots, start, count)
            sat += K.popcount(words, count)
        return sat

    k = m // 2
    low = _weight_table(weights[:k])
    high = _weight_table(weights[k:])
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
        idx = np.flatnonzero(K.satisfying_mask(prog.ops, prog.args, prog.slots, start, count))
        idx += start  # the satisfying assignments
        vals = low_a[idx & low_mask]
        idx >>= k
        vals *= high_a[idx]
        total += sum(np.add.reduceat(vals, np.arange(0, vals.size, segment)).tolist())
    return total


def _weight_table(weights: list[tuple[int, int]]) -> list:
    """table[b] = product over atoms i of (t_i if bit i of b else f_i)."""
    table = [1]
    for t, f in weights:
        table = [w * f for w in table] + [w * t for w in table]
    return table


# ---------------------------------------------------------------------------
# Clause form


def clauses_of(g: GroundProblem) -> list[frozenset[int]]:
    """The clauses of a ground problem's clause form (``tseitin_ground``)."""
    return list(tseitin_ground(g).clauses)


def tseitin_ground(g: GroundProblem) -> GroundProblem:
    """Clause form of a ground problem, with the same weighted count, for
    the counters and ``export_dimacs``.

    A problem already in clause form is returned as it is. The sentences
    are put in clause form at the first-order level (``transform.
    clause_form``, with the base's predicates reserved), and each clause's
    instances are numbered from the base layout (``grounding.
    clause_problem``). The predicates that clause form adds (Skolem
    predicates and definitions) get fresh names and blocks after the
    base's, so a query encoded over a theory's clause form gets its
    predicates numbered after the theory's.
    """
    if g.clauses is not None:
        return g
    form, added = clause_form(g.sentences, [sig for sig, _ in g.base.blocks])
    return clause_problem(g.base, g.weights, g.scalar, form, added)


# ---------------------------------------------------------------------------
# DPLL engine


def wmc_dpll(g: GroundProblem, query: GroundProblem | None = None):
    """Component-caching DPLL count of any ground problem, over its clause
    form (``tseitin_ground``).

    Given ``query``, sentences over ``g``'s predicates and constants held
    as a problem over ``g``'s base, returns the pair (count of g ∧ query,
    count of g). The query is put in clause form over ``g``'s (a query in
    clause form must have been made so). One counter makes both counts, so
    the components that the query does not touch are memo hits the second
    time. The cyclic garbage collector is paused while it searches and
    left as it was found.
    """
    g = tseitin_ground(g)
    if query is not None and query.clauses is None:
        query = tseitin_ground(replace(g, clauses=None, sentences=query.sentences))
    clauses = clauses_of(g)
    counter = _DpllCounter(g if query is None else query)
    # The search allocates millions of frozensets and builds no reference
    # cycle, so the cyclic collector would only cost time (a fifth of a
    # first count of smokers at n=32).
    collecting = gc.isenabled()
    gc.disable()
    try:
        without = counter.value(counter.count(clauses, len(g.base)))
        if query is None:
            return without
        with_query = counter.count(clauses + clauses_of(query), len(query.base))
    finally:
        if collecting:
            gc.enable()
    return counter.value(with_query), without


class _DpllCounter:
    """Weighted counts of clause sets, each over the atoms it mentions.

    Atoms are numbered from 1 and literals are signed atom numbers. Each
    block's weight pair is scaled by the lcm of its denominators once
    (``_scaled``), so the search multiplies Python ints and ``value``
    divides a final total by ``den``, the product of those scales over
    every atom of the base.

    The memo is keyed by each component's clauses up to a renaming of the
    domain constants (``_key``), so components that differ only by such a
    renaming share one count. Everything about a search node but its count
    is weight-free: what the key reads about atoms, and each component's
    memo key and branch atom, depend only on its clauses and the base
    layout (the search trace of a decision-DNNF does not depend on the
    weights; Huang & Darwiche 2007). They live in ``_KeyTables``, and
    counters over one layout of at most ``_KEY_TABLES_MAX_ATOMS`` atoms
    share them through a cache of the ``_KEY_TABLES_MAX`` layouts used
    last, so a second count of one structure, under other weights or
    predicate names, computes no key. The memo holds counts, which depend
    on the weights, and stays with the counter. Propagation results are
    not kept; the nodes hold only components, so the search takes a phase
    residual that they hold as one component.
    """

    def __init__(self, g: GroundProblem):
        base = g.base
        n = len(base)
        # lit_w[l] is the weight of literal l; a negative index counts from
        # the end, so both signs fit in one list of 2n + 1 slots.
        self.lit_w = [None] * (2 * n + 1)
        self.free = [None] * (n + 1)  # free[a] = wt + wf of atom a
        scaled, self.den = _scaled(g)
        self.scalar = g.scalar
        for (sig, first), (wt, wf) in zip(base.blocks, scaled):
            k = base.block_length(sig.arity)
            self.lit_w[first + 1:first + 1 + k] = [wt] * k
            self.lit_w[2 * n + 1 - first - k:2 * n + 1 - first] = [wf] * k
            self.free[first + 1:first + 1 + k] = [wt + wf] * k
        layout = len(base.constants), tuple((sig.arity, first) for sig, first in base.blocks)
        self.tables = (_key_tables if n <= _KEY_TABLES_MAX_ATOMS else _KeyTables)(*layout)
        self.memo: dict[frozenset, int] = {}

    def value(self, total: int) -> Fraction:
        """A search total as a count: unscaled, times the problem's scalar."""
        return Fraction(total, self.den) * self.scalar

    def count(self, clauses, n: int) -> int:
        """Search total of a clause set over atoms 1..n: the root phase
        (``_phase``) with the unit clauses as its literals, then its
        search. An atom that no clause mentions is dropped by the root's
        propagation, which gives it its free factor."""
        clauses = frozenset(clauses)
        if frozenset() in clauses:
            return 0
        root = self._phase(clauses, set(range(1, n + 1)), _units(clauses), frozenset().union(*clauses))
        return 0 if root is None else self._search(root)

    def _phase(self, clauses, atoms: set, lits: set, held: frozenset):
        """One phase of the search: ``lits`` assigned and propagated over
        ``clauses`` (``_propagate``), and its residual sorted for the
        search. Returns [factor, pending components], or None on a
        conflict. A residual is nothing, one clause, one component that
        the node table holds (it holds only components), which rides with
        its node, or the parts that ``_components`` splits it into; a
        pending component is (clauses, atoms, node or None), the next to
        count last."""
        result = self._propagate(clauses, atoms, lits, held)
        if result is None:
            return None
        factor, residual, left = result
        if len(residual) > 1:
            node = self.tables.nodes.get(residual)
            if node is None:
                return [factor, [(c, s, None) for c, s in reversed(_components(residual, left))]]
            return [factor, [(residual, left, node)]]
        return [factor, [(residual, left, None)] if residual else []]

    def _propagate(self, clauses, atoms: set, lits: set, held: frozenset):
        """Assign ``lits``, then each unit clause that arises, round by
        round.

        ``atoms`` hold the atoms of ``clauses`` and ``lits``, and ``lits``
        the literal of every unit clause among them; ``held`` is the union
        of the clauses' literals. A round drops the clauses its literals
        satisfy, removes their complements from the others and collects
        the clauses left with one literal as the next round's literals.
        After a round that scans, ``held`` is the union of the literals of
        the clauses it kept; a round whose literals and their complements
        lie outside ``held`` touches no clause, so it assigns them without
        a scan and is the last (a branch literal, which no clause of its
        phase holds, is such a round when it comes alone). The first
        ``_SCAN_ROUNDS`` rounds that touch clauses scan every clause. A
        longer cascade indexes the clauses left by literal once, and each
        later round touches only the clauses its literals are in, so a
        chain of k units costs O(k) rather than O(k^2) (the literal
        occurrence lists of sharpSAT; Thurley 2006); ``held`` is then a
        superset, which keeps its test sound. Returns (factor, residual
        clauses, their atoms), where the factor weighs the assigned
        literals and the atoms of ``atoms`` that the residual no longer
        mentions, or None when two literals to assign conflict or a clause
        loses all its literals.
        """
        lit_w = self.lit_w
        factor = 1
        assigned = set()
        scans = 0
        occurs = None  # per literal, the positions of the clauses it is in
        while lits:
            negs = {-l for l in lits}
            if not negs.isdisjoint(lits):
                return None
            assigned |= lits
            for l in lits:
                factor = factor * lit_w[l]
            if held.isdisjoint(lits) and held.isdisjoint(negs):
                break  # no clause holds these atoms
            units = set()
            scans += 1
            if scans <= _SCAN_ROUNDS:
                touched = lits | negs
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
                held = frozenset().union(*kept)
                continue
            if occurs is None:  # a long cascade: clauses by position, None once gone
                clauses = list(clauses)
                occurs = defaultdict(list)
                for i, c in enumerate(clauses):
                    for l in c:
                        occurs[l].append(i)
            for l in lits:
                for i in occurs.get(l, ()):
                    clauses[i] = None
            for i in {i for l in negs for i in occurs.get(l, ())}:
                c = clauses[i]
                if c is not None:
                    c = c - negs
                    if len(c) > 1:
                        clauses[i] = c
                    elif c:
                        units |= c  # as in a scan round
                        clauses[i] = None
                    else:
                        return None
            lits = units
        if occurs is not None:
            clauses = [c for c in clauses if c is not None]
            held = frozenset().union(*clauses)
        left = set(map(abs, held))
        dropped = atoms - left
        dropped.difference_update(map(abs, assigned))
        free = self.free
        for a in dropped:
            factor = factor * free[a]
        return factor, frozenset(clauses), left

    def _search(self, root: list) -> int:
        """Search total of the root phase, [factor, pending components]
        (``_phase``): its factor times the count of each component, a
        connected clause set without unit or empty clauses.

        A lone clause is counted in closed form. Any other component is
        looked up in the layout's nodes (``_KeyTables.nodes``) for its memo
        key and branch atom, unless its node came with it. On a miss its
        literal occurrences are counted once; they give its key (``_key``),
        and the node is kept if the room allows. On a memo miss the node is
        searched, on its branch atom (``_branch_atom``), read from the same
        occurrences the first time it is needed: a component met only as
        memo hits needs none.

        The node step makes one pass over the clauses for both phases of
        the branch atom ``a``: it splits them into those with ``a``, those
        with ``-a`` and the rest (a clause with both holds in both phases).
        That is the first round of each phase: the rest and the other
        group without the branch literal, whose clauses left with one
        literal are units. Each phase is then made as the root was, by
        ``_phase``, with the branch literal as one more unit, and the
        phases that do not conflict wait on an explicit stack, so no Python
        call nests per decision. A frame is [memo key, total, phases], the
        current phase last. Each finished component multiplies into the
        current phase of the frame below it; a frame whose phases are all
        done stores its total.
        """
        memo = self.memo
        tables = self.tables
        nodes = tables.nodes
        stack = [[None, 0, [root]]]
        while True:
            frame = stack[-1]
            phase = frame[2][-1]
            if phase[1]:
                clauses, atoms, node = phase[1].pop()
                if len(clauses) == 1:
                    phase[0] = phase[0] * self._lone_clause(next(iter(clauses)), atoms)
                    continue
                if node is None:
                    node = nodes.get(clauses)
                occurrences = None
                if node is None:
                    occurrences = Counter(chain.from_iterable(clauses))
                    node = [self._key(clauses, atoms, occurrences), 0]
                    tables.keep(clauses, node)
                key, a = node
                count = memo.get(key)
                if count is None:
                    if not a:  # met so far only as memo hits
                        occurrences = occurrences or Counter(chain.from_iterable(clauses))
                        a = node[1] = _branch_atom(occurrences)
                    pos, neg, rest = [], [], []
                    for c in clauses:
                        if a in c:
                            if -a not in c:  # else it holds in both phases
                                pos.append(c)
                        elif -a in c:
                            neg.append(c)
                        else:
                            rest.append(c)
                    held = frozenset().union(*rest)
                    phases = []
                    for branch, reduced in ((-a, pos), (a, neg)):  # the last phase is searched first
                        drop = (-branch,)
                        extra, units = [], {branch}
                        for c in reduced:
                            c = c.difference(drop)
                            if len(c) > 1:
                                extra.append(c)
                            else:
                                units |= c  # a component holds no unit clause
                        made = self._phase(rest + extra, atoms, units, held.union(*extra))
                        if made is not None:
                            phases.append(made)
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

    def _lone_clause(self, clause: frozenset, atoms: set):
        """Count of one clause over its own atoms, in closed form.

        The clause is false under exactly one assignment of its atoms,
        unless it holds an atom in both signs (fewer atoms than literals):
        then under none. This keeps the search depth from growing with the
        clause length (`exists y R(y)` grounds to one clause with a literal
        per constant).
        """
        free = self.free
        total = 1
        for a in atoms:
            total = total * free[a]
        if len(atoms) < len(clause):
            return total
        falsified = 1
        for l in clause:
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
    """The weight-free half of ``_DpllCounter``'s search over a base
    layout: what ``_key`` reads about its atoms, filled per atom on first
    use (``decode``), and the search nodes met so far.

    A layout is the number of constants ``n`` and (arity, first index) per
    block, so predicate names and weights do not change the tables.
    ``layout[a]`` is (a's number with every constant at position 0, one
    (constant position, stride) per argument), and ``features[l]`` one
    (constant position, feature) per argument of the atom of literal l.
    ``nodes`` maps a component's clauses (signed base numbers) to its
    [memo key, branch atom], the atom 0 until a search needs it. Only
    clause sets that were counted as components are kept, so a clause set
    that ``nodes`` holds is connected, and the search need not split it.
    It holds at most ``room`` clauses in all, so its size is bounded
    whatever the search meets; once full it keeps what it has. Only the
    shared tables (``_key_tables``) have room, ``_NODES_MAX_CLAUSES``
    clauses each.
    """

    def __init__(self, n: int, blocks: tuple[tuple[int, int], ...], room: int = 0):
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
        self.nodes: dict[frozenset, list] = {}
        self.room = room  # clauses that ``nodes`` may still take

    def keep(self, clauses: frozenset, node: list):
        """Keep a component's [memo key, branch atom] under its clauses,
        if they fit in the room left."""
        if len(clauses) <= self.room:
            self.room -= len(clauses)
            self.nodes[clauses] = node

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
_NODES_MAX_CLAUSES = 1 << 15  # clauses the nodes of one kept layout may hold


@lru_cache(maxsize=_KEY_TABLES_MAX)
def _key_tables(n: int, blocks: tuple[tuple[int, int], ...]) -> _KeyTables:
    """The shared tables of a layout, the only ones that keep nodes."""
    return _KeyTables(n, blocks, _NODES_MAX_CLAUSES)


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
    """``lifted.count``: lifted rules, then ``wmc_dpll``. ``cap`` bounds
    brute force only."""
    return lifted.count(ground(t, d), query)


# Every engine, by name: ``engine(t, d, cap, query)`` returns the count of t,
# or with a query the pair (count of t ∧ query, count of t). An engine calls
# ``ground`` and the counters through this module's globals, never through
# references it holds, so that a wrapper set on those globals sees each call.
ENGINES = {"brute": _brute, "dpll": _dpll}
DEFAULT_ENGINE = "brute"


def wfomc(t: WeightedTheory, d: Domain, engine: str = DEFAULT_ENGINE,
          cap: int | None = None, query: Formula | None = None):
    """Weighted first-order model count of the theory over the domain, by
    the engine of that name in ``ENGINES``. Given a query sentence over the
    theory's predicates and the domain's constants, returns the pair (count
    of t ∧ query, count of t)."""
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
    """The clause form of a ground problem (``tseitin_ground``) in DIMACS
    format, with `c atom` and `c wght <lit> <weight>` comment lines."""
    g = tseitin_ground(g)
    clauses = clauses_of(g)
    lines = [f"p cnf {len(g.base)} {len(clauses)}"]
    for i, (a, (wt, wf)) in enumerate(zip(g.base.atoms, g.atom_weights)):
        lines.append(f"c atom {i + 1} {a.pred.name}"
                     + ("(" + ",".join(t.name for t in a.args) + ")" if a.args else ""))
        lines.append(f"c wght {i + 1} {wt.numerator}/{wt.denominator}")
        lines.append(f"c wght {-(i + 1)} {wf.numerator}/{wf.denominator}")
    for c in clauses:
        lines.append(" ".join([*map(str, sorted(c, key=abs)), "0"]))
    return "\n".join(lines) + "\n"
