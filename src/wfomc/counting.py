"""Exact weighted model counting of ground problems.

Two engines:

  * ``wmc_bruteforce`` enumerates truth assignments with the block kernels
    from ``_kernels`` and sums exact per-assignment weight products. This is
    the semantic reference for everything else in the package.
  * ``wmc_dpll`` is an exhaustive search over CNF with unit propagation,
    connected-component decomposition and component caching.

Counts are exact rationals unless the problem is in float mode. Negative
weights flow through both engines unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels as K
from .errors import CapExceededError, WfomcError
from .grounding import GroundProblem, HerbrandBase, ground
from .logic import (
    EXACT,
    FALSE,
    TRUE,
    And,
    Atom,
    Domain,
    FalseF,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSig,
    TrueF,
    Weight,
    WeightedTheory,
    fold_and,
    fold_or,
)

DEFAULT_MAX_ATOMS = 26
_BLOCK_BITS = 18  # assignments are enumerated in blocks of 2**_BLOCK_BITS
_INT64_SAFE = 1 << 62


def max_atoms_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("WFOMC_MAX_ATOMS", "").strip()
    if env:
        return int(env)
    return DEFAULT_MAX_ATOMS


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
    used: list[int] = []
    bit_of: dict[int, int] = {}
    ops: list[int] = []
    args: list[int] = []

    def emit(f: Formula) -> int:  # returns stack need of the subtree
        if isinstance(f, Atom):
            idx = base.index.get(f)
            if idx is None:
                raise WfomcError(f"ground atom {f} not in the Herbrand base")
            bit = bit_of.get(idx)
            if bit is None:
                bit = len(used)
                bit_of[idx] = bit
                used.append(idx)
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
        op = {And: K.OP_AND, Or: K.OP_OR, Implies: K.OP_IMP, Iff: K.OP_IFF}.get(type(f))
        if op is None:
            raise WfomcError(f"quantifier in ground formula: {type(f).__name__}")
        left = emit(f.left)
        right = emit(f.right)
        ops.append(op)
        args.append(0)
        return max(left, 1 + right)

    need = emit(formula)
    return Program(
        np.asarray(ops, dtype=np.int8),
        np.asarray(args, dtype=np.int64),
        need,
        tuple(used),
    )


# ---------------------------------------------------------------------------
# Brute-force engine


def wmc_bruteforce(g: GroundProblem, cap: int | None = None,
                   block_bits: int = _BLOCK_BITS) -> Weight:
    """Sum of weight products over all satisfying assignments of the base."""
    n = len(g.base)
    _check_brute_cap(n, cap)
    prog = compile_program(g.formula, g.base)
    m = len(prog.atoms)
    used = set(prog.atoms)

    # Atoms the formula never mentions contribute an independent (wt + wf)
    # factor each; enumeration only runs over the mentioned atoms.
    free = _one(g.mode)
    for i in range(n):
        if i not in used:
            wt, wf = g.weights[i]
            free = free * (wt + wf)

    used_weights = [g.weights[i] for i in prog.atoms]
    unit = all(wt == 1 and wf == 1 for wt, wf in used_weights)

    if g.mode == EXACT:
        total, den = _sum_exact(prog, used_weights, m, unit, block_bits)
        return Fraction(total, den) * free * g.scalar
    total_f = _sum_float(prog, used_weights, m, unit, block_bits)
    return total_f * free * g.scalar


def _check_brute_cap(n: int, cap: int | None):
    limit = max_atoms_cap(cap)
    if n > limit:
        raise CapExceededError(
            f"Herbrand base has {n} atoms, above the brute-force cap {limit}; "
            "use wmc_dpll (or raise WFOMC_MAX_ATOMS)"
        )


def _one(mode: str) -> Weight:
    return Fraction(1) if mode == EXACT else 1.0


def _blocks(m: int, block_bits: int):
    # Blocks must stay word-aligned: the kernels evaluate 64 assignments per
    # uint64 lane, so a block is at least one full word (unless m < 6).
    total = 1 << m
    step = 1 << min(m, max(block_bits, 6))
    for start in range(0, total, step):
        yield start, min(step, total - start)


def _sum_exact(prog: Program, weights, m: int, unit: bool,
               block_bits: int) -> tuple[int, int]:
    if unit:
        sat = 0
        for start, count in _blocks(m, block_bits):
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
    bound = max(abs(x) for x in low) * max(abs(x) for x in high)
    low_mask = (1 << k) - 1

    total = 0
    if bound < _INT64_SAFE:
        low_a = np.asarray(low, dtype=np.int64)
        high_a = np.asarray(high, dtype=np.int64)
        chunk = max(1, _INT64_SAFE // max(bound, 1))
        for start, count in _blocks(m, block_bits):
            mask = K.satisfying_mask(prog.ops, prog.args, prog.stack_need,
                                     start, count)
            idx = np.arange(start, start + count, dtype=np.int64)[mask.view(np.bool_)]
            if not idx.size:
                continue
            vals = low_a[idx & low_mask] * high_a[idx >> k]
            for off in range(0, vals.size, chunk):
                total += int(np.sum(vals[off:off + chunk], dtype=np.int64))
    else:
        for start, count in _blocks(m, block_bits):
            mask = K.satisfying_mask(prog.ops, prog.args, prog.stack_need,
                                     start, count)
            for j in np.nonzero(mask)[0].tolist():
                a = start + j
                total += low[a & low_mask] * high[a >> k]
    return total, den


def _sum_float(prog: Program, weights, m: int, unit: bool,
               block_bits: int) -> float:
    k = m // 2
    low = np.asarray(_weight_table([w[0] for w in weights[:k]],
                                   [w[1] for w in weights[:k]]), dtype=np.float64)
    high = np.asarray(_weight_table([w[0] for w in weights[k:]],
                                    [w[1] for w in weights[k:]]), dtype=np.float64)
    low_mask = (1 << k) - 1
    total = 0.0
    for start, count in _blocks(m, block_bits):
        mask = K.satisfying_mask(prog.ops, prog.args, prog.stack_need,
                                 start, count)
        idx = np.arange(start, start + count, dtype=np.int64)[mask.view(np.bool_)]
        if idx.size:
            total += float(np.sum(low[idx & low_mask] * high[idx >> k]))
    return total


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
    n = len(g.base)
    if n > cap:
        raise CapExceededError(f"{n} atoms is too many to enumerate models")
    prog = compile_program(g.formula, g.base)
    full = Program(prog.ops,
                   np.asarray([prog.atoms[a] if prog.ops[i] == K.OP_LOAD else 0
                               for i, a in enumerate(prog.args)], dtype=np.int64),
                   prog.stack_need, tuple(range(n)))
    mask = K.satisfying_mask(full.ops, full.args, full.stack_need, 0, 1 << n)
    for a in np.nonzero(mask)[0].tolist():
        bits = tuple((a >> i) & 1 for i in range(n))
        w = _one(g.mode)
        for i, b in enumerate(bits):
            wt, wf = g.weights[i]
            w = w * (wt if b else wf)
        yield bits, w * g.scalar


# ---------------------------------------------------------------------------
# Clause extraction and ground Tseitin encoding


def _literal_int(f: Formula, base: HerbrandBase) -> int | None:
    if isinstance(f, Atom):
        i = base.index.get(f)
        return None if i is None else i + 1
    if isinstance(f, Not) and isinstance(f.body, Atom):
        i = base.index.get(f.body)
        return None if i is None else -(i + 1)
    return None


def _conjuncts(f: Formula):
    """Operands of a nested conjunction, left to right.

    Ground folds are left-deep and their depth grows with the domain size,
    so the spine is walked with an explicit stack rather than by recursion.
    """
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.append(f.right)
            stack.append(f.left)
        else:
            yield f


def _clause_literals(f: Formula, base: HerbrandBase) -> list[int] | None:
    lits = []
    stack = [f]  # an explicit stack, as in _conjuncts, for long disjunctions
    while stack:
        f = stack.pop()
        if isinstance(f, Or):
            stack.append(f.right)
            stack.append(f.left)
            continue
        lit = _literal_int(f, base)
        if lit is None:
            return None
        lits.append(lit)
    return lits


def clauses_of(g: GroundProblem) -> list[frozenset[int]] | None:
    """Clause view of the ground formula, or None if it is not CNF.

    Tautological clauses are dropped; an unsatisfiable constant yields a
    single empty clause.
    """
    out: list[frozenset[int]] = []
    for f in _conjuncts(g.formula):
        if isinstance(f, TrueF):
            continue
        if isinstance(f, FalseF):
            out.append(frozenset())
            continue
        lits = _clause_literals(f, g.base)
        if lits is None:
            return None
        clause = frozenset(lits)
        if any(-l in clause for l in clause):
            continue
        out.append(clause)
    return out


def tseitin_ground(g: GroundProblem) -> GroundProblem:
    """Equivalence-preserving CNF of the ground formula.

    Every added definition atom is biconditionally tied to the subformula it
    names, so each model of the input extends to exactly one model of the
    output and the weighted count is unchanged (new atoms weigh (1, 1)).
    """
    atoms = list(g.base.atoms)
    weights = list(g.weights)
    taken = {a.pred.name for a in atoms}
    clauses: list[list[int]] = []
    counter = [0]
    one = _one(g.mode)

    def new_var() -> int:
        while f"Aux{counter[0]}" in taken:
            counter[0] += 1
        sig = PredicateSig(f"Aux{counter[0]}", 0)
        counter[0] += 1
        atoms.append(Atom(sig, ()))
        weights.append((one, one))
        return len(atoms)

    def enc(f: Formula):
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, Atom):
            return g.base.index[f] + 1
        if isinstance(f, Not):
            e = enc(f.body)
            return (not e) if isinstance(e, bool) else -e
        l, r = enc(f.left), enc(f.right)
        if isinstance(f, And):
            if l is False or r is False:
                return False
            if l is True:
                return r
            if r is True:
                return l
            v = new_var()
            clauses.extend([[-v, l], [-v, r], [v, -l, -r]])
            return v
        if isinstance(f, Or):
            if l is True or r is True:
                return True
            if l is False:
                return r
            if r is False:
                return l
            v = new_var()
            clauses.extend([[-v, l, r], [v, -l], [v, -r]])
            return v
        if isinstance(f, Implies):
            if l is False or r is True:
                return True
            if l is True:
                return r
            if r is False:
                return (not l) if isinstance(l, bool) else -l
            v = new_var()
            clauses.extend([[-v, -l, r], [v, l], [v, -r]])
            return v
        if isinstance(f, Iff):
            if isinstance(l, bool):
                if isinstance(r, bool):
                    return l == r
                return r if l else -r
            if isinstance(r, bool):
                return l if r else -l
            v = new_var()
            clauses.extend([[-v, -l, r], [-v, l, -r], [v, l, r], [v, -l, -r]])
            return v
        raise WfomcError(f"cannot encode {type(f).__name__}")

    unsat = False
    for f in _conjuncts(g.formula):
        lits = _clause_literals(f, g.base)
        if lits is not None:
            clauses.append(lits)
            continue
        e = enc(f)
        if e is True:
            continue
        if e is False:
            unsat = True
            break
        clauses.append([e])

    base = HerbrandBase(tuple(atoms), {a: i for i, a in enumerate(atoms)})
    if unsat:
        formula = FALSE
    else:
        parts = []
        for c in clauses:
            lits = []
            for l in c:
                a = atoms[abs(l) - 1]
                lits.append(Atom(a.pred, a.args) if l > 0 else Not(a))
            parts.append(fold_or(lits))
        formula = fold_and(parts) if parts else TRUE
    return GroundProblem(base, formula, tuple(weights), g.scalar, g.mode)


# ---------------------------------------------------------------------------
# DPLL engine


def wmc_dpll(g: GroundProblem) -> Weight:
    """Component-caching DPLL count; requires a CNF ground formula."""
    clauses = clauses_of(g)
    if clauses is None:
        raise WfomcError("wmc_dpll needs a CNF ground formula; "
                         "convert with tseitin_ground first")
    counter = _DpllCounter(g.weights, g.mode)
    result = counter.count(frozenset(clauses))
    free = _one(g.mode)
    in_clauses = set()
    for c in clauses:
        for l in c:
            in_clauses.add(abs(l) - 1)
    for i in range(len(g.base)):
        if i not in in_clauses:
            wt, wf = g.weights[i]
            free = free * (wt + wf)
    return result * free * g.scalar


class _DpllCounter:
    def __init__(self, weights, mode):
        self.weights = weights
        self.mode = mode
        self.memo: dict[frozenset, Weight] = {}

    def _w(self, lit: int) -> Weight:
        wt, wf = self.weights[abs(lit) - 1]
        return wt if lit > 0 else wf

    def _free(self, atoms) -> Weight:
        out = _one(self.mode)
        for i in atoms:
            wt, wf = self.weights[i - 1]
            out = out * (wt + wf)
        return out

    def _lone_clause(self, clause: frozenset) -> Weight:
        """Count of one clause over its own atoms, in closed form.

        The clause is false under exactly one assignment of its atoms. This
        keeps the search depth from growing with the clause length
        (`exists y R(y)` grounds to one clause with a literal per constant).
        """
        falsified = _one(self.mode)
        for l in clause:
            falsified = falsified * self._w(-l)
        return self._free(abs(l) for l in clause) - falsified

    def count(self, clauses: frozenset) -> Weight:
        if not clauses:
            return _one(self.mode)
        if frozenset() in clauses:
            return _zero(self.mode)
        hit = self.memo.get(clauses)
        if hit is not None:
            return hit

        factor = _one(self.mode)
        current = clauses
        while True:
            units = [next(iter(c)) for c in current if len(c) == 1]
            if not units:
                break
            unit = min(units, key=lambda l: (abs(l), l))
            reduced, vanished = _assign(current, unit)
            factor = factor * self._w(unit) * self._free(vanished)
            if reduced is None:
                self.memo[clauses] = _zero(self.mode)
                return _zero(self.mode)
            current = reduced
            if not current:
                self.memo[clauses] = factor
                return factor

        if len(current) == 1:
            result = factor * self._lone_clause(next(iter(current)))
            self.memo[clauses] = result
            return result

        comps = _components(current)
        if len(comps) > 1:
            result = factor
            for comp in comps:
                result = result * self.count(comp)
            self.memo[clauses] = result
            return result

        lit = _branch_literal(current)
        total = _zero(self.mode)
        for phase in (lit, -lit):
            reduced, vanished = _assign(current, phase)
            if reduced is None:
                continue
            total = total + self._w(phase) * self._free(vanished) * self.count(reduced)
        result = factor * total
        self.memo[clauses] = result
        return result


def _zero(mode: str) -> Weight:
    return Fraction(0) if mode == EXACT else 0.0


def _atoms_of(clauses) -> set[int]:
    out = set()
    for c in clauses:
        for l in c:
            out.add(abs(l))
    return out


def _assign(clauses: frozenset, lit: int):
    """Apply a literal; returns (residual clauses | None if unsat, vanished atoms)."""
    new = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = c - {-lit}
            if not c:
                return None, set()
        new.append(c)
    residual = frozenset(new)
    vanished = _atoms_of(clauses) - _atoms_of(residual) - {abs(lit)}
    return residual, vanished


def _components(clauses: frozenset) -> list[frozenset]:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in clauses:
        atoms = [abs(l) for l in c]
        for a in atoms:
            parent.setdefault(a, a)
        for a in atoms[1:]:
            ra, rb = find(atoms[0]), find(a)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list] = {}
    for c in clauses:
        root = find(abs(next(iter(c))))
        groups.setdefault(root, []).append(c)
    return [frozenset(g) for g in groups.values()]


def _branch_literal(clauses: frozenset) -> int:
    """Atom with the most occurrences in the shortest clauses."""
    shortest = min(len(c) for c in clauses)
    counts: dict[int, int] = {}
    for c in clauses:
        if len(c) == shortest:
            for l in c:
                counts[abs(l)] = counts.get(abs(l), 0) + 1
    return min(counts, key=lambda a: (-counts[a], a))


# ---------------------------------------------------------------------------
# Top-level counting


def wfomc(t: WeightedTheory, d: Domain, engine: str = "brute",
          cap: int | None = None) -> Weight:
    """Weighted first-order model count of the theory over the domain."""
    if engine == "brute":
        # The Herbrand base size is known before grounding; refuse early.
        _check_brute_cap(sum(len(d) ** sig.arity for sig in t.predicates()), cap)
        return wmc_bruteforce(ground(t, d), cap=cap)
    if engine == "dpll":
        g = ground(t, d)
        if clauses_of(g) is None:
            g = tseitin_ground(g)
        return wmc_dpll(g)
    raise WfomcError(f"unknown engine {engine!r} (expected 'brute' or 'dpll')")


# ---------------------------------------------------------------------------
# DIMACS-style export


def export_dimacs(g: GroundProblem) -> str:
    """CNF in DIMACS format with `c wght <lit> <weight>` comment lines."""
    clauses = clauses_of(g)
    if clauses is None:
        raise WfomcError("export_dimacs needs a CNF ground formula")
    lines = [f"p cnf {len(g.base)} {len(clauses)}"]
    for i, a in enumerate(g.base.atoms):
        wt, wf = g.weights[i]
        lines.append(f"c atom {i + 1} {a.pred.name}"
                     + ("(" + ",".join(t.name for t in a.args) + ")" if a.args else ""))
        lines.append(f"c wght {i + 1} {_dimacs_weight(wt)}")
        lines.append(f"c wght {-(i + 1)} {_dimacs_weight(wf)}")
    for c in clauses:
        lines.append(" ".join(str(l) for l in sorted(c, key=abs)) + " 0")
    return "\n".join(lines) + "\n"


def _dimacs_weight(w: Weight) -> str:
    if isinstance(w, float):
        return repr(w)
    f = Fraction(w)
    return f"{f.numerator}/{f.denominator}"
