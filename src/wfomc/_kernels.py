"""Assignment-block evaluation of compiled ground formulas.

This is the hot loop of brute-force counting: evaluate one fixed formula,
given as a program with one instruction per node of its ground DAG
(``counting.compile_program``), over a contiguous block of truth
assignments. Assignment ``a`` assigns atom ``i`` the bit ``(a >> i) & 1``.

A block of ``n = 2**L`` assignments is one Python int, whose bit ``j`` is
the value at assignment ``start + j``, so each instruction is one big-int
operation over the whole block, and each node is evaluated once, however
many nodes share it. Atom bits below ``L`` vary within the block and load
as fixed lane patterns; higher atom bits are constant over it. The
evaluator holds one int per slot of the program, and a node's slot is
reused once the last instruction reading it has run. numpy serves only to
expand a block into a per-assignment mask for the weighted sum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

OP_LOAD = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_IMP = 4
OP_IFF = 5
OP_TRUE = 6
OP_FALSE = 7


def backend() -> str:
    """Name of the evaluator; benchmark results record it."""
    return "int"


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[int, ...]:
    """Per atom bit ``b`` below ``log2(n)``, its values over a block of
    ``n`` assignments: lane ``l`` is ``(l >> b) & 1``, so runs of ``2**b``
    zeros and ones."""
    lanes, run = [], 1
    while run < n:
        period = (1 << 2 * run) - 1
        lanes.append(((1 << n) - 1) // period * (period ^ ((1 << run) - 1)))
        run *= 2
    return tuple(lanes)


def satisfying_words(ops, args, slots, start: int, n: int) -> int:
    """Satisfaction bits of assignments start..start+n-1, bit ``j`` for
    assignment ``start + j``.

    Instruction ``k`` computes node ``k`` into slot ``slots[k]``: ``ops[k]``
    is its opcode and ``args[k]`` a tuple, the atom bit of a load and
    otherwise the slots it reads (any number for ``OP_AND`` and ``OP_OR``).
    A slot is written again only after the last instruction that reads it,
    and the last instruction is the formula. ``n`` must be a power of two
    and ``start`` a multiple of it.
    """
    if n < 1 or n & (n - 1) or start % n:
        raise ValueError("a block must be 2**L assignments from an aligned start")
    ones = (1 << n) - 1
    lanes = _lanes(n)
    low = len(lanes)  # atom bits that vary within the block
    rows = [0] * (max(slots) + 1)
    for op, a, out in zip(ops, args, slots):
        if op == OP_LOAD:
            b = a[0]
            v = lanes[b] if b < low else ones if start >> b & 1 else 0
        elif op == OP_AND:
            v = rows[a[0]] & rows[a[1]]
            for j in a[2:]:
                v &= rows[j]
        elif op == OP_OR:
            v = rows[a[0]] | rows[a[1]]
            for j in a[2:]:
                v |= rows[j]
        elif op == OP_NOT:
            v = rows[a[0]] ^ ones
        elif op == OP_IMP:
            v = rows[a[0]] ^ ones | rows[a[1]]
        elif op == OP_IFF:
            v = rows[a[0]] ^ rows[a[1]] ^ ones
        elif op == OP_TRUE:
            v = ones
        else:
            v = 0
        rows[out] = v
    return rows[slots[-1]]


def satisfying_mask(ops, args, slots, start: int, n: int) -> np.ndarray:
    """Boolean mask of length ``n``: True where assignment ``start+i``
    satisfies. It is bool rather than uint8 because ``np.flatnonzero`` is
    about ten times faster on bool."""
    words = satisfying_words(ops, args, slots, start, n)
    raw = np.frombuffer(words.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].view(bool)


def popcount(words: int, n: int) -> int:
    """Number of satisfying assignments in a block of ``n``."""
    return words.bit_count()
