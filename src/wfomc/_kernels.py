"""Assignment-block evaluation of compiled ground formulas.

This is the hot loop of brute-force counting: evaluate one fixed formula,
given as a program with one instruction per node of its ground DAG
(``counting.compile_program``), over a contiguous block of truth
assignments. Assignment ``a`` assigns atom ``i`` the bit ``(a >> i) & 1``.

Evaluation is 64-way bit-parallel: every uint64 word holds one formula value
for 64 consecutive assignments (lane ``l`` of word ``w`` is assignment
``64*w + l``). Atom bits 0..5 vary within a word and load as fixed lane
patterns; higher atom bits are constant per word.

There is one evaluator, written in numpy: each instruction computes its
node's array of words for the whole block at once, so the Python dispatch
per instruction is paid once per block rather than once per word. Each
node is evaluated once, however many nodes share it. The arrays are the
rows of one buffer allocated per block, as many as the program's width,
and a node's row is reused once the last instruction reading it has run.
"""

from __future__ import annotations

import numpy as np

OP_LOAD = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_IMP = 4
OP_IFF = 5
OP_TRUE = 6
OP_FALSE = 7

# Lane patterns for atom bits 0..5: bit i of lane l is (l >> i) & 1.
_LANE = np.array(
    [
        0xAAAAAAAAAAAAAAAA,
        0xCCCCCCCCCCCCCCCC,
        0xF0F0F0F0F0F0F0F0,
        0xFF00FF00FF00FF00,
        0xFFFF0000FFFF0000,
        0xFFFFFFFF00000000,
    ],
    dtype=np.uint64,
)
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def backend() -> str:
    """Name of the evaluator; benchmark results record it."""
    return "numpy"


def satisfying_words(ops, args, slots, start: int, n: int) -> np.ndarray:
    """uint64 satisfaction words covering assignments start..start+n-1.

    Instruction ``k`` computes node ``k`` into row ``slots[k]`` of one
    buffer: ``ops[k]`` is its opcode and ``args[k]`` a tuple, the atom bit
    of a load and otherwise the rows it reads (any number for ``OP_AND``
    and ``OP_OR``). A row is written again only after the last instruction
    that reads it, and the last instruction is the formula. ``start`` must
    be 64-aligned, also for a block of n < 64: lanes are numbered from the
    word's first assignment. Trailing lanes beyond ``n`` are unspecified.
    """
    if start % 64:
        raise ValueError("block start must be 64-aligned")
    n_words = (n + 63) // 64
    rows = list(np.empty((max(slots) + 1, n_words), dtype=np.uint64))
    widx = None
    for k, op in enumerate(ops):
        a = args[k]
        out = rows[slots[k]]
        if op == OP_LOAD:
            bit = a[0]
            if bit < 6:
                out.fill(_LANE[bit])
            else:
                if widx is None:
                    widx = np.arange(start // 64, start // 64 + n_words, dtype=np.uint64)
                np.right_shift(widx, bit - 6, out=out)
                out &= 1
                out *= _ONES
        elif op == OP_AND:
            np.bitwise_and(rows[a[0]], rows[a[1]], out=out)
            for j in a[2:]:
                out &= rows[j]
        elif op == OP_OR:
            np.bitwise_or(rows[a[0]], rows[a[1]], out=out)
            for j in a[2:]:
                out |= rows[j]
        elif op == OP_NOT:
            np.invert(rows[a[0]], out=out)
        elif op == OP_IMP:
            np.invert(rows[a[0]], out=out)
            out |= rows[a[1]]
        elif op == OP_IFF:
            np.bitwise_xor(rows[a[0]], rows[a[1]], out=out)
            np.invert(out, out=out)
        elif op == OP_TRUE:
            out.fill(_ONES)
        else:
            out.fill(0)
    return rows[slots[-1]].copy()


def satisfying_mask(ops, args, slots, start: int, n: int) -> np.ndarray:
    """uint8 mask of length ``n``: 1 where assignment ``start+i`` satisfies."""
    words = satisfying_words(ops, args, slots, start, n)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return bits[:n]


def popcount(words: np.ndarray, n: int) -> int:
    """Number of set bits among the first ``n`` lanes."""
    if n % 64:
        words = words.copy()
        words[-1] &= np.uint64((1 << (n % 64)) - 1)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return int(bits.sum())
