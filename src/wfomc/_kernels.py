"""Assignment-block evaluation of compiled ground formulas.

This is the hot loop of brute-force counting: evaluate one fixed formula,
given as a postfix (RPN) instruction program, over a contiguous block of
truth assignments. Assignment ``a`` assigns atom ``i`` the bit ``(a >> i) & 1``.

Evaluation is 64-way bit-parallel: every uint64 word holds one formula value
for 64 consecutive assignments (lane ``l`` of word ``w`` is assignment
``64*w + l``). Atom bits 0..5 vary within a word and load as fixed lane
patterns; higher atom bits are constant per word.

There is one evaluator, written in numpy: each instruction acts on the whole
block of words at once, so the Python dispatch per instruction is paid once
per block rather than once per word.
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


def satisfying_words(ops, args, stack_need: int, start: int, n: int) -> np.ndarray:
    """uint64 satisfaction words covering assignments start..start+n-1.

    ``start`` must be 64-aligned, also for a block of n < 64: lanes are
    numbered from the word's first assignment. Trailing lanes beyond ``n``
    are unspecified. ``stack_need`` is the program's stack depth from
    ``compile_program``; the evaluator grows its stack as it goes.
    """
    if start % 64:
        raise ValueError("block start must be 64-aligned")
    n_words = (n + 63) // 64
    widx = np.arange(start // 64, start // 64 + n_words, dtype=np.uint64)
    stack: list[np.ndarray] = []
    for k in range(ops.shape[0]):
        op = ops[k]
        if op == OP_LOAD:
            bit = args[k]
            if bit < 6:
                stack.append(np.full(n_words, _LANE[bit], dtype=np.uint64))
            else:
                hit = (widx >> np.uint64(bit - 6)) & np.uint64(1)
                stack.append(hit * _ONES)
        elif op == OP_NOT:
            stack[-1] = ~stack[-1]
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] = stack[-1] & b
        elif op == OP_OR:
            b = stack.pop()
            stack[-1] = stack[-1] | b
        elif op == OP_IMP:
            b = stack.pop()
            stack[-1] = ~stack[-1] | b
        elif op == OP_IFF:
            b = stack.pop()
            stack[-1] = ~(stack[-1] ^ b)
        elif op == OP_TRUE:
            stack.append(np.full(n_words, _ONES, dtype=np.uint64))
        else:
            stack.append(np.zeros(n_words, dtype=np.uint64))
    return stack[0]


def satisfying_mask(ops, args, stack_need: int, start: int, n: int) -> np.ndarray:
    """uint8 mask of length ``n``: 1 where assignment ``start+i`` satisfies."""
    words = satisfying_words(ops, args, stack_need, start, n)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return bits[:n]


def popcount(words: np.ndarray, n: int) -> int:
    """Number of set bits among the first ``n`` lanes."""
    if n % 64:
        words = words.copy()
        words[-1] &= np.uint64((1 << (n % 64)) - 1)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return int(bits.sum())
