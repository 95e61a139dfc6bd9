"""The benchmark's workloads: seeded inputs, one op each, and an oracle each.

An op is one answer a user would see. Every op starts from the inputs a user
would hand the program (a seed for ``wfomc check``, otherwise source text),
so parsing and encoding are part of it. Each workload calls the package
through module attributes (``wfomc.parse_theory``, ``propcheck.check_soundness``)
at call time, never through names imported once, so that the tracer's
wrappers see every call.

Why these four, and which layer each one loads:

* ``certify`` is the developers' certification loop (``wfomc check``):
  thousands of tiny brute-force counts, dominated by dispatch in ``propcheck``,
  ``transform``, ``logic`` validation, ``grounding`` and small ``_kernels``
  blocks.
* ``smokers_dpll`` is search-bound: DPLL takes about 95% of an op.
* ``mln_query`` is grounding-bound (about 85% in ``ground``) and is the only
  workload in float mode.
* ``problog_brute`` streams millions of assignments through ``_kernels`` and
  the exact weighted sum of ``counting.wmc_bruteforce``. At n=10 the int64
  bound leaves ``chunk = 4`` in ``counting._sum_exact``, so the exact sum
  loops in Python over millions of satisfying assignments (at n=9 ``chunk``
  is 294 and an op takes about 0.04 s). That cliff is the first measured
  optimisation target; the benchmark records it and does not work round it.
  At 1.5-3 s per op a 30 s run holds only 10-20 ops, too few for a steady
  ``op_s.p90`` (it moved up to 26% between seeds), so ``BENCHMARK.json`` does
  not gate this workload; run it with ``--workload problog_brute``. Its
  layers stay gated through certify (kernels, counting.brute, compile) and
  mln_query (encoders).

Every oracle is independent of the counting pipeline: closed forms for the
three model workloads, and for ``certify`` the known verdict that the
elimination preserves counts (a reported failure is a wrong answer).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import wfomc
from wfomc import propcheck
from wfomc.logic import Constant, Domain

# A certify op's generator seed is ``seed * CERTIFY_STRIDE + i``: distinct
# benchmark seeds give disjoint seed ranges, so a second seed is held out.
CERTIFY_STRIDE = 1_000_000
CERTIFY_SIZES = (1, 2)
# The atom cap of ``wfomc check --max-atoms``. Seeds whose Herbrand base at
# n=2 has 23-26 atoms are 2.6% of seeds but 53% of the time at the default
# cap of 26 (up to 1.4 s each), so their count per run would swing ops_per_s
# by about 15% between seeds. Above the cap a size is skipped, as the check
# itself does; large brute-force streams are problog_brute's job.
CERTIFY_MAX_ATOMS = 22

SMOKERS_TEXT = "forall x forall y (S(x) & F(x,y) -> S(y))"
SMOKERS_N = 8
# Rational weights with a negative one, as Skolem cancellation produces.
SMOKERS_WEIGHTS = tuple(Fraction(w) for w in ("1", "2", "1/2", "3/10", "-1", "3/2"))

MLN_FORMULA = "exists y (WorksFor(x,y) | Boss(x))"
MLN_N = 10  # plus the query constant A
MLN_REL_TOL = 1e-9

# The program of samples/workshop.plp, kept here so the workload cannot drift.
WORKSHOP_TEXT = (
    "0.1 :: Attends(x).\n"
    "0.3 :: ToSeries(x).\n"
    "Series :- Attends(x), ToSeries(x).\n"
)
WORKSHOP_N = 10  # 2n + 3 = 23 ground atoms after encoding, under the cap of 26
WORKSHOP_KINDS = ("Series", "~Series", "Series & Attends({c})", "Series & ~Attends({c})")


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}/{i}")


# ---------------------------------------------------------------------------
# Oracles


def certify_ok(reports) -> bool:
    """A certification op is right when every report it produced holds."""
    return all(r.ok for r in reports)


def smokers_count(n: int, st: Fraction, sf: Fraction, ft: Fraction, ff: Fraction) -> Fraction:
    """Weighted count of forall x,y (S(x) & F(x,y) -> S(y)) over n constants.

    With k smokers, the k(n-k) pairs from a smoker to a non-smoker must have
    F false; every other F atom is free.
    """
    return sum(
        math.comb(n, k) * st ** k * sf ** (n - k)
        * (ft + ff) ** (n * n - k * (n - k)) * ff ** (k * (n - k))
        for k in range(n + 1)
    )


def mln_boss_probability(n_constants: int, w: float) -> float:
    """Pr(Boss(A)) under the MLN ``w exists y (WorksFor(x,y) | Boss(x))``.

    Only A's own atoms matter: with Boss(A) all 2^N settings of WorksFor(A,.)
    satisfy the formula; without it all but one do.
    """
    big = 2 ** n_constants
    ew = Fraction(math.exp(w))
    return float(big * ew / (big * ew + (big - 1) * ew + 1))


def workshop_probability(kind: int, n: int) -> Fraction:
    """Closed forms for the queries of WORKSHOP_KINDS, in that order.

    Series fails only if no constant both attends and turns the workshop
    into a series: (97/100)^n.
    """
    q = Fraction(97, 100)
    if kind == 0:
        return 1 - q ** n
    if kind == 1:
        return q ** n
    if kind == 2:
        return Fraction(1, 10) * (1 - Fraction(7, 10) * q ** (n - 1))
    return Fraction(9, 10) * (1 - q ** (n - 1))


# ---------------------------------------------------------------------------
# Workloads


class Certify:
    """One op is generator seed s of ``wfomc check --max-atoms 22``:
    gen_theory, then check_soundness and one check_modularity sample at
    sizes (1, 2)."""

    name = "certify"
    uses = (
        "propcheck.check_soundness", "propcheck.check_modularity",
        "transform.skolemize", "logic.WeightedTheory.__post_init__",
        "counting.wfomc", "grounding.ground", "counting.compile_program",
        "counting.wmc_bruteforce", "_kernels.satisfying_words",
    )

    def __init__(self, seed: int):
        self.base = seed * CERTIFY_STRIDE

    def input(self, i: int) -> int:
        return self.base + i

    def setup(self, s: int):
        return propcheck.gen_theory(propcheck.GenConfig(seed=s, domain_sizes=CERTIFY_SIZES))

    def op(self, s: int):
        t = self.setup(s)
        rep = propcheck.check_soundness(t, CERTIFY_SIZES, max_atoms=CERTIFY_MAX_ATOMS)
        if not rep.ok:
            return (rep,)
        mrep = propcheck.check_modularity(t, CERTIFY_SIZES, samples=1, rng=random.Random(s),
                                          max_atoms=CERTIFY_MAX_ATOMS)
        return (rep, mrep)

    def check(self, s: int, answer) -> bool:
        return certify_ok(answer)


class SmokersDpll:
    """One op counts the smokers theory at n=8 with seeded weights for S
    and F, through ``wfomc(engine="dpll")``."""

    name = "smokers_dpll"
    uses = (
        "frontends.parse_theory", "logic.WeightedTheory.__post_init__",
        "counting.wfomc", "grounding.ground", "counting.clauses_of",
        "counting.tseitin_ground", "counting.wmc_dpll",
    )

    def __init__(self, seed: int, n: int = SMOKERS_N):
        self.seed = seed
        self.domain = Domain.of_size(n)

    def input(self, i: int):
        rng = _rng(self.seed, i)
        st, sf, ft, ff = (rng.choice(SMOKERS_WEIGHTS) for _ in range(4))
        text = f"weight S 1 {st} {sf}\nweight F 2 {ft} {ff}\n{SMOKERS_TEXT}\n"
        return text, (st, sf, ft, ff)

    def setup(self, inp):
        return wfomc.parse_theory(inp[0])[0]

    def op(self, inp):
        return wfomc.wfomc(self.setup(inp), self.domain, engine="dpll")

    def check(self, inp, answer) -> bool:
        return answer == smokers_count(len(self.domain), *inp[1])


class MlnQuery:
    """One op answers Pr(Boss(A)) for the MLN with a seeded weight w over
    C1..C10 and A, through encode_mln and query_probability(engine="dpll")."""

    name = "mln_query"
    uses = (
        "frontends.parse_mln", "frontends.parse_theory",
        "encoders.encode_mln", "encoders.query_probability",
        "encoders.WfomcEncoding.prepared", "transform.skolemize",
        "transform.to_cnf_distribute", "logic.WeightedTheory.__post_init__",
        "counting.wfomc", "grounding.ground", "counting.clauses_of",
        "counting.wmc_dpll",
    )

    def __init__(self, seed: int, n: int = MLN_N):
        self.seed = seed
        self.domain = Domain.of_size(n, extra=(Constant("A"),))

    def input(self, i: int):
        w = round(_rng(self.seed, i).uniform(-3.0, 3.0), 3)
        return f"{w} {MLN_FORMULA}\n", "Boss(A)", w

    def setup(self, inp):
        return wfomc.encode_mln(wfomc.parse_mln(inp[0]))

    def op(self, inp):
        query = wfomc.parse_theory(inp[1])[0].sentences[0]
        return wfomc.query_probability(self.setup(inp), self.domain, query, engine="dpll")

    def check(self, inp, answer) -> bool:
        want = mln_boss_probability(len(self.domain), inp[2])
        return abs(answer - want) <= MLN_REL_TOL * abs(want)


class ProblogBrute:
    """One op answers a seeded query on the workshop program at n=10 with
    the default brute-force engine, in exact arithmetic.

    Queries come in blocks of four holding each kind once, in a seeded
    order, so every run sees the same mix of query costs.
    """

    name = "problog_brute"
    uses = (
        "frontends.parse_problog", "frontends.parse_theory",
        "encoders.encode_problog", "encoders.query_probability",
        "encoders.WfomcEncoding.prepared", "transform.skolemize",
        "transform.to_cnf_distribute", "logic.WeightedTheory.__post_init__",
        "counting.wfomc", "grounding.ground", "counting.compile_program",
        "counting.wmc_bruteforce", "_kernels.satisfying_words",
    )

    def __init__(self, seed: int, n: int = WORKSHOP_N):
        self.seed = seed
        self.domain = Domain.of_size(n)

    def input(self, i: int):
        block = list(range(len(WORKSHOP_KINDS)))
        random.Random(f"{self.seed}/block{i // len(block)}").shuffle(block)
        kind = block[i % len(block)]
        c = _rng(self.seed, i).choice(self.domain.constants).name
        return WORKSHOP_TEXT, WORKSHOP_KINDS[kind].format(c=c), kind

    def setup(self, inp):
        return wfomc.encode_problog(wfomc.parse_problog(inp[0]))

    def op(self, inp):
        query = wfomc.parse_theory(inp[1])[0].sentences[0]
        return wfomc.query_probability(self.setup(inp), self.domain, query)

    def check(self, inp, answer) -> bool:
        return answer == workshop_probability(inp[2], len(self.domain))


WORKLOADS = {w.name: w for w in (Certify, SmokersDpll, MlnQuery, ProblogBrute)}
