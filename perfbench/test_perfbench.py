"""Tests of the benchmark itself: its oracles and its tracer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from fractions import Fraction

import pytest

import wfomc
from wfomc import counting, grounding, propcheck, transform
from wfomc.logic import Domain
from wfomc.propcheck import CheckReport, Counterexample

from perfbench import child, tracing, workloads as W

SMALL = {"smokers_dpll": 3, "mln_query": 2, "problog_brute": 3}


def small(name: str, seed: int = 7):
    cls = W.WORKLOADS[name]
    return cls(seed, SMALL[name]) if name in SMALL else cls(seed)


# -- oracles -------------------------------------------------------------------


@pytest.mark.parametrize("i", range(4))
def test_smokers_oracle_accepts_the_count_and_rejects_plus_one(i):
    wl = small("smokers_dpll")
    inp = wl.input(i)
    got = wl.op(inp)
    brute = wfomc.wfomc(wl.setup(inp), wl.domain)
    assert got == brute and wl.check(inp, got)
    assert not wl.check(inp, got + 1)


def test_smokers_closed_form_matches_brute_force_with_negative_weights():
    t, _ = wfomc.parse_theory(f"weight S 1 -1 2\nweight F 2 3/10 -1\n{W.SMOKERS_TEXT}")
    for n in (1, 2, 3):
        want = W.smokers_count(n, Fraction(-1), Fraction(2), Fraction(3, 10), Fraction(-1))
        assert wfomc.wfomc(t, Domain.of_size(n)) == want


@pytest.mark.parametrize("i", range(3))
def test_mln_oracle_accepts_the_answer_and_rejects_a_perturbed_one(i):
    wl = small("mln_query")
    inp = wl.input(i)
    got = wl.op(inp)
    assert wl.check(inp, got)
    assert not wl.check(inp, got * (1 + 1e-8))


@pytest.mark.parametrize("i", range(4))
def test_problog_oracle_covers_every_query_kind_and_rejects_a_perturbed_one(i):
    wl = small("problog_brute")
    inp = wl.input(i)
    got = wl.op(inp)
    assert wl.check(inp, got)
    assert not wl.check(inp, got + Fraction(1, 10 ** 30))
    program = wfomc.parse_problog(inp[0])
    query = wfomc.parse_theory(inp[1])[0].sentences[0]
    assert W.workshop_probability(inp[2], 3) == wfomc.problog_oracle(program, wl.domain, query)


def test_problog_queries_come_in_balanced_blocks():
    wl = W.ProblogBrute(3)
    kinds = [wl.input(i)[2] for i in range(8)]
    assert sorted(kinds[:4]) == sorted(kinds[4:]) == [0, 1, 2, 3]


def test_certify_oracle_rejects_a_reported_failure():
    wl = small("certify")
    answer = wl.op(wl.input(0))
    assert wl.check(wl.input(0), answer)
    t = wl.setup(wl.input(0))
    bad = CheckReport(1, 0, (Counterexample(t, 1, Fraction(1), Fraction(2)),))
    assert not wl.check(wl.input(0), answer + (bad,))


def test_seeds_give_disjoint_certify_ranges_and_different_draws():
    assert W.Certify(1).input(0) != W.Certify(2).input(0)
    assert W.Certify(1).input(W.CERTIFY_STRIDE - 1) < W.Certify(2).input(0)
    assert [W.MlnQuery(1).input(i) for i in range(3)] != [W.MlnQuery(2).input(i) for i in range(3)]
    assert W.SmokersDpll(5).input(3) == W.SmokersDpll(5).input(3)


# -- tracer --------------------------------------------------------------------


def test_tracer_wraps_every_reference_and_restores_them():
    check_soundness, skolemize = propcheck.check_soundness, transform.skolemize
    originals = (counting.ground, propcheck.wfomc, wfomc.wfomc, check_soundness.__defaults__)
    with tracing.Tracer() as tracer:
        assert counting.ground is grounding.ground is wfomc.ground is not originals[0]
        assert propcheck.wfomc is counting.wfomc is wfomc.wfomc is not originals[1]
        # check_soundness(transform=skolemize) binds skolemize at definition
        assert skolemize in originals[3]
        assert transform.skolemize in check_soundness.__defaults__
        assert skolemize not in check_soundness.__defaults__
        counting.wfomc(wfomc.parse_theory("forall x P(x)")[0], Domain.of_size(2))
    assert (counting.ground, propcheck.wfomc, wfomc.wfomc,
            check_soundness.__defaults__) == originals
    assert tracer.fired["grounding.ground"] == 1
    assert tracer.fired["counting.wmc_bruteforce"] == 1


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_required_wrapper_fires_and_layers_cover_the_op(name):
    wl = small(name)
    tracer = tracing.Tracer(extra_modules=(W,))
    with tracer:
        for i in range(2):
            inp = wl.input(i)
            assert wl.check(inp, tracer.run_op(i, wl.op, inp))
    tracer.check_fired(wl.uses)
    metrics = tracer.metrics(2, 0.0)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    selft = sum(tracer.self_times().values())
    assert selft == pytest.approx(tracer.op_time(), rel=1e-9)
    assert 0 <= metrics["trace.uncovered_share"] < 0.5


def test_check_fired_fails_loudly_on_a_silent_wrapper():
    tracer = tracing.Tracer()
    with tracer:
        pass
    with pytest.raises(tracing.CoverageError, match="counting.wmc_dpll"):
        tracer.check_fired(("counting.wmc_dpll",))


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.names = [tracing.OP, "grounding.ground", "logic.WeightedTheory.__post_init__"]
    tracer.name_id = {name: i for i, name in enumerate(tracer.names)}
    tracer.spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 7.0, 0, 0], [2, 2.0, 3.0, 1, 0],
                    [2, 8.0, 9.5, 0, 0]]
    assert tracer.self_times() == {tracing.OP: 2.5, "grounding": 5.0, "logic": 2.5}
    assert tracer.op_time() == 10.0


# -- reference units -------------------------------------------------------------


def test_op_time_is_divided_by_the_reference_samples_around_it():
    # The host runs at full speed (reference 1 ms) until t=1, then at half
    # speed (reference 2 ms). Ops take 10 ref either way.
    refs = [(t / 10, 0.001 if t < 10 else 0.002) for t in range(21)]
    ops = [(0.15, 0.010), (0.55, 0.010), (1.45, 0.020), (1.95, 0.020)]
    assert child.in_reference_units(ops, refs) == pytest.approx([10.0] * 4)
