import random

import pytest

from conftest import domain, formula, theory
from wfomc.counting import wfomc
from wfomc.errors import WfomcError
from wfomc.logic import Exists, QUANT, predicates, standardize_apart, subformulas
from wfomc import propcheck
from wfomc.propcheck import (
    GenConfig,
    check_modularity,
    check_soundness,
    check_staged_counts,
    gen_ground_conjunction,
    gen_theory,
    run_suite,
    shrink_theory,
    skolemize_skip_universal_rewrite,
    skolemize_wrong_cancellation_weight,
    staged_case_table,
)
from wfomc.transform import next_internal_site, staged_elimination

F6 = "forall x exists y (WorksFor(x,y) | Boss(x))"


class TestGenerator:
    def test_same_seed_same_theory(self):
        assert gen_theory(GenConfig(seed=123)) == gen_theory(GenConfig(seed=123))

    def test_different_seeds_differ_somewhere(self):
        outs = {str(gen_theory(GenConfig(seed=s)).sentences) for s in range(20)}
        assert len(outs) > 10

    def test_zero_quantifier_budget_gives_quantifier_free_theories(self):
        for seed in range(30):
            t = gen_theory(GenConfig(seed=seed, max_quantifier_depth=0, max_predicates=1))
            for s in t.sentences:
                assert not any(isinstance(g, QUANT) for g in subformulas(s))

    def test_existentials_appear_across_seeds(self):
        hits = 0
        for seed in range(100):
            t = gen_theory(GenConfig(seed=seed))
            if any(isinstance(g, Exists) for s in t.sentences for g in subformulas(s)):
                hits += 1
        assert hits >= 30

    def test_caps_validated(self):
        with pytest.raises(WfomcError):
            GenConfig(max_arity=3)
        with pytest.raises(WfomcError):
            GenConfig(max_quantifier_depth=4)
        with pytest.raises(WfomcError):
            GenConfig(domain_sizes=(4,))

    def test_ground_conjunction_stays_on_original_predicates(self):
        t = theory(F6)
        rng = random.Random(5)
        d = domain("A", "B")
        for _ in range(20):
            phi = gen_ground_conjunction(rng, t, d)
            from wfomc.logic import free_vars, predicates

            assert not free_vars(phi)
            assert predicates(phi) <= set(t.predicates())


class TestSoundness:
    def test_employment_model_passes(self):
        rep = check_soundness(theory(F6), (1, 2))
        assert rep.ok and rep.checked == 2

    def test_quantifier_free_theories_pass_trivially(self):
        rep = check_soundness(theory("P(A) -> Q(A)"), (1, 2))
        assert rep.ok

    def test_wrong_cancellation_weight_is_caught(self):
        rep = check_soundness(theory(F6), (1,),
                              transform=skolemize_wrong_cancellation_weight)
        assert not rep.ok
        c = rep.failures[0]
        assert c.domain_size == 1
        assert c.before != c.after

    def test_skipping_the_universal_rewrite_is_caught_within_fifty_seeds(self):
        for seed in range(50):
            t = gen_theory(GenConfig(seed=seed))
            rep = check_soundness(t, (1, 2), shrink=False,
                                  transform=skolemize_skip_universal_rewrite)
            if not rep.ok:
                return
        pytest.fail("no seed detected the universal-rewrite mutation")

    def test_shrunk_witness_is_small(self):
        # pick some failing seed for the sabotaged weight, confirm shrinking
        for seed in range(50):
            t = gen_theory(GenConfig(seed=seed))
            rep = check_soundness(t, (1, 2),
                                  transform=skolemize_wrong_cancellation_weight)
            if not rep.ok:
                witness = rep.failures[0].theory
                from wfomc.logic import subformulas as subs

                assert sum(1 for s in witness.sentences for _ in subs(s)) <= \
                       sum(1 for s in t.sentences for _ in subs(s))
                return
        pytest.fail("sabotage never failed")

    def test_oversized_instances_are_skipped_not_failed(self):
        t = theory("forall x forall y exists z (R(x,y,z) | S(x,y,z))")
        rep = check_soundness(t, (3,), max_atoms=20)
        assert rep.skipped == 1 and rep.checked == 0 and rep.ok

    def test_the_given_cap_holds_for_the_counts(self):
        # With the constant A the domain at n=2 has 3 constants: R has 27
        # atoms, over the default cap of 26 and under the given 40. Only 12
        # are mentioned, so brute force is fast.
        t = theory("forall x exists y R(x,y,A)")
        rep = check_soundness(t, (1, 2), max_atoms=40)
        assert rep.checked == 2 and rep.skipped == 0 and rep.ok

    def test_skip_test_counts_the_constants_of_the_theory(self):
        # At n=2 the base has 27 atoms over {C1, C2, A}, not the 8 of two
        # constants, so the size is skipped rather than over the cap.
        t = theory("forall x exists y R(x,y,A)")
        rep = check_soundness(t, (1, 2), max_atoms=10)
        assert rep.checked == 1 and rep.skipped == 1 and rep.ok

    def test_cap_from_the_environment_skips_sizes(self, monkeypatch):
        # The cap from the environment is the one cap: a size whose base is
        # past it (such as 20 atoms) is skipped, never counted over it.
        monkeypatch.setenv("WFOMC_MAX_ATOMS", "12")
        result = run_suite(seeds=50, sizes=(1, 2))
        assert result.ok
        checks, skipped = result.lines[-1].split(" checks, ")
        assert int(checks) > 0 and int(skipped.split()[0]) > 0
        assert result.lines == run_suite(seeds=50, sizes=(1, 2), max_atoms=12).lines


class TestModularity:
    def test_employment_with_boss_query(self):
        from wfomc.transform import skolemize

        t = theory(F6)
        sk = skolemize(t)
        d = domain("A", "B")
        phi = formula("Boss(A)")
        before = wfomc(t.replace(sentences=t.sentences + (phi,)), d)
        after = wfomc(sk.replace(sentences=sk.sentences + (phi,)), d)
        assert before == after

    def test_false_query_gives_zero_on_both_sides(self):
        from wfomc.logic import FALSE
        from wfomc.transform import skolemize

        t = theory(F6)
        sk = skolemize(t)
        d = domain("A")
        assert wfomc(t.replace(sentences=t.sentences + (FALSE,)), d) == 0
        assert wfomc(sk.replace(sentences=sk.sentences + (FALSE,)), d) == 0

    def test_report_over_random_theories(self):
        for seed in range(15):
            t = gen_theory(GenConfig(seed=seed))
            rep = check_modularity(t, (1, 2), samples=2, rng=random.Random(seed))
            assert rep.ok, f"seed {seed}"

    def test_query_over_introduced_predicate_is_flagged(self):
        t = theory(F6)
        phi = formula("Sk0(A)")
        with pytest.raises(WfomcError, match="original predicates"):
            check_modularity(t, (1,), queries=[phi])


class TestStaged:
    def test_stage_counts_on_the_employment_model(self):
        t = standardize_apart(theory(F6))
        rep = check_staged_counts(t, next_internal_site(t), (1, 2))
        assert rep.ok and rep.checked == 8

    def test_case_table_feature_stage(self):
        t = standardize_apart(theory(F6))
        stages = staged_elimination(t, next_internal_site(t))
        rows = staged_case_table(stages, domain("A"), "feature")
        assert len(rows) == 4
        for key, (measured, expected) in rows.items():
            assert measured == expected, key
        # violating rows contribute nothing
        assert rows[(True, False)][0] == 0
        assert rows[(False, True)][0] == 0
        assert rows[(False, False)][0] == 0  # weight zero multiplies it away

    def test_case_table_implication_stage_cancels(self):
        t = standardize_apart(theory(F6))
        stages = staged_elimination(t, next_internal_site(t))
        rows = staged_case_table(stages, domain("A"), "implication")
        for key, (measured, expected) in rows.items():
            assert measured == expected, key
        assert rows[(False, True)][0] + rows[(False, False)][0] == 0
        assert rows[(False, True)][0] != 0

    def test_case_table_requires_single_grounding(self):
        t = standardize_apart(theory(F6))
        stages = staged_elimination(t, next_internal_site(t))
        with pytest.raises(WfomcError):
            staged_case_table(stages, domain("A", "B"), "feature")


class TestShrinking:
    def test_shrinks_to_a_single_sentence(self):
        t = theory("P(A)\nQ(A)\nR(A)")
        out = shrink_theory(
            t,
            lambda s: any(sig.name == "Q" for f in s.sentences for sig in predicates(f)),
        )
        assert len(out.sentences) == 1

    def test_shrinks_inside_formulas(self):
        t = theory("P(A) & (Q(A) | R(A))")
        out = shrink_theory(
            t,
            lambda s: any(sig.name == "Q" for f in s.sentences for sig in predicates(f)),
        )
        assert out.sentences == (formula("Q(A)"),)


class TestSuite:
    def test_small_suite_passes(self):
        res = run_suite(seeds=25, sizes=(1, 2))
        assert res.ok
        assert "0 failure(s)" in res.lines[-1]

    def test_printed_clause_forms_are_certified(self, monkeypatch):
        # A unit propagation whose scale factors count twice (a forced
        # unit's factor pushed twice did that) is caught on what
        # ``wfomc skolemize`` prints, with a shrunk witness.
        real = propcheck.unit_propagate

        def doubled(t):
            out = real(t)
            return out.replace(scale=out.scale + out.scale[len(t.scale):])

        monkeypatch.setattr(propcheck, "unit_propagate", doubled)
        res = run_suite(seeds=50, sizes=(1, 2))
        assert not res.ok
        fails = [ln for ln in res.lines if ln.startswith("FAIL")]
        assert fails and all(ln.startswith("FAIL cnf soundness ") for ln in fails)
        assert "  shrunk witness:" in res.lines
