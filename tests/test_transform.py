from fractions import Fraction
from pathlib import Path

import pytest

import transform_sweep
from conftest import count_with, domain, formula, theory
from wfomc.counting import max_atoms_cap, wfomc
from wfomc.errors import WfomcError
from wfomc.frontends import serialize_theory
from wfomc.grounding import ground
from wfomc.logic import (
    FLOAT,
    Atom,
    Constant,
    Domain,
    PredicateSig,
    ScaleFactor,
    WeightFn,
    WeightedTheory,
    classify_normal_form,
    predicates,
    standardize_apart,
    subformulas,
)
from wfomc.propcheck import GenConfig, gen_theory
from wfomc.transform import (
    FreshNamer,
    clause_form,
    eliminate_one,
    internal_quantifier_count,
    next_internal_site,
    skolemize,
    skolemize_full,
    skolemize_prenex_shortcut,
    staged_elimination,
    to_cnf_distribute,
    to_cnf_tseitin,
    to_nnf,
    to_prenex,
    unit_propagate,
)

F6 = "forall x exists y (WorksFor(x,y) | Boss(x))"
PARENTS = "forall x exists y exists z (Parents(x,y,z) | First(x))"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def theories_built(monkeypatch) -> list:
    """Records one entry per ``WeightedTheory`` built from now on."""
    built = []
    post_init = WeightedTheory.__post_init__
    monkeypatch.setattr(WeightedTheory, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    return built


def sizes(t):
    return sum(sum(1 for _ in subformulas(s)) for s in t.sentences)


def dom_for(t, n):
    return Domain.of_size(n, extra=t.constants())


def base_atoms(t, n):
    return sum(n ** sig.arity for sig in t.predicates())


class TestNnf:
    def test_de_morgan(self):
        assert to_nnf(formula("~(P(A) & Q(A))")) == formula("~P(A) | ~Q(A)")

    def test_quantifier_duality(self):
        assert to_nnf(formula("~(exists y F(x,y))")) == formula("forall y ~F(x,y)")

    def test_iff_expansion(self):
        assert to_nnf(formula("P(A) <-> Q(A)")) == formula("(~P(A) | Q(A)) & (P(A) | ~Q(A))")

    def test_negated_iff(self):
        f = to_nnf(formula("~(P(A) <-> Q(A))"))
        assert f == formula("(P(A) | Q(A)) & (~P(A) | ~Q(A))")


class TestPrenex:
    def test_conjunction_of_quantified(self):
        f = formula("(forall x P(x)) & (exists y Q(y))")
        assert to_prenex(f) == formula("forall x exists y (P(x) & Q(y))")

    def test_quantifier_free_unchanged(self):
        f = formula("P(A) -> Q(A)")
        assert to_prenex(f) == f

    def test_already_prenex_unchanged(self):
        f = formula(F6)
        assert to_prenex(f) == f

    def test_negation_flips(self):
        f = formula("~(forall x P(x))")
        assert to_prenex(f) == formula("exists x ~P(x)")

    def test_implication_flips_antecedent(self):
        f = formula("(exists x P(x)) -> Q(A)")
        assert to_prenex(f) == formula("forall x (P(x) -> Q(A))")

    def test_quantified_iff_is_equivalent(self):
        f = formula("(exists x P(x)) <-> Q(A)")
        out = to_prenex(f)
        from wfomc.logic import is_quantifier_free, QUANT

        body = out
        while isinstance(body, QUANT):
            body = body.body
        assert is_quantifier_free(body)
        t1 = theory("(exists x P(x)) <-> Q(A)")
        t2 = t1.replace(sentences=(out,))
        for n in (1, 2, 3):
            d = dom_for(t1, n)
            assert wfomc(t1, d) == wfomc(t2, d)

    def test_iff_expansion_renames_clear_of_other_binders(self):
        # The duplication inside the rewrite of <-> must not reuse a name some
        # sibling quantifier already binds: all prefix variables stay distinct.
        text = "(exists x_1 S(x_1)) & ((exists x P(x)) <-> Q(A))"
        t1 = theory(text)
        out = to_prenex(standardize_apart(t1).sentences[0])
        prefix = []
        body = out
        from wfomc.logic import QUANT

        while isinstance(body, QUANT):
            prefix.append(body.var)
            body = body.body
        assert len(prefix) == len(set(prefix)), prefix
        t2 = t1.replace(sentences=(out,))
        for n in (1, 2):
            d = dom_for(t1, n)
            assert wfomc(t1, d) == wfomc(t2, d)


class TestEliminateOne:
    def test_employment_produces_the_four_sentence_theory(self):
        t = standardize_apart(theory(F6))
        site = next_internal_site(t)
        out = eliminate_one(t, site, FreshNamer.for_theory(t))
        texts = [
            "forall x Z0(x)",
            "forall x forall y (Z0(x) | ~(WorksFor(x,y) | Boss(x)))",
            "forall x (Sk0(x) | Z0(x))",
            "forall x forall y (Sk0(x) | ~(WorksFor(x,y) | Boss(x)))",
        ]
        assert list(out.sentences) == [theory(s).sentences[0] for s in texts]

    def test_weights_of_fresh_predicates(self):
        t = standardize_apart(theory(F6))
        out = eliminate_one(t, next_internal_site(t), FreshNamer.for_theory(t))
        assert out.weights.get(PredicateSig("Z0", 1)) == (1, 1)
        assert out.weights.get(PredicateSig("Sk0", 1)) == (1, -1)

    def test_inner_existential_gets_arity_two_predicates(self):
        t = standardize_apart(theory(PARENTS))
        site = next_internal_site(t)
        assert site.var == "z" and site.ys == ("x", "y")
        out = eliminate_one(t, site, FreshNamer.for_theory(t))
        assert PredicateSig("Z0", 2) in {s for f in out.sentences for s in predicates(f)}

    def test_stale_site_rejected(self):
        t = standardize_apart(theory(F6))
        site = next_internal_site(t)
        other = standardize_apart(theory("forall q (P(q) & Q(q))"))
        with pytest.raises(WfomcError, match="stale"):
            eliminate_one(other, site, FreshNamer.for_theory(other))

    def test_fresh_names_skip_user_predicates(self):
        t = standardize_apart(theory("forall x exists y (Z0(x,y) | Sk0(x))"))
        out = eliminate_one(t, next_internal_site(t), FreshNamer.for_theory(t))
        names = {s.name for f in out.sentences for s in predicates(f)}
        assert "Z1" in names and "Sk1" in names


class TestSkolemize:
    def test_builds_one_theory(self, monkeypatch):
        t = theory((SAMPLES / "parents.fol").read_text())
        built = theories_built(monkeypatch)
        out = skolemize(t)
        assert built == [out]

    def test_output_is_skolem_normal_form(self):
        for text in (F6, PARENTS, "forall x (P(x) & exists y Q(y))"):
            out = skolemize(theory(text))
            assert classify_normal_form(out) in ("skolem", "fo-cnf"), text

    def test_identity_on_skolem_input(self):
        t = theory("forall x forall y (~S(x) | ~F(x,y) | S(y))\nweight S 1 2 1")
        out = skolemize(t)
        assert out.sentences == standardize_apart(t).sentences
        assert out.weights.pairs == t.weights.pairs

    def test_elimination_count_matches_internal_quantifiers(self):
        for seed in range(40):
            t = gen_theory(GenConfig(seed=seed))
            apart = standardize_apart(t)
            internal = internal_quantifier_count(apart)
            out = skolemize_full(t)
            fresh = len(out.predicates()) - len(apart.predicates())
            assert fresh == 2 * internal, f"seed {seed}"

    def test_counts_preserved_with_universal_sites(self):
        # an internal universal goes through the double-negation rewrite
        t = theory("(forall x P(x)) | Q(A)\nweight P 1 2 -1")
        out = skolemize(t)
        assert classify_normal_form(out) in ("skolem", "fo-cnf")
        for n in (1, 2, 3):
            d = dom_for(t, n)
            assert wfomc(t, d) == wfomc(out, d)

    def test_counts_preserved_on_the_worked_examples(self):
        for text in (F6, PARENTS):
            t = theory(text)
            out = skolemize(t)
            full = skolemize_full(t)
            for n in (1, 2):
                d = Domain.of_size(n)
                want = wfomc(t, d)
                assert wfomc(out, d) == want
                assert wfomc(full, d) == want

    def test_sites_are_cleared_innermost_first(self):
        # Post-order: b inside a's body, then a, then c.
        out = skolemize(theory("forall x ((exists a (P(a) & exists b Q(x,b))) & exists c R(x,c))"))
        want = theory("""
            forall x (Z1(x) & Z2(x))
            forall x forall b (Z0(x) | ~Q(x,b))
            forall x (Sk0(x) | Z0(x))
            forall x forall b (Sk0(x) | ~Q(x,b))
            forall x forall a (Z1(x) | ~(P(a) & Z0(x)))
            forall x (Sk1(x) | Z1(x))
            forall x forall a (Sk1(x) | ~(P(a) & Z0(x)))
            forall x forall c (Z2(x) | ~R(x,c))
            forall x (Sk2(x) | Z2(x))
            forall x forall c (Sk2(x) | ~R(x,c))
        """)
        assert out.sentences == want.sentences
        assert [(sig.name, out.weights.get(sig)) for sig in out.weights.pairs] == [
            (f"{p}{k}", (1, w)) for k in range(3) for p, w in (("Z", 1), ("Sk", -1))]


class TestPrenexShortcut:
    def test_employment_gives_the_two_clause_theory(self):
        out = to_cnf_distribute(skolemize_prenex_shortcut(theory(F6)))
        texts = [
            "forall x forall y (Sk0(x) | ~WorksFor(x,y))",
            "forall x (Sk0(x) | ~Boss(x))",
        ]
        assert list(out.sentences) == [theory(s).sentences[0] for s in texts]
        assert out.weights.get(PredicateSig("Sk0", 1)) == (1, -1)

    def test_no_definition_predicate_for_single_trailing_existential(self):
        out = skolemize_prenex_shortcut(theory(F6))
        names = {s.name for f in out.sentences for s in predicates(f)}
        assert not any(n.startswith("Z") for n in names)

    def test_twin_existentials_go_through_a_definition_predicate(self):
        out = skolemize_prenex_shortcut(theory(PARENTS))
        names = {s.name for f in out.sentences for s in predicates(f)}
        assert "Z0" in names

    def test_not_prenex_is_an_error(self):
        with pytest.raises(WfomcError, match="skolemize"):
            skolemize_prenex_shortcut(theory("forall x (P(x) & exists y Q(y))"))

    def test_universal_after_existential_is_an_error(self):
        with pytest.raises(WfomcError, match="skolemize"):
            skolemize_prenex_shortcut(theory("exists x forall y P(x,y)"))

    def test_count_equivalent_to_full_elimination(self):
        for text in (F6, PARENTS, "forall x forall y exists z R(x,y,z)"):
            t = theory(text)
            a = skolemize_prenex_shortcut(t)
            b = skolemize_full(t)
            for n in (1, 2, 3):
                if max(base_atoms(a, n), base_atoms(b, n)) > 26:
                    continue
                d = Domain.of_size(n)
                lhs = wfomc(a, d)
                assert lhs == wfomc(b, d) == wfomc(t, d), (text, n)


class TestCnfDistribute:
    def test_or_over_and(self):
        t = theory("forall x (P(x) | Q(x) & R(x))")
        out = to_cnf_distribute(t)
        assert [str(s) for s in out.sentences] == [
            str(theory("forall x (P(x) | Q(x))").sentences[0]),
            str(theory("forall x (P(x) | R(x))").sentences[0]),
        ]
        assert classify_normal_form(out) == "fo-cnf"

    def test_clause_input_unchanged(self):
        t = theory("forall x (P(x) | ~Q(x))")
        assert to_cnf_distribute(t).sentences == t.sentences

    def test_requires_skolem_normal_form(self):
        with pytest.raises(WfomcError, match="[Ss]kolem"):
            to_cnf_distribute(theory(F6))

    def test_counts_preserved(self):
        t = theory("weight P 1 2 -1\nforall x ((P(x) <-> Q(x)) | R(x))")
        out = to_cnf_distribute(t)
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            assert wfomc(t, d) == wfomc(out, d)


class TestCnfTseitin:
    def test_iff_stays_small_without_new_predicates(self):
        t = theory("forall x (P(x) <-> Q(x))")
        out = to_cnf_tseitin(t)
        assert classify_normal_form(out) == "fo-cnf"
        assert len(out.predicates()) == 2
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            assert wfomc(t, d) == wfomc(out, d)

    def test_atom_only_sentence_unchanged(self):
        t = theory("P(A)")
        assert to_cnf_tseitin(t).sentences == t.sentences

    def test_deep_nesting_stays_linear_and_preserves_counts(self):
        text = ("forall x ((P(x) & Q(x) | R(x) & S(x)) & "
                "(T(x) & U(x) | V(x) & W(x)) | (P(x) & V(x) | Q(x) & T(x)))")
        t = theory(text)
        out = to_cnf_tseitin(t)
        assert classify_normal_form(out) == "fo-cnf"
        assert sizes(out) <= 12 * sizes(t)
        d = Domain.of_size(1)
        assert wfomc(t, d) == wfomc(out, d)
        d = Domain.of_size(2)
        assert wfomc(t, d, engine="dpll") == wfomc(out, d, engine="dpll")

    def test_constants_are_dropped_first(self):
        # A matrix in NNF with a constant inside a disjunction.
        t = theory("forall x (P(x) | (Q(x) & true))")
        out = to_cnf_tseitin(t)
        assert classify_normal_form(out) == "fo-cnf"
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            assert wfomc(t, d) == wfomc(out, d)

    def test_nested_biconditionals_are_named_once(self):
        # Each level names its right operand: two clauses for the top and
        # four per definition, where NNF would double every level.
        t = theory("forall x (P(x) <-> (Q(x) <-> (R(x) <-> (S(x) <-> T(x)))))")
        out = to_cnf_tseitin(t)
        assert len(out.sentences) == 2 + 4 * 3
        assert sum(sig.name.startswith("D") for sig in out.predicates()) == 3
        for n in (1, 2):
            d = Domain.of_size(n)
            assert wfomc(t, d) == wfomc(out, d)

    def test_definition_predicates_weighted_one_one(self):
        t = theory("forall x (P(x) | Q(x) & R(x))")
        out = to_cnf_tseitin(t)
        for sig in out.predicates():
            if sig.name.startswith("D"):
                assert out.weights.get(sig) == (1, 1)


class TestUnitPropagate:
    def test_simplifies_the_employment_elimination(self):
        t = standardize_apart(theory(F6))
        raw = eliminate_one(t, next_internal_site(t), FreshNamer.for_theory(t))
        out = unit_propagate(to_cnf_distribute(raw))
        texts = [
            "forall x forall y (Sk0(x) | ~WorksFor(x,y))",
            "forall x (Sk0(x) | ~Boss(x))",
        ]
        assert list(out.sentences) == [theory(s).sentences[0] for s in texts]

    def test_true_matrix_is_skipped(self):
        # A true matrix is no clause at all, not the empty clause.
        t = theory("forall x (P(x) | Q(x))\nforall x true")
        out = unit_propagate(t)
        assert out.sentences == t.sentences[:1]
        assert wfomc(out, Domain.of_size(2)) == wfomc(t, Domain.of_size(2)) == 9

    def test_no_units_unchanged(self):
        t = theory("forall x (P(x) | Q(x))\nforall y (~P(y) | R(y))")
        assert unit_propagate(t).sentences == t.sentences

    def test_contradictory_ground_units(self):
        out = unit_propagate(theory("P(A)\n~P(A)"))
        assert wfomc(out, domain("A")) == 0

    def test_ground_unit_is_kept_but_still_simplifies(self):
        t = theory("P(A)\nforall x (~P(x) | Q(x))\n~P(B) | R(B)")
        out = unit_propagate(t)
        # P(A) stays; the clause over x is untouched (pattern not subsumed);
        # the ground clause loses its falsified literal? No: ~P(B) is not an
        # instance of the unit P(A), so it stays too.
        assert theory("P(A)").sentences[0] in out.sentences
        assert len(out.sentences) == 3

    def test_counts_preserved_with_weights(self):
        t = theory("weight P 1 2 3\nweight Q 1 -1 2\nforall x P(x)\nforall x (P(x) | Q(x))")
        out = unit_propagate(t)
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            assert wfomc(t, d) == wfomc(out, d)

    def test_negative_unit_forces_false_branch(self):
        t = theory("weight P 1 2 3\nforall x ~P(x)\nforall x (P(x) | Q(x))")
        out = unit_propagate(t)
        for n in (1, 2):
            d = Domain.of_size(n)
            assert wfomc(t, d) == wfomc(out, d)

    def test_requires_clausal_theory(self):
        with pytest.raises(WfomcError, match="clausal"):
            unit_propagate(theory("P(A) <-> Q(A)"))

    def test_inner_quantified_variable_is_not_clausal(self):
        with pytest.raises(WfomcError, match="clausal"):
            unit_propagate(theory("forall x exists y R(x,y)"))

    @pytest.mark.parametrize("text", [
        "weight S 1 2 3\nforall x S(x)\nforall x (S(x) -> Q(x))",
        "weight P 1 1/2 2\nforall x P(x)\nforall x ~(P(x) & Q(x))",
        "weight Q 1 3 -1\nforall x (P(x) | false | Q(x))\nforall x ~P(x)",
        "weight R 1 2 5\nforall x (R(x) | true)\nforall x (P(x) | Q(x))",
    ])
    def test_reads_every_clause_shape(self, text):
        # An implication, a negated conjunction and clauses with constants
        # are clauses too; counts equal brute force on the input.
        t = theory(text)
        out = unit_propagate(t)
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            assert wfomc(out, d) == wfomc(t, d)

    def test_tautology_predicate_drops_into_the_scale(self):
        t = theory("weight R 1 2 5\nforall x (R(x) | true)\nforall x (P(x) | Q(x))")
        out = unit_propagate(t)
        assert PredicateSig("R", 1) not in out.predicates()
        assert out.scale == (ScaleFactor(7, 1),)

    @pytest.mark.parametrize("text", [
        "weight P 1 2 1\nforall x (P(x) | Q(x))\nforall x P(x)",
        "forall x (P(x) | Q(x))\nforall x P(x)\nforall x (R(x) | S(x))",
    ])
    def test_unit_after_a_clause_it_satisfies(self, text):
        # The unit is forced once, and the clauses after it all stay.
        t = theory(text)
        out = unit_propagate(t)
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            assert wfomc(out, d) == wfomc(t, d)

    def test_units_apply_lowest_position_first(self):
        # P turns the first clause into the unit Q(x), which applies before
        # the unit S, as a scan restarted after each change would take them;
        # first in, first out would scale by 17 before 5.
        t = theory("weight P 0 2 3\nweight Q 1 5 7\nweight R 0 11 13\nweight S 0 17 19\n"
                   "forall x (~P | Q(x))\nR\nP\nS\nforall x (Q(x) | T(x))")
        out = unit_propagate(t)
        assert out.sentences == ()
        assert out.scale == tuple(ScaleFactor(base, nvars) for base, nvars in
                                  [(11, 0), (2, 0), (5, 1), (17, 0), (2, 1)])

    def test_counts_preserved_under_interacting_units(self):
        # Seeded unit-heavy clause sets: ground, repeated-variable and
        # distinct-variable units meet far more often than in generated
        # theories. Counted by brute force, or by dpll on the 6 sets whose
        # base at 3 constants is past the brute-force cap.
        a = Constant("A")
        for seed in range(300):
            t = transform_sweep.unit_clauses(seed, max_preds=3, max_clauses=6, constants=("A",))
            out = unit_propagate(t)
            for m in (1, 2):
                d = Domain.of_size(m, extra=(a,))
                engine = "brute" if base_atoms(t, len(d)) <= max_atoms_cap() else "dpll"
                assert wfomc(out, d, engine) == wfomc(t, d, engine), f"seed {seed}, m={m}"

    def test_repeated_literal_is_written_once(self):
        out = unit_propagate(theory("forall x (P(x) | P(x) | Q(x))"))
        assert out.sentences == theory("forall x (P(x) | Q(x))").sentences


class TestFloatScale:
    # P's atoms are unconstrained once the tautology is dropped, so its
    # factor wt + wf per atom enters the scale: 0.1 + 0.2 summed exactly,
    # not as the float 0.30000000000000004.
    @pytest.mark.parametrize("transform", [to_cnf_distribute, to_cnf_tseitin, unit_propagate])
    def test_dropped_float_predicate_counts_exactly(self, transform):
        t = theory("forall x (P(x) -> true)\nQ").replace(
            weights=WeightFn({PredicateSig("P", 1): (0.1, 0.2)}, FLOAT))
        out = transform(t)
        assert out.scale == (ScaleFactor(Fraction(0.1) + Fraction(0.2), 1),)
        for n in (1, 2):
            d = Domain.of_size(n)
            assert wfomc(out, d) == wfomc(t, d) == (Fraction(0.1) + Fraction(0.2)) ** n
            assert wfomc(out, d, engine="dpll") == wfomc(t, d)
        # The scale base prints as the float sum, as before.
        assert "scale 0.30000000000000004 1\n" in serialize_theory(out)

    def test_scale_base_past_float_range_prints_exactly(self):
        t = theory("forall x (P(x) | true)").replace(
            weights=WeightFn({PredicateSig("P", 1): (1e308, 1e308)}, FLOAT))
        [line] = [line for line in serialize_theory(to_cnf_distribute(t)).splitlines()
                  if line.startswith("scale ")]
        assert line == f"scale {2 * int(1e308)} 1"


class TestClauseForm:
    TEXT = ("forall x (P(x) -> Q(x))\n"
            "forall x exists y (R(x,y) & Q(y))\n"
            "exists y P(y)\n"
            "forall x (P(x) <-> (Q(x) <-> R(x,x)))")
    RESERVED = (PredicateSig("Sk0", 0), PredicateSig("D0", 2))

    def form(self):
        t = theory(self.TEXT)
        return clause_form(t.sentences, t.predicates() + self.RESERVED)

    def test_literals_are_atom_sign_pairs(self):
        clauses, _ = self.form()
        for lits, _ in clauses:
            assert lits and all(isinstance(a, Atom) and isinstance(p, bool) for a, p in lits)

    def test_clause_shaped_sentences_come_first(self):
        clauses, _ = self.form()
        p, q = formula("P(x)"), formula("Q(x)")
        assert clauses[0] == ([(p, False), (q, True)], [])
        assert clauses[1] == ([(formula("P(y)"), True)], ["y"])
        # Then the Skolemized sentences': the cancellation clause of the
        # existential, and the definitional clauses of the biconditional.
        assert [a.pred.name for a, _ in clauses[2][0]] == ["Sk1", "R", "Q"]
        assert len(clauses) == 2 + 1 + 6
        assert all(not inner for _, inner in clauses[2:])

    def test_added_predicates_and_their_weights(self):
        _, added = self.form()
        assert [sig.name for sig, _ in added] == ["Sk1", "D1"]
        weights = dict(added)
        assert weights[PredicateSig("Sk1", 1)] == (1, -1)
        assert weights[PredicateSig("D1", 1)] == (1, 1)
        reserved = {sig.name for sig in theory(self.TEXT).predicates() + self.RESERVED}
        assert reserved.isdisjoint(sig.name for sig, _ in added)

    def test_skolemizes_without_building_a_theory(self, monkeypatch):
        t = theory("forall x exists y (F(x,y) & G(y))")
        built = theories_built(monkeypatch)
        clauses, added = clause_form(t.sentences, t.predicates())
        assert built == []
        assert added == [(PredicateSig("Sk0", 1), (1, -1))]
        assert [[a.pred.name for a, _ in lits] for lits, _ in clauses] == [["Sk0", "F", "G"]]

    def test_clause_shaped_input_adds_nothing(self):
        t = theory("forall x (P(x) | ~Q(x))\nexists y P(y)\nforall x (Q(x) | true)")
        clauses, added = clause_form(t.sentences, t.predicates())
        assert added == []
        assert len(clauses) == 2


class TestSizeBound:
    def test_skolemize_output_linear_in_input(self):
        # Empirical constant: every elimination copies the eliminated body
        # at most three times plus constant overhead.
        worst = 0
        for seed in range(120):
            t = standardize_apart(gen_theory(GenConfig(seed=seed)))
            out = skolemize(t)
            ratio = sizes(out) / max(sizes(t), 1)
            worst = max(worst, ratio)
            assert sizes(out) <= 6 * sizes(t) + 40, f"seed {seed}: {ratio:.2f}"
        assert worst > 1  # the bound is actually exercised


class TestUnintendedModelCancellation:
    def test_signed_sum_over_relaxed_worlds_is_zero(self):
        # Over the worlds where Boss(A) and WorksFor(A,A) are false, the
        # models with Sk0(A) and those with ~Sk0(A) cancel, under the
        # Skolemized theory's own weights, and neither sum is zero.
        t = theory(F6)
        sk = skolemize(t)
        g = ground(sk, domain("A"))
        atom = {a.pred.name: a for a in g.base.atoms}
        relaxed = {atom["Boss"]: False, atom["WorksFor"]: False}
        with_sk = count_with(g, relaxed | {atom["Sk0"]: True})
        without_sk = count_with(g, relaxed | {atom["Sk0"]: False})
        assert with_sk == -without_sk != 0


class TestStagedElimination:
    def test_counts_constant_across_stages(self):
        t = standardize_apart(theory(F6))
        site = next_internal_site(t)
        stages = staged_elimination(t, site)
        for n in (1, 2):
            d = Domain.of_size(n)
            want = wfomc(t, d)
            assert wfomc(stages.isolate, d) == want
            assert wfomc(stages.split, d) == want
            assert wfomc(stages.feature, d) == want
            assert wfomc(stages.implication, d) == want

    @pytest.mark.parametrize("text", [F6, (SAMPLES / "parents.fol").read_text()],
                             ids=["employment", "parents"])
    def test_last_stage_is_the_elimination_step(self, text):
        t = theory(text)
        std = standardize_apart(t)
        site = next_internal_site(std)
        stages = staged_elimination(t, site)
        assert stages.implication == eliminate_one(std, site, FreshNamer.for_theory(std))

    def test_feature_stage_weights(self):
        t = standardize_apart(theory(F6))
        stages = staged_elimination(t, next_internal_site(t))
        assert stages.feature.weights.get(stages.s) == (1, 0)
        assert stages.implication.weights.get(stages.s) == (1, -1)
        assert stages.isolate.weights.get(stages.z) == (1, 1)


class TestSweep:
    def test_digests_every_output_kind(self, capsys):
        digests = transform_sweep.sweep(range(3))
        samples = len(list(SAMPLES.glob("*.fol")))
        for kind in ("skolemize", "skolemize_full", "skolemize_prenex_shortcut",
                     "next_internal_site", "clause_form", "to_cnf_distribute",
                     "to_cnf_tseitin", "unit_propagate", "to_nnf", "to_prenex", "ground",
                     "count.brute", "count.dpll", "prob.brute", "prob.dpll",
                     "standardize_apart"):
            assert digests[kind][0] == 3 + samples, kind
        # Counts are exact and every answer is within the brute-force cap,
        # so the two engines print the same text.
        assert digests["count.brute"] == digests["count.dpll"]
        assert digests["prob.brute"] == digests["prob.dpll"]
        assert digests["unit_propagate.clauses"][0] == 3
        assert digests["standardize_apart.shadowed"][0] == 3
        for kind, suffix in (("encode_mln", "mln"), ("encode_problog", "plp")):
            models = 3 + len(list(SAMPLES.glob(f"*.{suffix}")))
            assert digests[kind][0] == digests[f"{kind}.prepared"][0] == models, kind
        assert {"eliminate_one", "staged.isolate", "staged.implication"} <= set(digests)
        assert transform_sweep.sweep(range(3)) == digests
        assert transform_sweep.main(["--seeds", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(digests)
