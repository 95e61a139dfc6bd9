from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import domain, formula, theory
from wfomc.errors import WfomcError
from wfomc.logic import (
    Atom,
    Constant,
    Domain,
    Exists,
    ForAll,
    FreshNamer,
    PredicateSig,
    Variable,
    WeightFn,
    WeightedTheory,
    classify_normal_form,
    first_occurrence_vars,
    fold_or,
    free_vars,
    rename_bound,
    standardize_apart,
    subformulas,
    substitute,
)


class TestBasicTypes:
    def test_predicate_sig_validation(self):
        PredicateSig("WorksFor", 2)
        PredicateSig("p_1", 0)
        with pytest.raises(WfomcError):
            PredicateSig("", 0)
        with pytest.raises(WfomcError):
            PredicateSig("1bad", 1)
        with pytest.raises(WfomcError):
            PredicateSig("P", -1)

    def test_sig_equality_needs_name_and_arity(self):
        assert PredicateSig("P", 1) == PredicateSig("P", 1)
        assert PredicateSig("P", 1) != PredicateSig("P", 2)
        assert PredicateSig("P", 1) != PredicateSig("Q", 1)

    def test_atom_arity_mismatch_is_a_construction_error(self):
        with pytest.raises(WfomcError):
            Atom(PredicateSig("P", 2), (Variable("x"),))

    def test_variable_must_start_lowercase(self):
        with pytest.raises(WfomcError):
            Variable("X")

    def test_empty_domain_rejected(self):
        with pytest.raises(WfomcError):
            Domain(())

    def test_duplicate_domain_constant_rejected(self):
        with pytest.raises(WfomcError):
            domain("A", "A")

    def test_theory_rejects_open_sentences(self):
        with pytest.raises(WfomcError):
            WeightedTheory((formula("P(x)"),))

    def test_theory_rejects_inconsistent_arity(self):
        with pytest.raises(WfomcError):
            WeightedTheory((formula("P(A) & P(A,B)"),))

    def test_weightfn_mode_never_mixes(self):
        with pytest.raises(WfomcError):
            WeightFn({PredicateSig("P", 0): (0.5, Fraction(1))})
        # ints coerce to exact rationals
        wf = WeightFn({PredicateSig("P", 0): (1, -1)})
        assert wf.get(PredicateSig("P", 0)) == (Fraction(1), Fraction(-1))

    def test_weightfn_defaults_to_one_one(self):
        assert WeightFn().get(PredicateSig("Q", 3)) == (Fraction(1), Fraction(1))


class TestFreeVars:
    def test_unquantified_implication(self):
        assert free_vars(formula("Stress(x) -> Smokes(x)")) == {"x"}

    def test_closed_sentence(self):
        assert free_vars(formula("forall x (Stress(x) -> Smokes(x))")) == set()

    def test_partially_quantified(self):
        assert free_vars(formula("exists y (WorksFor(x,y) | Boss(x))")) == {"x"}

    def test_shadowed_variable_is_free_outside_its_binder(self):
        f = formula("(exists x P(x)) & Q(y, x) | forall y R(y)")
        assert first_occurrence_vars(f) == ("y", "x")

    def test_long_fold_needs_no_recursion(self):
        f = fold_or([Atom(PredicateSig(f"P{i}", 1), (Variable("x"),)) for i in range(5000)])
        assert free_vars(f) == {"x"}
        assert free_vars(ForAll("x", f)) == set()


class TestSubstitute:
    def test_ground_instance(self):
        f = formula("Stress(x) -> Smokes(x)")
        assert substitute(f, {"x": Constant("A")}) == formula("Stress(A) -> Smokes(A)")

    def test_empty_binding_is_identity(self):
        f = formula("forall x (P(x))")
        assert substitute(f, {}) is f

    def test_bound_variables_untouched(self):
        f = formula("exists y F(x,y)")
        assert substitute(f, {"x": Constant("A")}) == formula("exists y F(A,y)")

    def test_binding_a_quantified_variable_errors(self):
        f = formula("exists y F(x,y)")
        with pytest.raises(WfomcError):
            substitute(f, {"y": Constant("A")})

    def test_capture_avoidance(self):
        f = formula("exists y F(x,y)")
        out = substitute(f, {"x": Variable("y")})
        # The bound y must be renamed; F's first argument stays the free y.
        assert isinstance(out, Exists)
        assert out.var != "y"
        inner = out.body
        assert inner.args[0] == Variable("y")
        assert inner.args[1] == Variable(out.var)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_composition_on_disjoint_domains(self, seed):
        # substitute(substitute(f, s1), s2) == substitute(f, s2 after s1)
        # when the bindings touch disjoint variables and introduce constants.
        f = formula("P(x) & Q(y) | R(x,z)")
        import random

        rng = random.Random(seed)
        consts = [Constant(n) for n in ("A", "B", "C")]
        vars_ = ["x", "y", "z"]
        rng.shuffle(vars_)
        s1 = {vars_[0]: rng.choice(consts)}
        s2 = {vars_[1]: rng.choice(consts)}
        combined = dict(s1)
        combined.update(s2)
        assert substitute(substitute(f, s1), s2) == substitute(f, combined)


class TestStandardizeApart:
    def test_two_sentences_sharing_a_variable(self):
        t = theory("forall x P(x)\nforall x Q(x)")
        out = standardize_apart(t)
        v1 = out.sentences[0].var
        v2 = out.sentences[1].var
        assert v1 != v2

    def test_idempotent_on_already_apart(self):
        t = theory("forall x P(x)\nforall y Q(y)")
        assert standardize_apart(t).sentences == t.sentences

    def test_shadowing_eliminated(self):
        t = theory("forall x (P(x) & exists x Q(x))")
        out = standardize_apart(t).sentences[0]
        assert isinstance(out, ForAll)
        inner = [g for g in subformulas(out) if isinstance(g, Exists)][0]
        assert inner.var != out.var
        # the inner atom refers to the renamed variable
        q_atom = [g for g in subformulas(inner) if isinstance(g, Atom)][0]
        assert q_atom.args[0] == Variable(inner.var)

    def test_rename_bound_avoids_used_names(self):
        used = {"x", "y"}
        out = rename_bound(formula("(forall x P(x)) & (exists x Q(x,y))"), used)
        assert out == formula("(forall x_1 P(x_1)) & (exists x_2 Q(x_2,y))")
        assert used == {"x", "y", "x_1", "x_2"}

    def test_fresh_names_take_linear_lookups(self, monkeypatch):
        # Fresh names cost a bounded number of set lookups each: bound
        # variables within one call and across calls over one FreshNamer,
        # and the Z and Sk predicates of the sites of one Skolemization.
        lookups = []

        class Counted(set):
            def __contains__(self, name):
                lookups.append(name)
                return super().__contains__(name)

        m = 300
        names = FreshNamer(Counted())
        rename_bound(formula(" & ".join(f"(exists y P{i}(y))" for i in range(m))), names)
        assert len(lookups) <= 3 * m
        lookups.clear()
        for i in range(m):
            rename_bound(formula(f"exists y Q{i}(y)"), names)
        assert len(lookups) <= 3 * m
        assert names.used == {"y"} | {f"y_{k}" for k in range(1, 2 * m)}

        from wfomc.transform import skolemize_full

        lookups.clear()
        monkeypatch.setattr(FreshNamer, "for_theory", classmethod(
            lambda cls, t: cls(Counted(sig.name for sig in t.predicates()))))
        t = theory("\n".join(f"forall x exists y R{i}(x,y)" for i in range(m))
                   + "\nZ0 & Z1 & Sk0 & Sk2")
        out = skolemize_full(t)
        assert len(lookups) <= 3 * m
        fresh = {sig.name for sig in out.predicates()} - {sig.name for sig in t.predicates()}
        assert fresh == {f"Z{k}" for k in range(2, m + 2)} | {"Sk1"} | {
            f"Sk{k}" for k in range(3, m + 2)}

    def test_preserves_counts_on_small_domains(self):
        from wfomc.counting import wfomc

        t = theory("forall x (P(x) & exists x Q(x))\nforall x (Q(x) | P(x))")
        out = standardize_apart(t)
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            assert wfomc(t, d) == wfomc(out, d)

    def test_preserves_counts_on_random_theories(self):
        from wfomc.counting import wfomc
        from wfomc.propcheck import GenConfig, gen_theory

        for seed in range(25):
            t = gen_theory(GenConfig(seed=seed))
            out = standardize_apart(t)
            for n in (1, 2, 3):
                if sum(n ** s.arity for s in t.predicates()) > 16:
                    continue
                d = Domain.of_size(n)
                assert wfomc(t, d) == wfomc(out, d), (seed, n)


class TestClassify:
    def test_prenex_clausal_not_skolem(self):
        t = theory("forall x exists y (WorksFor(x,y) | Boss(x))")
        assert classify_normal_form(t) == "prenex-clausal"

    def test_fo_cnf(self):
        t = theory("forall x forall y (~S(x) | ~F(x,y) | S(y))")
        assert classify_normal_form(t) == "fo-cnf"

    def test_quantifier_free_non_clausal_is_skolem(self):
        t = theory("P(A) <-> Q(A)")
        assert classify_normal_form(t) == "skolem"

    def test_arbitrary(self):
        t = theory("forall x (P(x) & exists y Q(y))")
        assert classify_normal_form(t) == "arbitrary"

    def test_prenex_only(self):
        t = theory("forall x exists y (P(x) <-> Q(y))")
        assert classify_normal_form(t) == "prenex"

    def test_fo_cnf_sentences_are_universal_clauses(self):
        from wfomc.logic import is_clause, strip_foralls

        t = theory("forall x (~P(x) | Q(x))\nP(A)")
        assert classify_normal_form(t) == "fo-cnf"
        for s in t.sentences:
            _, matrix = strip_foralls(s)
            assert is_clause(matrix)
