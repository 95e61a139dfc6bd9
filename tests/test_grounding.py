import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import domain, formula, theory
from wfomc import counting, lifted
from wfomc.counting import clauses_of, wfomc
from wfomc.errors import CapExceededError, WfomcError
from wfomc.grounding import expand, ground, herbrand_base
from wfomc.logic import (
    QUANT,
    And,
    Atom,
    Constant,
    Domain,
    ForAll,
    Or,
    PredicateSig,
    Variable,
    children,
    fold_and,
    fold_or,
    standardize_apart,
    substitute,
    with_children,
)
from wfomc.propcheck import GenConfig, gen_theory
from wfomc.transform import skolemize, to_cnf_distribute

ROOT = Path(__file__).resolve().parent.parent


class TestHerbrandBase:
    def test_two_unary_predicates_two_constants(self):
        t = theory("forall x (Stress(x) -> Smokes(x))")
        base = herbrand_base(t, domain("A", "B"))
        assert len(base) == 4

    def test_unary_plus_binary_is_n_plus_n_squared(self):
        t = theory("forall x forall y (S(x) & F(x,y) -> S(y))")
        for n in (1, 2, 3):
            base = herbrand_base(t, Domain.of_size(n))
            assert len(base) == n + n * n

    def test_employment_model_has_six_atoms_at_two(self):
        t = theory("forall x exists y (WorksFor(x,y) | Boss(x))")
        base = herbrand_base(t, domain("A", "B"))
        assert len(base) == 6

    def test_atom_index_outside_the_base_is_an_error(self):
        base = herbrand_base(theory("forall x (P(x) | Q(x))"), domain("A", "B"))
        assert base.atom(len(base) - 1) == Atom(PredicateSig("Q", 1), (Constant("B"),))
        for i in (-1, len(base)):
            with pytest.raises(WfomcError, match=f"atom index {i} outside a Herbrand base of 4 atoms"):
                base.atom(i)

    def test_deterministic_order(self):
        t = theory("forall x forall y (S(x) & F(x,y) -> S(y))")
        base = herbrand_base(t, domain("A", "B"))
        names = [
            f"{a.pred.name}({','.join(c.name for c in a.args)})" for a in base.atoms
        ]
        assert names == ["F(A,A)", "F(A,B)", "F(B,A)", "F(B,B)", "S(A)", "S(B)"]

    def test_missing_constant_is_an_error(self):
        t = theory("P(A)")
        with pytest.raises(WfomcError):
            herbrand_base(t, domain("B"))

    def _base(self):
        # Nullary, unary and binary blocks, then a Skolem block after them.
        t = theory("Q\nforall x forall y (S(x) & F(x,y) -> S(y))")
        return herbrand_base(t, domain("A", "B", "C")).appended([PredicateSig("Sk0", 1)])

    def test_index_atom_index_round_trips(self):
        base = self._base()
        assert len(base) == 9 + 1 + 3 + 3
        assert [sig.name for sig, _ in base.blocks] == ["F", "Q", "S", "Sk0"]
        atoms = base.atoms
        assert len(atoms) == len(base) == len(set(atoms))
        for i, a in enumerate(atoms):
            assert base.atom_index(a) == i
        assert atoms[-1] == Atom(PredicateSig("Sk0", 1), (Constant("C"),))

    @pytest.mark.parametrize("text", ["R(A)", "S(A,A)", "S(D)", "F(A,D)"])
    def test_atom_outside_the_base_is_an_error(self, text):
        with pytest.raises(WfomcError, match="not in the Herbrand base"):
            self._base().atom_index(formula(text))

    def test_non_ground_atom_is_an_error(self):
        base = self._base()
        atom = Atom(PredicateSig("F", 2), (Constant("A"), Variable("x")))
        with pytest.raises(WfomcError, match="not in the Herbrand base"):
            base.atom_index(atom)
        # The layout of an atom with variables places each at the first
        # constant and gives its stride.
        assert base.layout(atom) == (0, {"x": 1})


class TestGround:
    def test_universal_becomes_conjunction_of_clauses(self):
        t = theory("forall x exists y (WorksFor(x,y) | Boss(x))")
        g = ground(t, domain("A", "B"))

        def atom(name, *args):
            return Atom(PredicateSig(name, len(args)), tuple(Constant(c) for c in args))

        # The ground formula: per x, the disjunction over y, Boss(x) once.
        assert g.formula == fold_and([
            fold_or([atom("WorksFor", "A", "A"), atom("Boss", "A"), atom("WorksFor", "A", "B")]),
            fold_or([atom("WorksFor", "B", "A"), atom("Boss", "B"), atom("WorksFor", "B", "B")]),
        ])
        # The clauses instantiated from the sentence are those of the formula.
        want = {frozenset(g.base.atom_index(a) + 1 for a in (atom("WorksFor", x, "A"),
                                                           atom("WorksFor", x, "B"), atom("Boss", x)))
                for x in "AB"}
        assert set(clauses_of(g)) == want

    def test_ground_sentence_maps_to_itself(self):
        t = theory("P(A) -> Q(A)")
        g = ground(t, domain("A"))
        assert g.formula == t.sentences[0]

    def test_singleton_existential_collapses(self):
        t = theory("exists x P(x)")
        g = ground(t, domain("A"))
        assert g.formula == formula("P(A)")

    def test_weights_follow_base_order(self):
        t = theory("weight P 1 2 3\nforall x (P(x) | Q(x))")
        g = ground(t, domain("A"))
        by_atom = dict(zip(g.base.atoms, g.atom_weights))
        p = Atom(PredicateSig("P", 1), (Constant("A"),))
        q = Atom(PredicateSig("Q", 1), (Constant("A"),))
        assert by_atom[p] == (2, 3)
        assert by_atom[q] == (1, 1)

    def test_free_variable_in_a_sentence_is_an_error(self):
        g = ground(theory("forall x (P(x) | Q(x))"), domain("A", "B"))
        g = replace(g, sentences=(formula("P(x)"),))
        with pytest.raises(WfomcError, match="free variable 'x' in a sentence to ground"):
            g.dag

    @pytest.mark.parametrize("counter", [
        counting.wmc_bruteforce, counting.wmc_dpll, clauses_of, counting.export_dimacs, lifted.count,
    ], ids=["brute", "dpll", "clauses_of", "export_dimacs", "lifted"])
    def test_every_counter_refuses_a_free_variable(self, counter):
        # The clause path read x as an outer universal: wmc_dpll gave 8 and
        # clauses_of [{1}, {2}, {3}]. It now refuses, as the grounder does.
        g = ground(theory("forall x (P(x) | Q(x))"), Domain.of_size(3))
        g = replace(g, sentences=(formula("P(x)"),))
        with pytest.raises(WfomcError, match="free variable 'x' in a sentence to ground"):
            counter(g)
        assert counter(replace(g, sentences=(formula("forall x P(x)"),))) is not None

    def test_a_variable_outside_its_quantifier_is_free(self):
        # The clause walk reads y as an inner variable of the clause, and
        # Q(y) lies outside its scope: y is free there.
        g = ground(theory("forall x (P(x) | Q(x))"), Domain.of_size(2))
        g = replace(g, sentences=(formula("forall x ((exists y P(y)) | Q(y))"),))
        for counter in (counting.wmc_dpll, lifted.count):
            with pytest.raises(WfomcError, match="free variable 'y' in a sentence to ground"):
                counter(g)

    def test_one_weight_pair_per_predicate(self):
        # Nine million atoms, one pair: the weights do not grow with the base.
        g = ground(theory("forall x forall y R(x,y)"), Domain.of_size(3000))
        assert len(g.base) == 9_000_000
        assert g.weights == ((1, 1),)


# Reference grounding by substitution: rename bound variables apart, then
# substitute each constant and expand, then deduplicate by list membership.
# Quadratic and recursive in the domain size; fine for n <= 3.
def _reference_expand(f, d):
    if isinstance(f, QUANT):
        cls, fold = (And, fold_and) if isinstance(f, ForAll) else (Or, fold_or)
        return fold(_reference_unique(cls, [
            _reference_expand(substitute(f.body, {f.var: c}), d) for c in d
        ]))
    if isinstance(f, Atom):
        return f
    return with_children(f, tuple(_reference_expand(c, d) for c in children(f)))


def _reference_unique(cls, parts):
    seen = []

    def add(p):
        if isinstance(p, cls):
            for q in p.parts:
                add(q)
        elif p not in seen:
            seen.append(p)

    for p in parts:
        add(p)
    return seen


def _reference_ground(t, d):
    apart = standardize_apart(t)
    return fold_and(_reference_unique(And, [_reference_expand(s, d) for s in apart.sentences]))


class TestGroundMatchesReference:
    def test_generated_theories_original_and_skolemized(self):
        checked = 0
        for seed in range(240):
            t = gen_theory(GenConfig(seed=seed))
            for label, th in (("original", t), ("skolemized", skolemize(t))):
                for n in (1, 2, 3):
                    d = Domain.of_size(n)
                    assert ground(th, d).formula == _reference_ground(th, d), (seed, label, n)
                    checked += 1
        assert checked == 240 * 2 * 3

    @pytest.mark.parametrize("text,want", [
        ("forall x (P(x) & exists x Q(x))", "P(A) & (Q(A) | Q(B)) & P(B)"),
        ("forall x ((exists x Q(x)) & P(x))", "(Q(A) | Q(B)) & P(A) & P(B)"),
    ])
    def test_shadowed_binder(self, text, want):
        t = theory(text)
        d = domain("A", "B")
        assert ground(t, d).formula == formula(want)
        assert _reference_ground(t, d) == formula(want)

    def test_inner_binder_shadows_the_initial_environment(self):
        f = formula("(exists x Q(x)) & P(x)")
        d = domain("A", "B")
        got = expand(f, d, {"x": Constant("A")})
        assert got == formula("(Q(A) | Q(B)) & P(A)")
        assert got == _reference_expand(substitute(f, {"x": Constant("A")}), d)

    def test_unbound_variables_stay_free(self):
        assert expand(formula("P(x) | exists y Q(y)"), domain("A")) == formula("P(x) | Q(A)")


class TestDepth:
    def test_stress_grounds_at_5000(self):
        t = theory((ROOT / "samples" / "stress.fol").read_text())
        d = Domain.of_size(5000)
        g = ground(t, d)
        assert len(g.base) == 10000
        assert len(clauses_of(ground(to_cnf_distribute(t), d))) == 5000

    def test_long_disjunction_as_a_conjunct(self):
        # The existential's 5000-way disjunction is an element of the
        # top-level conjunction, kept as one node with its atoms in order.
        g = ground(theory("exists y R(y)"), Domain.of_size(5000))
        r = PredicateSig("R", 1)
        assert g.formula == Or(*(Atom(r, (Constant(f"C{k}"),)) for k in range(1, 5001)))


class TestBruteCap:
    def test_refuses_before_grounding(self, monkeypatch):
        def no_ground(*_):
            raise AssertionError("grounded before checking the cap")

        monkeypatch.setattr(counting, "ground", no_ground)
        t = theory("forall x (Stress(x) -> Smokes(x))")
        with pytest.raises(CapExceededError, match="2400 atoms"):
            wfomc(t, Domain.of_size(1200), engine="brute")

    def test_cli_exits_three_without_a_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "wfomc.cli", "count", str(ROOT / "samples" / "stress.fol"),
             "--domain-size", "1200", "--engine", "brute"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
