import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import domain, theory
from wfomc import _kernels as K
from wfomc.encoders import _eval_ground
from wfomc.errors import CapExceededError, WfomcError
from wfomc.counting import (
    clauses_of,
    compile_program,
    export_dimacs,
    tseitin_ground,
    weighted_models,
    wfomc,
    wmc_bruteforce,
    wmc_dpll,
)
from wfomc.grounding import HerbrandBase, ground
from wfomc.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Domain,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSig,
    WeightFn,
    WeightedTheory,
    fold_or,
)

WEIGHT_POOL = [
    Fraction(1), Fraction(1), Fraction(-1), Fraction(2),
    Fraction(1, 2), Fraction(3, 10), Fraction(0), Fraction(-2, 3),
]


def random_ground_problem(rng, max_atoms=10, max_clauses=14):
    n = rng.randint(1, max_atoms)
    sigs = [PredicateSig(f"P{i}", 0) for i in range(n)]
    atoms = [Atom(s, ()) for s in sigs]
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        k = rng.randint(1, min(3, n))
        lits = [a if rng.random() < 0.5 else Not(a) for a in rng.sample(atoms, k)]
        clauses.append(fold_or(lits))
    weights = {s: (rng.choice(WEIGHT_POOL), rng.choice(WEIGHT_POOL)) for s in sigs}
    t = WeightedTheory(tuple(clauses), WeightFn(weights))
    return ground(t, Domain.of_size(1))


class TestBruteForce:
    def test_single_clause_model_count_three(self):
        g = ground(theory("Stress(A) -> Smokes(A)"), domain("A"))
        assert wmc_bruteforce(g) == 3

    def test_true_formula_counts_all_assignments(self):
        g = ground(theory("P(A) | ~P(A)\nQ(A) | ~Q(A)"), domain("A"))
        assert wmc_bruteforce(g) == 4

    def test_single_weighted_atom(self):
        g = ground(theory("weight P 1 3/10 7/10\nP(A)"), domain("A"))
        assert wmc_bruteforce(g) == Fraction(3, 10)

    def test_cap_exceeded_directs_to_dpll(self):
        t = theory("forall x forall y (S(x) & F(x,y) -> S(y))")
        g = ground(t, Domain.of_size(5))  # 30 atoms
        with pytest.raises(CapExceededError, match="dpll"):
            wmc_bruteforce(g)

    def test_cap_override_via_argument(self):
        t = theory("forall x (P(x) | Q(x))")
        g = ground(t, Domain.of_size(2))
        with pytest.raises(CapExceededError):
            wmc_bruteforce(g, cap=3)

    def test_partition_independence(self):
        t = theory("weight P 1 2 -1\nforall x forall y (P(x) | Q(x,y))")
        g = ground(t, Domain.of_size(2))
        values = {
            wmc_bruteforce(g, block_bits=bits) for bits in (1, 3, 6, 9, 18)
        }
        assert len(values) == 1

    def test_float_mode(self):
        t = theory("forall x (P(x) | Q(x))")
        t = t.replace(weights=WeightFn({PredicateSig("P", 1): (2.0, 1.0)}, "float"))
        g = ground(t, Domain.of_size(1))
        # worlds: P Q / P ~Q / ~P Q  ->  2 + 2 + 1
        assert wmc_bruteforce(g) == pytest.approx(5.0)


def random_ground_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        return TRUE if r < 0.1 else FALSE if r < 0.2 else rng.choice(atoms)
    cls = rng.choice([Not, And, Or, Implies, Iff])
    if cls is Not:
        return Not(random_ground_formula(rng, atoms, depth - 1))
    return cls(random_ground_formula(rng, atoms, depth - 1),
               random_ground_formula(rng, atoms, depth - 1))


ALL_OPS = {K.OP_LOAD, K.OP_NOT, K.OP_AND, K.OP_OR, K.OP_IMP, K.OP_IFF,
           K.OP_TRUE, K.OP_FALSE}


class TestKernels:
    def test_mask_matches_ground_evaluator(self):
        # Oracle: the recursive evaluator from the encoders, one world at a
        # time. Nine atoms give 512 assignments, so bits above 5 (constant
        # per word) and blocks that start past word 0 are both exercised.
        atoms = [Atom(PredicateSig(f"P{i}", 0), ()) for i in range(9)]
        base = HerbrandBase(tuple(atoms), {a: i for i, a in enumerate(atoms)})
        rng = random.Random(7)
        checked = 0
        while checked < 30:
            f = random_ground_formula(rng, atoms, 6)
            prog = compile_program(f, base)
            if set(prog.ops.tolist()) != ALL_OPS:
                continue
            m = len(prog.atoms)
            expected = np.array([
                _eval_ground(f, {atoms[prog.atoms[i]] for i in range(m) if a >> i & 1})
                for a in range(1 << m)
            ], dtype=np.uint8)
            full = K.satisfying_mask(prog.ops, prog.args, prog.stack_need, 0, 1 << m)
            assert np.array_equal(full, expected)
            step = min(64, 1 << m)
            for start in range(0, 1 << m, step):
                block = K.satisfying_mask(prog.ops, prog.args, prog.stack_need, start, step)
                assert np.array_equal(block, expected[start:start + step])
            checked += 1

    def test_unaligned_block_start_is_rejected(self):
        prog = compile_program(TRUE, HerbrandBase((), {}))
        with pytest.raises(ValueError, match="aligned"):
            K.satisfying_words(prog.ops, prog.args, prog.stack_need, 32, 64)

    def test_popcount_ignores_trailing_lanes(self):
        ones = np.full(2, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        assert K.popcount(ones, 70) == 70
        assert K.popcount(ones[:1], 5) == 5
        assert K.popcount(ones, 128) == 128  # masking left the words intact


class TestDefinitionLifting:
    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_true_theory_factorizes_over_predicates(self, seed):
        rng = random.Random(seed)
        sigs = [PredicateSig(f"P{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3))]
        weights = {s: (rng.choice(WEIGHT_POOL), rng.choice(WEIGHT_POOL)) for s in sigs}
        # tautological clauses keep every predicate in the base
        sentences = []
        from wfomc.logic import ForAll, Variable

        for s in sigs:
            args = tuple(Variable("x") for _ in range(s.arity))
            a = Atom(s, args)
            body = Or(a, Not(a))
            for _ in range(s.arity):
                body = ForAll("x", body)
            sentences.append(body)
        t = WeightedTheory(tuple(sentences), WeightFn(weights))
        n = rng.randint(1, 3)
        while sum(n ** s.arity for s in sigs) > 26:
            n -= 1
        expected = Fraction(1)
        for s in sigs:
            wt, wf = weights[s]
            expected *= (wt + wf) ** (n ** s.arity)
        assert wfomc(t, Domain.of_size(n)) == expected

    def test_exponentiation_law(self):
        t = theory("forall x (Stress(x) -> Smokes(x))")
        base = wfomc(t, Domain.of_size(1))
        for n in range(1, 6):
            assert wfomc(t, Domain.of_size(n)) == base ** n

    def test_nested_law_625(self):
        t = theory("forall x forall y (Parent(x,y) & Female(x) -> Mother(x,y))")
        assert wfomc(t, Domain.of_size(2)) == 625


class TestDpll:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20240809)
        for _ in range(120):
            g = random_ground_problem(rng)
            assert wmc_dpll(g) == wmc_bruteforce(g)

    def test_unsatisfiable_is_exactly_zero(self):
        g = ground(theory("P(A)\n~P(A)"), domain("A"))
        assert wmc_dpll(g) == 0
        assert isinstance(wmc_dpll(g), Fraction)

    def test_component_product(self):
        g = ground(
            theory("Stress(A) -> Smokes(A)\nStress(B) -> Smokes(B)"),
            domain("A", "B"),
        )
        # no CNF conversion needed after clause extraction fails -> use wfomc
        t = theory("~Stress(A) | Smokes(A)\n~Stress(B) | Smokes(B)")
        g = ground(t, domain("A", "B"))
        assert wmc_dpll(g) == 9

    def test_requires_cnf(self):
        g = ground(theory("P(A) <-> Q(A)"), domain("A"))
        with pytest.raises(WfomcError, match="CNF"):
            wmc_dpll(g)

    def test_engine_dispatch_with_ground_tseitin(self):
        t = theory("P(A) <-> Q(A)")
        assert wfomc(t, domain("A"), engine="dpll") == 2
        assert wfomc(t, domain("A"), engine="brute") == 2


class TestGroundTseitin:
    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_preserves_weighted_counts(self, seed):
        rng = random.Random(seed)
        # random non-CNF formulas over few atoms, random weights
        sigs = [PredicateSig(f"P{i}", 0) for i in range(rng.randint(1, 4))]
        atoms = [Atom(s, ()) for s in sigs]

        def gen(depth):
            if depth == 0 or rng.random() < 0.3:
                a = rng.choice(atoms)
                return a if rng.random() < 0.7 else Not(a)
            cls = rng.choice([And, Or, Implies, Iff])
            return cls(gen(depth - 1), gen(depth - 1))

        sentences = tuple(gen(3) for _ in range(rng.randint(1, 2)))
        weights = {s: (rng.choice(WEIGHT_POOL), rng.choice(WEIGHT_POOL)) for s in sigs}
        t = WeightedTheory(sentences, WeightFn(weights))
        g = ground(t, Domain.of_size(1))
        gt = tseitin_ground(g)
        assert clauses_of(gt) is not None
        assert wmc_bruteforce(gt) == wmc_bruteforce(g)
        assert wmc_dpll(gt) == wmc_bruteforce(g)


class TestModelEnumeration:
    def test_weighted_models_sum_equals_count(self):
        t = theory("weight P 1 2 -1\nforall x (P(x) | Q(x))")
        g = ground(t, Domain.of_size(2))
        total = sum(w for _, w in weighted_models(g))
        assert total == wmc_bruteforce(g)


class TestDimacsExport:
    def test_cnf_with_weight_comments(self):
        t = theory("weight P 1 3/10 7/10\nforall x (P(x) | ~Q(x))")
        g = ground(t, domain("A"))
        text = export_dimacs(g)
        lines = text.splitlines()
        assert lines[0] == "p cnf 2 1"
        assert "c wght 1 3/10" in lines
        assert "c wght -1 7/10" in lines
        assert lines[-1].endswith(" 0")

    def test_rejects_non_cnf(self):
        g = ground(theory("P(A) <-> Q(A)"), domain("A"))
        with pytest.raises(WfomcError):
            export_dimacs(g)
