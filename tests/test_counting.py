import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import domain, formula, theory
from wfomc import _kernels as K, counting, grounding
from wfomc.encoders import _eval_ground, encode_mln, encode_problog, query_probability
from wfomc.errors import CapExceededError, WfomcError
from wfomc.frontends import parse_mln, parse_problog
from wfomc.counting import (
    ENGINES,
    clauses_of,
    compile_program,
    export_dimacs,
    tseitin_ground,
    weighted_models,
    wfomc,
    wmc_bruteforce,
    wmc_dpll,
)
from wfomc.grounding import GroundProblem, HerbrandBase, ground
from wfomc.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Constant,
    Domain,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSig,
    ScaleFactor,
    Variable,
    WeightFn,
    WeightedTheory,
    fold_or,
)
from wfomc.propcheck import GenConfig, gen_theory
from wfomc.transform import clause_walk, skolemize, to_cnf_distribute

from perfbench.workloads import SMOKERS_WEIGHTS, mln_boss_probability, smokers_count

ROOT = Path(__file__).resolve().parents[1]

P_, Q_ = (Atom(PredicateSig(name, 0), ()) for name in "PQ")

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

    def test_zero_weight_table_next_to_large_weights(self):
        # The weights of Q make one enumeration table all zeros, while P's
        # table holds 10^20, past int64.
        g = ground(theory("weight P 0 100000000000000000000 1\nweight Q 0 0 0\nP | Q"),
                   domain("A"))
        assert wmc_bruteforce(g) == 0

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

    def test_partition_independence(self, monkeypatch):
        # 12 used atoms: 64, 8 and 1 block(s) of assignments. Per constant,
        # P true leaves its three Q atoms free (2 * 2^3 with weights (2, -1),
        # 1 * 2^3 unweighted), P false forces them true.
        text = "forall x forall y (P(x) | Q(x,y))"
        for weights, count in (("weight P 1 2 -1\n", 15 ** 3), ("", 9 ** 3)):
            g = ground(theory(weights + text), Domain.of_size(3))
            assert len(compile_program(g.formula, g.base).atoms) == 12
            for bits in (6, 9, 18):
                monkeypatch.setattr(counting, "_BLOCK_BITS", bits)
                assert wmc_bruteforce(g) == count, (weights, bits)

    def test_sum_in_several_int64_segments(self):
        # Every product is at most (24 * 25)^6 < 2^56, so int64 segments
        # hold 98 products each, and the 729 models need 8 of them; their
        # sum 1728^6 = 12^18 is past 2^63.
        t = theory("weight P 1 24 23\nweight Q 1 24 25\nforall x (P(x) | Q(x))")
        d = Domain.of_size(6)
        bound = (24 * 25) ** 6
        assert 2 ** 50 < bound < 2 ** 62 < 2 ** 63 < 12 ** 18
        assert wmc_bruteforce(ground(t, d)) == 12 ** 18
        assert wfomc(t, d, engine="dpll") == 12 ** 18

    def test_sum_past_int64_over_several_blocks(self, monkeypatch):
        # Products reach (2^40 * 2^30)^6 = 2^420, and 64-assignment blocks
        # split the 4096 assignments into 64 blocks. The weight -3 makes
        # the sum alternate.
        monkeypatch.setattr(counting, "_BLOCK_BITS", 6)
        t = theory("weight P 1 1099511627776 -3\nweight Q 1 5 1073741824\n"
                   "forall x (P(x) | Q(x))")
        d = Domain.of_size(6)
        per_constant = 2 ** 40 * 5 + 2 ** 40 * 2 ** 30 - 3 * 5
        assert wmc_bruteforce(ground(t, d)) == per_constant ** 6
        assert wfomc(t, d, engine="dpll") == per_constant ** 6

    def test_cap_is_checked_before_grounding(self, monkeypatch):
        # ground computes the scale factor 3^(n^2) first: 3^(10^10) here.
        def fail(*args):
            raise AssertionError("ground was called")

        monkeypatch.setattr(counting, "ground", fail)
        t = theory("scale 3 2\nforall x P(x)")
        with pytest.raises(CapExceededError, match="100000 atoms"):
            wfomc(t, Domain.of_size(100000))

    def test_float_mode(self):
        t = theory("forall x (P(x) | Q(x))")
        t = t.replace(weights=WeightFn({PredicateSig("P", 1): (2.0, 1.0)}, "float"))
        g = ground(t, Domain.of_size(1))
        # worlds: P Q / P ~Q / ~P Q  ->  2 + 2 + 1, counted exactly
        assert wmc_bruteforce(g) == 5


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
        base = HerbrandBase(()).appended(a.pred for a in atoms)
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

    @pytest.mark.parametrize("start,n", [(32, 64), (8, 8)])
    def test_unaligned_block_start_is_rejected(self, start, n):
        # At start 8 the evaluator would read lanes 0-7 of word 0: lane 0
        # is false, though assignment 8 satisfies P0 | P1 | P2 | P3.
        atoms = [Atom(PredicateSig(f"P{i}", 0), ()) for i in range(4)]
        base = HerbrandBase(()).appended(a.pred for a in atoms)
        prog = compile_program(fold_or(atoms), base)
        with pytest.raises(ValueError, match="aligned"):
            K.satisfying_words(prog.ops, prog.args, prog.stack_need, start, n)

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

    def test_unknown_engine_names_every_engine(self):
        with pytest.raises(WfomcError) as e:
            wfomc(theory("P"), domain("A"), engine="nope")
        assert str(e.value).startswith("unknown engine 'nope'")
        assert all(repr(name) in str(e.value) for name in ENGINES)

    def test_engine_dispatch_with_ground_tseitin(self):
        t = theory("P(A) <-> Q(A)")
        assert wfomc(t, domain("A"), engine="dpll") == 2
        assert wfomc(t, domain("A"), engine="brute") == 2

    def test_complementary_units_count_zero(self):
        t = theory("weight P 0 3/10 -1\nweight Q 0 2 1/2\nP\n~P\nQ | P")
        got = wmc_dpll(ground(t, domain("A")))
        assert got == 0 and isinstance(got, Fraction)
        t = t.replace(weights=WeightFn({PredicateSig("P", 0): (0.3, -1.0)}, "float"))
        got = wmc_dpll(ground(t, domain("A")))
        assert got == Fraction(0) and isinstance(got, Fraction)

    def test_larger_random_cnfs_match_brute_force(self):
        rng = random.Random(44)
        for _ in range(40):
            g = random_ground_problem(rng, max_atoms=16, max_clauses=40)
            assert wmc_dpll(g) == wmc_bruteforce(g)

    def test_float_mode_matches_float_brute_force(self):
        # Float weights count as their exact binary values on both engines.
        rng = random.Random(45)
        for _ in range(40):
            g = random_ground_problem(rng, max_atoms=12, max_clauses=30)
            pairs = {sig: (float(wt), float(wf)) for (sig, _), (wt, wf) in zip(g.base.blocks, g.weights)}
            t = WeightedTheory(g.sentences, WeightFn(pairs, "float"))
            g = ground(t, Domain.of_size(1))
            assert all(isinstance(w, Fraction) for pair in g.weights for w in pair)
            got = wmc_dpll(g)
            assert isinstance(got, Fraction) and got == wmc_bruteforce(g)

    @pytest.mark.parametrize("st,sf,ft,ff", [
        (Fraction(3, 10), Fraction(-1), Fraction(-1), Fraction(3, 10)),
        (Fraction(-1), Fraction(3, 10), Fraction(3, 10), Fraction(-1)),
    ])
    def test_smokers_closed_form(self, st, sf, ft, ff):
        # With k smokers, the k(n-k) friendships from a smoker to a
        # non-smoker are false; every other F atom is free.
        t = theory(f"weight S 1 {st} {sf}\nweight F 2 {ft} {ff}\n"
                   "forall x forall y (S(x) & F(x,y) -> S(y))")
        for n in (*range(1, 6), 8, 10):
            want = sum(math.comb(n, k) * st ** k * sf ** (n - k)
                       * ff ** (k * (n - k)) * (ft + ff) ** (n * n - k * (n - k))
                       for k in range(n + 1))
            assert wfomc(t, Domain.of_size(n), engine="dpll") == want

    def test_stress_units_at_3000(self):
        # 3000 independent two-literal clauses, one component each.
        t = theory((ROOT / "samples" / "stress.fol").read_text())
        assert wfomc(t, Domain.of_size(3000), engine="dpll") == 3 ** 3000

    def test_units_propagate_at_3000(self):
        # 3000 unit clauses force 3000 more units in the next pass; a
        # recursion per unit would pass the interpreter's limit.
        t = theory("forall x Stress(x)\nforall x (Stress(x) -> Smokes(x))")
        assert wfomc(t, Domain.of_size(3000), engine="dpll") == 1

    def test_definition_chain_under_a_low_recursion_limit(self):
        # Neither clause form nor search may nest a call per constant: 60
        # frames above the caller's depth are enough at n=150.
        t = theory("exists y (R(y) & S(y))")
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            got = wfomc(t, Domain.of_size(150), engine="dpll")
        finally:
            sys.setrecursionlimit(limit)
        assert got == 4 ** 150 - 3 ** 150

    def test_smokers_memo_entries_at_16(self, monkeypatch):
        # The symmetric cache holds 136 components at n=16, where a cache
        # keyed by the literal clause set held 131 069.
        counters = _record_counters(monkeypatch)
        t = theory((ROOT / "samples" / "smokers.fol").read_text())
        assert wfomc(t, Domain.of_size(16), engine="dpll") == _smokers_closed_form(16)
        assert [len(c.memo) for c in counters] == [136]

    @pytest.mark.parametrize("name,n,want,entries", [
        ("boss", 12, (2 ** 13 - 1) ** 12, 1),
        ("parents", 6, (2 ** 37 - 1) ** 6, 11),
        ("employment", 11, mln_boss_probability(11, 1.3), 2),
    ], ids=["boss", "parents", "employment"])
    def test_skolemized_memo_entries(self, monkeypatch, name, n, want, entries):
        # Skolem and definition blocks weigh one pair each, so the key
        # renames their atoms with the rest: boss's n components share one
        # entry. The MLN query Pr(Boss(A)) over n - 1 constants and A runs
        # on the encoder's skolemized theory.
        counters = _record_counters(monkeypatch)
        if name == "employment":
            e = encode_mln(parse_mln((ROOT / "samples" / "employment.mln").read_text()))
            d = Domain.of_size(n - 1, extra=(Constant("A"),))
            got = query_probability(e, d, formula("Boss(A)"), engine="dpll")
            assert got == pytest.approx(want, rel=1e-12)
        else:
            t = skolemize(theory((ROOT / "samples" / f"{name}.fol").read_text()))
            assert wfomc(t, Domain.of_size(n), engine="dpll") == want
        assert [len(c.memo) for c in counters] == [entries]

    def test_per_block_problem_matches_brute_force(self):
        # A hand-built problem: a nullary block and a binary block, with
        # fractional and negative weights, one pair each.
        p, r = PredicateSig("P", 0), PredicateSig("R", 2)
        base = HerbrandBase((Constant("A"), Constant("B"))).appended((p, r))
        x, y = Variable("x"), Variable("y")
        sentences = (ForAll("x", ForAll("y", Or(Atom(p, ()), Not(Atom(r, (x, y)))))),
                     ForAll("x", Exists("y", Atom(r, (x, y)))))
        weights = ((Fraction(-3, 7), Fraction(5, 2)), (Fraction(-1, 2), Fraction(2, 3)))
        g = GroundProblem(base, weights, Fraction(3, 4), sentences)
        brute = wmc_bruteforce(g)
        assert brute != 0 and wmc_dpll(g) == brute == wmc_dpll(tseitin_ground(g))

    def test_weights_must_match_the_blocks(self):
        g = ground(theory("forall x (P(x) | Q(x))"), Domain.of_size(3))
        with pytest.raises(WfomcError, match="6 weight pair"):
            replace(g, weights=g.atom_weights)
        with pytest.raises(WfomcError, match="1 weight pair"):
            replace(g, weights=g.weights[:1])

    def test_numpy_loads_only_for_brute_force(self):
        code = (
            "import sys, wfomc\n"
            "from wfomc.logic import Domain\n"
            "t = wfomc.skolemize(wfomc.parse_theory('forall x exists y F(x,y)')[0])\n"
            "assert wfomc.wfomc(t, Domain.of_size(3), engine='dpll') == 343\n"
            "print('numpy' in sys.modules)\n"
            "assert wfomc.wfomc(t, Domain.of_size(2)) == 9\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


class TestSymmetricKey:
    """The DPLL memo shares counts among components that differ by a
    renaming of the domain constants; these cases check that it shares
    only counts that are equal."""

    def test_generated_theories_match_brute_force(self):
        checked = 0
        for seed in range(0, 400, 5):
            t = gen_theory(GenConfig(seed=seed))
            sk = skolemize(t)
            for th in (t, sk, to_cnf_distribute(sk)):
                for n in (1, 2, 3):
                    d = Domain.of_size(n, extra=th.constants())
                    if sum(len(d) ** p.arity for p in th.predicates()) <= 22:
                        assert wfomc(th, d, engine="dpll") == wfomc(th, d), (seed, n)
                        checked += 1
        assert checked > 500

    @pytest.mark.parametrize("text", [
        "weight S 1 1/2 -1\nweight F 2 3 1/3\n"
        "forall x forall y (S(x) & F(x,y) -> S(y))\n"
        "Boss(A)\nF(A,B)\nforall x (Boss(x) -> S(x))",
        "weight Boss 1 2 -1\n"
        "forall x exists y (WorksFor(x,y) | Boss(x))\nBoss(A)\n~WorksFor(B,A)",
    ], ids=["smokers", "boss"])
    def test_evidence_constants_match_brute_force(self, text):
        t = theory(text)
        sk = skolemize(t)
        for th in (t, sk, to_cnf_distribute(sk)):
            for n in (0, 1, 2):
                d = Domain.of_size(n, extra=t.constants())
                assert wfomc(th, d, engine="dpll") == wfomc(th, d), n

    def test_smokers_at_20_matches_the_closed_form(self):
        # 2^20 branches without a shared count; with one, about 200 entries.
        rng = random.Random(6)
        st, sf, ft, ff = (rng.choice(SMOKERS_WEIGHTS) for _ in range(4))
        assert -1 in (st, sf, ft, ff)
        t = theory(f"weight S 1 {st} {sf}\nweight F 2 {ft} {ff}\n"
                   "forall x forall y (S(x) & F(x,y) -> S(y))")
        assert wfomc(t, Domain.of_size(20), engine="dpll") == smokers_count(20, st, sf, ft, ff)


class TestKeyTables:
    """What the memo key reads about atoms is shared by every count over
    one base layout; the memo, which holds weighted counts, is not."""

    def test_decode_reads_the_base_numbering(self):
        # Nullary, unary and binary blocks, then a Skolem block after them:
        # each atom's constant positions and layout give back its arguments
        # and its number.
        t = theory("Q\nforall x forall y (S(x) & F(x,y) -> S(y))")
        base = grounding.herbrand_base(t, domain("A", "B", "C")).appended([PredicateSig("Sk0", 1)])
        tables = counting._KeyTables(3, tuple((sig.arity, first) for sig, first in base.blocks))
        for i, atom in enumerate(base.atoms, start=1):
            assert [p for p, _ in tables.decode(i)] == [p for p, _ in tables.decode(-i)]
            first, terms = tables.layout[i]
            assert tuple(base.constants[p] for p, _ in terms) == atom.args
            assert first + sum(p * stride for p, stride in terms) == i

    def test_second_count_over_a_layout_decodes_nothing(self, monkeypatch):
        counting._key_tables.cache_clear()
        calls = []
        decode = counting._KeyTables.decode

        def counted(tables, l):
            calls.append(l)
            return decode(tables, l)

        monkeypatch.setattr(counting._KeyTables, "decode", counted)
        t = theory((ROOT / "samples" / "smokers.fol").read_text())
        assert wfomc(t, Domain.of_size(6), engine="dpll") == _smokers_closed_form(6)
        assert calls
        calls.clear()
        # Other weights and other predicate names, in the same block order,
        # give the same layout.
        u = theory("weight T 1 2 -1\nforall x forall y (T(x) & G(x,y) -> T(y))")
        assert wfomc(u, Domain.of_size(6), engine="dpll") == smokers_count(6, 2, -1, 1, 1)
        assert calls == []

    def test_other_layouts_count_right(self):
        counting._key_tables.cache_clear()
        t = theory((ROOT / "samples" / "smokers.fol").read_text())
        for n in (4, 5, 4):
            assert wfomc(t, Domain.of_size(n), engine="dpll") == _smokers_closed_form(n)
        # Clause form adds a Skolem block after R and S: a longer layout
        # over the same constants.
        u = theory("forall x (R(x) | S(x))\nexists y (R(y) & S(y))")
        for n in (4, 5):
            assert wfomc(u, Domain.of_size(n), engine="dpll") == 3 ** n - 2 ** n

    def test_cache_keeps_at_most_its_bound(self):
        counting._key_tables.cache_clear()
        t = theory("forall x forall y (R(x) | F(x,y))")
        for n in range(1, counting._KEY_TABLES_MAX + 4):
            assert wfomc(t, Domain.of_size(n), engine="dpll") == (2 ** n + 1) ** n
            assert counting._key_tables.cache_info().currsize <= counting._KEY_TABLES_MAX
        assert counting._key_tables.cache_info().currsize == counting._KEY_TABLES_MAX

    def test_large_base_keeps_no_tables(self):
        # The fewest constants whose n + n^2 atoms exceed the bound: counted
        # right, and not kept.
        n = 1
        while n + n * n <= counting._KEY_TABLES_MAX_ATOMS:
            n += 1
        counting._key_tables.cache_clear()
        t = theory("forall x forall y (R(x) | F(x,y))")
        assert wfomc(t, Domain.of_size(n), engine="dpll") == (2 ** n + 1) ** n
        assert counting._key_tables.cache_info().currsize == 0
        # One constant fewer fits, and is kept.
        assert wfomc(t, Domain.of_size(n - 1), engine="dpll") == (2 ** (n - 1) + 1) ** (n - 1)
        assert counting._key_tables.cache_info().currsize == 1

    def test_shared_layout_keeps_each_weighting(self):
        # A-B-A over one layout: a memo carried from one weighting to the
        # next would give B A's counts.
        a = (Fraction(1, 2), Fraction(-1), Fraction(3), Fraction(1, 3))
        b = (Fraction(2), Fraction(3, 10), Fraction(-1), Fraction(3, 2))
        for n in (3, 8):
            for st, sf, ft, ff in (a, b, a):
                t = theory(f"weight S 1 {st} {sf}\nweight F 2 {ft} {ff}\n"
                           "forall x forall y (S(x) & F(x,y) -> S(y))")
                want = smokers_count(n, st, sf, ft, ff)
                assert wfomc(t, Domain.of_size(n), engine="dpll") == want
                if n == 3:
                    assert wfomc(t, Domain.of_size(n)) == want

    def test_shared_layout_keeps_each_mln_weight(self):
        query = formula("Boss(A)")
        for n in (1, 10):
            d = Domain.of_size(n, extra=(Constant("A"),))
            for w in (1.3, -0.7, 1.3):
                e = encode_mln(parse_mln(f"{w} exists y (WorksFor(x,y) | Boss(x))\n"))
                got = query_probability(e, d, query, engine="dpll")
                assert got == pytest.approx(mln_boss_probability(n + 1, w), rel=1e-12)
                if n == 1:
                    assert got == query_probability(e, d, query)


class TestBranchAtom:
    def test_most_occurrences_lowest_on_ties(self):
        # Atoms 2 and 9 occur three times each, in either sign; atom 4 once.
        clauses = [frozenset({9, 2}), frozenset({-9, -2}), frozenset({4, 9, 2})]
        assert counting._branch_atom(Counter(chain.from_iterable(clauses))) == 2
        # One more occurrence of 9 breaks the tie.
        clauses.append(frozenset({-9, 4}))
        assert counting._branch_atom(Counter(chain.from_iterable(clauses))) == 9

    def test_matches_counting_atoms(self):
        # The rule on atom counts, for random clause sets.
        rng = random.Random(3)
        for _ in range(300):
            clauses = [frozenset(rng.choice((1, -1)) * rng.randint(1, 12)
                                 for _ in range(rng.randint(1, 4)))
                       for _ in range(rng.randint(1, 8))]
            atoms = Counter(map(abs, chain.from_iterable(clauses)))
            most = max(atoms.values())
            want = min(a for a, k in atoms.items() if k == most)
            assert counting._branch_atom(Counter(chain.from_iterable(clauses))) == want


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

    def test_clause_shaped_conjunct_gets_no_definitions(self):
        # A negated conjunction and an implication read as one clause.
        gt = tseitin_ground(ground(theory("~(P & Q) | (R -> ~S)"), domain("A")))
        p, q, r, s = gt.base.atoms
        assert gt.formula == fold_or([Not(p), Not(q), Not(r), Not(s)])

    @pytest.mark.parametrize("sentence,want", [
        (Or(Or(P_, FALSE), Not(Q_)), fold_or([P_, Not(Q_)])),
        (Not(And(Q_, TRUE)), Not(Q_)),
        (Implies(P_, TRUE), TRUE),
        (Or(FALSE, Not(TRUE)), FALSE),
        (And(P_, Or(FALSE, Not(TRUE))), FALSE),
    ])
    def test_constants_inside_a_clause(self, sentence, want):
        # FALSE drops out of a clause, TRUE makes it a tautology, and a
        # clause of constants alone that is false leaves no model.
        g = ground(WeightedTheory((sentence,), WeightFn({})), domain("A"))
        assert tseitin_ground(g).formula == want

    def test_smokers_grounds_to_plain_clauses(self):
        # One clause ~S(x) | ~F(x,y) | S(y) per pair x != y (x = y is a
        # tautology), over the 8 + 64 atoms of the base.
        t = theory((ROOT / "samples" / "smokers.fol").read_text())
        gt = tseitin_ground(ground(t, Domain.of_size(8)))
        assert len(gt.base) == 72
        assert not any(a.pred.name.startswith("Aux") for a in gt.base.atoms)
        clauses = clauses_of(gt)
        assert len(clauses) == 56 and all(len(c) == 3 for c in clauses)

    def test_mixed_random_formulas_keep_counts(self):
        # Deeper random formulas with constants: some sentences read as one
        # clause, the others are distributed or get definitions; all keep
        # the count.
        rng = random.Random(46)
        sigs = [PredicateSig(f"P{i}", 0) for i in range(5)]
        atoms = [Atom(s, ()) for s in sigs]
        leaves = atoms + [Not(a) for a in atoms] + [TRUE, FALSE]

        def gen(depth):
            if depth == 0 or rng.random() < 0.2:
                return rng.choice(leaves)
            return rng.choice([And, Or, Implies, Iff])(gen(depth - 1), gen(depth - 1))

        paths = set()
        for _ in range(150):
            sentences = tuple(gen(4) for _ in range(rng.randint(1, 2)))
            weights = {s: (rng.choice(WEIGHT_POOL), rng.choice(WEIGHT_POOL)) for s in sigs}
            g = ground(WeightedTheory(sentences, WeightFn(weights)), Domain.of_size(1))
            gt = tseitin_ground(g)
            paths.add(len(gt.base) > len(g.base))
            assert clauses_of(gt) is not None
            assert wmc_dpll(gt) == wmc_bruteforce(g)
        assert paths == {False, True}

    def test_long_fold_encodes_without_recursion(self):
        # Skolemized, the sentence is one clause per constant, all sharing
        # the nullary Skolem atom.
        g = ground(theory("exists y (R(y) & S(y))"), Domain.of_size(1200))
        gt = tseitin_ground(g)
        assert len(gt.base) == 2401 and gt.base.atoms[-1].pred.name == "Sk0"
        assert len(clauses_of(gt)) == 1200

    def test_deep_non_clausal_conjunct_counts(self):
        # A negated universal is a disjunctive quantifier: one clause of
        # 1200 literals.
        t = theory("~(forall y R(y))")
        assert wfomc(t, Domain.of_size(1200), engine="dpll") == 2 ** 1200 - 1

    def test_exists_conjunction_counts(self):
        t = theory("exists y (R(y) & S(y))")
        for n in range(1, 5):
            for engine in ENGINES:
                assert wfomc(t, Domain.of_size(n), engine=engine) == 4 ** n - 3 ** n


def _formula_clauses(g):
    """The clauses of ``g``'s ground formula, read off the formula itself
    conjunct by conjunct, or None unless every conjunct reads as one clause.
    Tautologies are dropped, and a false conjunct leaves only the empty
    clause."""
    out = set()
    stack = [g.formula]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += f.parts
            continue
        walked = clause_walk(f)
        if walked is None:
            return None
        if walked is not True:
            c = frozenset(g.base.atom_index(a) + 1 if pos else -g.base.atom_index(a) - 1
                          for a, pos in walked[0])
            if not any(-l in c for l in c):
                out.add(c)
    return {frozenset()} if frozenset() in out else out


def _assert_paths_agree(t, d):
    """Each sentence that reads as one clause instantiates to the clauses
    of its ground formula, and dpll equals brute force where brute force is
    cheap. Returns True if some sentence took the clause path."""
    g = ground(t, d)
    clause_path = False
    for s in t.sentences:
        one = replace(g, sentences=(s,))
        clauses = clauses_of(one)
        if clauses is not None:
            clause_path = True
            assert set(clauses) == _formula_clauses(one), s
    if len(g.base) <= 18:
        assert wfomc(t, d, engine="dpll") == wmc_bruteforce(g)
    return clause_path


def _smokers_closed_form(n):
    # k smokers: the k(n-k) friendships from a smoker to a non-smoker are false
    return sum(math.comb(n, k) * 2 ** (n * n - k * (n - k)) for k in range(n + 1))


def _record_counters(monkeypatch) -> list:
    """The DPLL counters that ``wfomc`` makes from now on, in order."""
    counters = []

    class Recording(counting._DpllCounter):
        def __init__(self, g):
            super().__init__(g)
            counters.append(self)

    monkeypatch.setattr(counting, "_DpllCounter", Recording)
    return counters


class TestClauseFormGrounding:
    def test_generated_theories_match_the_formula_path(self):
        checked = clause_path = 0
        for seed in range(120):
            t = gen_theory(GenConfig(seed=seed))
            for th in (t, skolemize(t)):
                for n in (1, 2, 3):
                    clause_path += _assert_paths_agree(th, Domain.of_size(n))
                    checked += 1
        assert checked == 120 * 2 * 3
        assert clause_path > checked // 4

    @pytest.mark.parametrize("text,names,want", [
        # a constant in a clause: Boss(A) is one base atom in every instance
        ("forall x (~WorksFor(x,A) | Boss(A))", "AB", 2 ** 5 + 2 ** 3),
        # a vacuous variable: one clause per constant, not per pair
        ("forall x forall y P(x)", "ABC", 1),
        # a repeated variable: F(x,x) walks the diagonal of F's atoms
        ("forall x F(x,x)", "ABC", 2 ** 6),
        # instances with x = y are tautologies and drop out
        ("forall x forall y (F(x,y) | ~F(y,x))", "AB", 2 ** 2 * 2),
        # true and false inside a matrix
        ("forall x (P(x) | false)\nforall x forall y (true | F(x,y))", "AB", 2 ** 4),
        ("forall x (Q(x) -> (P(x) | ~true))", "AB", 3 ** 2),
        # an all-false clause leaves no model
        ("forall x (P(x) | Q(x))\nforall x forall y (false | ~true)", "AB", 0),
        ("false", "A", 0),
    ])
    def test_named_cases(self, text, names, want):
        t = theory(text)
        d = domain(*names)
        assert _assert_paths_agree(t, d)
        assert wfomc(t, d, engine="dpll") == want == wfomc(t, d)

    def test_scale_factor_is_applied(self):
        t = replace(theory("forall x (P(x) | Q(x))"), scale=(ScaleFactor(Fraction(3), 1),))
        d = Domain.of_size(3)
        assert wfomc(t, d, engine="dpll") == 3 ** 3 * 3 ** 3 == wfomc(t, d)

    def test_missing_constant_raises_on_the_dpll_path(self):
        with pytest.raises(WfomcError, match="missing from the domain"):
            wfomc(theory("forall x (P(x) | Q(A))"), domain("B"), engine="dpll")

    def test_formula_is_built_once_on_first_read(self):
        g = ground(theory("forall x (P(x) | Q(x))"), domain("A", "B"))
        assert "formula" not in vars(g)
        assert g.formula is g.formula

    def test_dpll_builds_no_ground_formula(self, monkeypatch):
        # Clause-shaped sentences are instantiated, disjunctive quantifiers
        # included (parents), and a non-clausal query is Skolemized and
        # clausified first: the dpll path counts all of them without the
        # grounder.
        smokers = theory((ROOT / "samples" / "smokers.fol").read_text())
        parents = theory((ROOT / "samples" / "parents.fol").read_text())
        enc = encode_mln(parse_mln("0.7 exists y (WorksFor(x,y) | Boss(x))\n")).prepared()
        d = Domain.of_size(10, extra=(Constant("A"),))
        boss = theory("Boss(A)").sentences[0]
        query = formula("exists x (S(x) & F(x,x))")

        def no_grounder(*_):
            raise AssertionError("built a ground formula")

        with monkeypatch.context() as m:
            m.setattr(grounding._Grounder, "instantiate", no_grounder)
            assert wfomc(smokers, Domain.of_size(8), engine="dpll") == _smokers_closed_form(8)
            assert wfomc(parents, Domain.of_size(4), engine="dpll") == (2 ** 17 - 1) ** 4
            pair = wfomc(smokers, Domain.of_size(3), engine="dpll", query=query)
            got = query_probability(enc, d, boss, engine="dpll")
            with pytest.raises(AssertionError, match="ground formula"):
                wmc_bruteforce(ground(smokers, Domain.of_size(2)))
        assert pair == wfomc(smokers, Domain.of_size(3), query=query)
        # Pr(Boss(A)): with Boss(A) all 2^11 settings of WorksFor(A,.) hold,
        # without it all but one do.
        # Counted exactly over the float weight e^0.7 and rounded once, it is
        # the closed form over that weight, correctly rounded.
        ew = Fraction(math.exp(0.7))
        assert got == float(2 ** 11 * ew / (2 ** 11 * ew + (2 ** 11 - 1) * ew + 1))
        assert wmc_bruteforce(ground(smokers, Domain.of_size(2))) == _smokers_closed_form(2)

    def test_dpll_builds_as_many_atoms_at_any_domain_size(self, monkeypatch):
        # The Herbrand base is its layout: grounding, clause form and search
        # number atoms without building them, so raw parents (one clause of
        # n^2 + 1 literals per constant) builds the same atoms at n=8 and 16.
        parents = theory((ROOT / "samples" / "parents.fol").read_text())
        built = [0]
        check_arity = Atom.__post_init__

        def counted(atom):
            built[0] += 1
            check_arity(atom)

        monkeypatch.setattr(Atom, "__post_init__", counted)
        per_size = []
        for n in (8, 16):
            built[0] = 0
            assert wfomc(parents, Domain.of_size(n), engine="dpll") == (2 ** (n * n + 1) - 1) ** n
            per_size.append(built[0])
        assert per_size[0] == per_size[1]


class TestFirstOrderClauseForm:
    """DPLL reads its clauses at the first-order level: disjunctive
    quantifiers are walked, other sentences are Skolemized and clausified,
    and every predicate that adds lies in the base layout."""

    def test_exists_conjunction_at_5000(self):
        # Skolemized, one clause per constant, all sharing the nullary
        # Skolem atom.
        n = 5000
        t = theory("exists y (R(y) & S(y))")
        assert wfomc(t, Domain.of_size(n), engine="dpll") == 4 ** n - 3 ** n

    def test_nested_biconditionals_stay_linear(self):
        # Distributed, the right-nested chain P0 <-> (P1 <-> ... P14) gives
        # 2^14 clauses per constant; named, a few per level.
        depth = 14
        text = f"P{depth}(x)"
        for i in reversed(range(depth)):
            text = f"(P{i}(x) <-> {text})"
        t = theory("forall x " + text)
        g = tseitin_ground(ground(t, Domain.of_size(2)))
        assert len(g.clauses) <= 2 * 4 * depth
        d = Domain.of_size(1)
        assert wfomc(t, d, engine="dpll") == wfomc(t, d)

    def test_skolemized_query_adds_a_unary_block(self):
        boss = theory((ROOT / "samples" / "boss.fol").read_text())
        q = formula("forall x exists y (WorksFor(x,y) & Boss(y))")
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            theory_form = tseitin_ground(ground(boss, d))
            encoded = tseitin_ground(replace(theory_form, clauses=None, sentences=(q,)))
            added = encoded.base.blocks[len(theory_form.base.blocks):]
            assert [sig.arity for sig, _ in added] == [1]
            _assert_one_pass(boss, d, q)

    @pytest.mark.parametrize("name", ["D0", "Z0", "Sk0"])
    def test_fresh_names_avoid_the_theory_predicates(self, name):
        # The query needs Z, Sk and D predicates: each existential sits
        # under a conjunction, and the last matrix distributes to more
        # clauses than it has literals.
        t = theory(f"weight P 1 2 1/3\nforall x ({name}(x) | P(x))\n"
                   "forall x forall y (F(x,y) -> P(x))")
        assert t.weights.get(PredicateSig(name, 1)) == (1, 1)
        q = formula(f"(exists x (P(x) & {name}(x))) & forall y ((P(y) & F(y,y)) | "
                    f"({name}(y) & F(y,y)) | (P(y) & {name}(y)))")
        for n in (1, 2):
            d = Domain.of_size(n)
            theory_form = tseitin_ground(ground(t, d))
            encoded = tseitin_ground(replace(theory_form, clauses=None, sentences=(q,)))
            added = {sig.name[0] for sig, _ in encoded.base.blocks[len(theory_form.base.blocks):]}
            assert added == {"D", "S", "Z"}
            _assert_one_pass(t, d, q)


def _sweep_queries(t, d, rng):
    """The seven query shapes over ``t``'s base: true, false, a literal, a
    clause, a conjunction, (l & l) | l, and forall x exists y (l & l) with
    the literals' arguments drawn from x and y, which dpll Skolemizes."""
    atoms = grounding.herbrand_base(t, d).atoms
    out = [TRUE, FALSE]
    if atoms:
        def lit():
            a = rng.choice(atoms)
            return a if rng.random() < 0.5 else Not(a)

        def open_lit():
            sig = rng.choice(t.predicates())
            a = Atom(sig, tuple(Variable(rng.choice("xy")) for _ in range(sig.arity)))
            return a if rng.random() < 0.5 else Not(a)
        out += [lit(), Or(lit(), lit()), And(lit(), lit()), Or(And(lit(), lit()), lit()),
                ForAll("x", Exists("y", And(open_lit(), open_lit())))]
    return out


def _assert_one_pass(t, d, q, brute=True):
    """wfomc(t, d, query=q) on dpll is the pair of two independent counts,
    and equals brute force's pair; returns it."""
    got = wfomc(t, d, engine="dpll", query=q)
    with_query = t.replace(sentences=t.sentences + (q,))
    assert got == (wfomc(with_query, d, engine="dpll"), wfomc(t, d, engine="dpll")), q
    if brute:
        assert got == wfomc(t, d, query=q) == (wfomc(with_query, d), wfomc(t, d)), q
    return got


class TestQueryCount:
    """One dpll search answers count(t ∧ q) and count(t)."""

    # Every fifteenth seed: each case runs three dpll searches, and the
    # suite must stay fast.
    @pytest.mark.parametrize("seed", range(0, 300, 15))
    def test_matches_two_counts_on_generated_theories(self, seed):
        t = gen_theory(GenConfig(seed=seed, domain_sizes=(1, 2, 3)))
        for th in (t, to_cnf_distribute(skolemize(t))):
            for n in (1, 2, 3):
                d = Domain.of_size(n)
                rng = random.Random(f"{seed}/{n}")
                small = len(grounding.herbrand_base(th, d)) <= 16
                for q in _sweep_queries(th, d, rng):
                    _assert_one_pass(th, d, q, brute=small)

    def test_query_against_a_forced_unit_is_zero(self):
        t = theory("Boss(A)\nforall x forall y (Sk0(x) | ~WorksFor(x,y))\n"
                   "forall x (Sk0(x) | ~Boss(x))\nweight Sk0 1 1 -1")
        d = domain("A", "B")
        num, den = _assert_one_pass(t, d, formula("~Boss(A)"))
        assert num == 0 and den != 0
        assert _assert_one_pass(t, d, formula("Boss(A)")) == (den, den)

    def test_query_touching_every_component(self):
        boss = theory("weight Boss 1 1/3 2\nforall x exists y (WorksFor(x,y) | Boss(x))")
        t = to_cnf_distribute(skolemize(boss))
        d = Domain.of_size(3)
        num, den = _assert_one_pass(t, d, formula("exists x Boss(x)"))
        assert 0 < num < den

    def test_query_with_definitions(self):
        enc = encode_problog(parse_problog(
            "0.1 :: Attends(x).\n0.3 :: ToSeries(x).\nSeries :- Attends(x), ToSeries(x).\n"))
        t = enc.prepared().theory
        q = formula("(Attends(C1) & ToSeries(C1)) | Series")
        for n in (1, 2, 3):
            num, den = _assert_one_pass(t, Domain.of_size(n), q)
            assert num / den == 1 - Fraction(97, 100) ** n

    def test_unconstrained_skolem_atom_in_the_query(self):
        # ~Boss(A) and ~WorksFor(A,.) satisfy every clause of Sk0(A), so the
        # theory's propagation leaves it free, with free factor 1 + (-1) = 0.
        t = theory("weight Sk0 1 1 -1\nforall x forall y (Sk0(x) | ~WorksFor(x,y))\n"
                   "forall x (Sk0(x) | ~Boss(x))\n~Boss(A)\nforall y ~WorksFor(A,y)")
        d = domain("A", "B")
        num, den = _assert_one_pass(t, d, formula("Sk0(A)"))
        assert den == 0 and num != 0
        num, den = _assert_one_pass(t, d, formula("~Sk0(A) & ~Sk0(B)"))
        assert den == 0 and num != 0

    @pytest.mark.parametrize("q,want", [(TRUE, 1), (FALSE, 0)])
    def test_constant_queries(self, q, want):
        t = to_cnf_distribute(skolemize(theory(
            "weight Boss 1 1/3 2\nforall x exists y (WorksFor(x,y) | Boss(x))")))
        num, den = _assert_one_pass(t, Domain.of_size(2), q)
        assert num == want * den and den != 0

    def test_float_mode_matches_two_counts(self):
        enc = encode_mln(parse_mln("1.3 exists y (WorksFor(x,y) | Boss(x))\n"))
        t = enc.prepared().theory
        d = Domain.of_size(4, extra=(Constant("A"),))
        for text in ("Boss(A)", "exists x Boss(x)", "WorksFor(A,C1) | ~Boss(C2)"):
            q = formula(text)
            num, den = wfomc(t, d, engine="dpll", query=q)
            want = wfomc(t.replace(sentences=t.sentences + (q,)), d, engine="dpll")
            assert den == wfomc(t, d, engine="dpll")
            assert num == want

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_query_constant_outside_the_domain(self, engine):
        with pytest.raises(WfomcError, match=r"constant\(s\) \['Z'\] of the query missing"):
            wfomc(theory("forall x P(x)"), domain("A"), engine, query=formula("P(A) | P(Z)"))

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_query_with_a_free_variable(self, engine):
        # Unchecked, dpll would ground x as if it were universally quantified.
        with pytest.raises(WfomcError, match=r"query has free variable\(s\) \['x'\]"):
            wfomc(theory("forall x P(x)"), domain("A"), engine, query=formula("P(x)"))

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_query_predicate_with_another_arity(self, engine):
        with pytest.raises(WfomcError, match="predicate P used with arities 1 and 2"):
            wfomc(theory("forall x P(x)"), domain("A"), engine, query=formula("P(A,A)"))

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_query_predicate_outside_the_theory(self, engine):
        with pytest.raises(WfomcError, match=r"query predicate\(s\) \['Q'\] not in the theory"):
            wfomc(theory("forall x P(x)"), domain("A"), engine, query=formula("P(A) & Q"))


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
        assert lines[-1] == "1 -2 0"
        assert export_dimacs(ground(theory("false"), domain("A"))) == "p cnf 0 1\n0\n"

    def test_float_weights_print_exactly(self):
        t = theory("forall x (P(x) | ~Q(x))")
        t = t.replace(weights=WeightFn({PredicateSig("P", 1): (0.5, 0.1)}, "float"))
        lines = export_dimacs(ground(t, domain("A"))).splitlines()
        assert "c wght 1 1/2" in lines
        assert "c wght -1 3602879701896397/36028797018963968" in lines  # Fraction(0.1)
        assert "c wght 2 1/1" in lines

    def test_rejects_non_cnf(self):
        g = ground(theory("P(A) <-> Q(A)"), domain("A"))
        with pytest.raises(WfomcError):
            export_dimacs(g)
