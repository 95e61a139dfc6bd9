import gc
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
from wfomc import _kernels as K, counting, grounding, lifted
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
    subformulas,
)
from wfomc.propcheck import GenConfig, gen_ground_conjunction, gen_theory
from wfomc.transform import clause_form, clause_walk, skolemize, to_cnf_distribute

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
            assert len(compile_program(g.dag).atoms) == 12
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

    def test_skolem_block_free_factor(self):
        # Each block's unused atoms contribute one power of wt + wf: with
        # the Skolem pair (1, -1) that is 0^0 = 1 when every S atom occurs
        # and 0 when one does not. With both atoms used, P(A) true leaves
        # S(A) free (1 - 1) and P(A) false forces S(A): the count is 1.
        t = theory("weight S 1 1 -1\nP(A) | S(A)")
        assert wmc_bruteforce(ground(t, domain("A"))) == 1
        g = ground(t, domain("A", "B"))  # S(B) and P(B) never occur
        assert wmc_bruteforce(g) == 0 == wfomc(t, domain("A", "B"), engine="dpll")
        # every atom of the block occurs: no unused factor
        t = theory("weight S 1 1 -1\nforall x (P(x) | S(x))")
        for n in (1, 2, 3):
            assert wmc_bruteforce(ground(t, Domain.of_size(n))) == 1

    def test_matches_dpll_on_generated_theories(self):
        # The theories certify counts, before and after Skolemization.
        checked = 0
        for seed in range(300):
            t = gen_theory(GenConfig(seed=seed))
            for th in (t, skolemize(t)):
                for n in (1, 2):
                    d = Domain.of_size(n, extra=th.constants())
                    try:
                        brute = wfomc(th, d)
                    except CapExceededError:
                        continue
                    assert brute == wfomc(th, d, engine="dpll"), (seed, n)
                    checked += 1
        assert checked > 1100

    def test_float_mode(self):
        t = theory("forall x (P(x) | Q(x))")
        t = t.replace(weights=WeightFn({PredicateSig("P", 1): (2.0, 1.0)}, "float"))
        g = ground(t, Domain.of_size(1))
        # worlds: P Q / P ~Q / ~P Q  ->  2 + 2 + 1, counted exactly
        assert wmc_bruteforce(g) == 5


def random_ground_formula(rng, atoms, depth, pool):
    """A random ground formula in which ``And``/``Or`` take two to four
    operands and a quarter of the subformulas are drawn again from ``pool``
    (every subformula built so far), so its ground DAG shares nodes."""
    if pool and rng.random() < 0.25:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        f = TRUE if r < 0.1 else FALSE if r < 0.2 else rng.choice(atoms)
    else:
        cls = rng.choice([Not, And, Or, Implies, Iff])
        arity = 1 if cls is Not else rng.randint(2, 4) if cls in (And, Or) else 2
        f = cls(*[random_ground_formula(rng, atoms, depth - 1, pool) for _ in range(arity)])
    pool.append(f)
    return f


def _dag(f, base):
    """The ground DAG of a quantifier-free sentence over ``base``."""
    unit = ((Fraction(1), Fraction(1)),) * len(base.blocks)
    return GroundProblem(base, unit, Fraction(1), (f,)).dag


def _reachable(dag) -> list[int]:
    """The ids of the nodes the root reaches, in node order."""
    seen = {dag.root}
    for i in range(dag.root, -1, -1):
        if i in seen and dag.nodes[i][0] is not Atom:
            seen.update(dag.nodes[i][1:])
    return sorted(seen)


def _evaluator_rows(prog, n) -> int:
    """The number of block arrays ``satisfying_words`` holds, read from
    its frame while it runs."""
    seen = []

    def line(frame, event, arg):
        rows = frame.f_locals.get("rows")
        if rows is not None:
            seen.append(len(rows))
        return line

    def call(frame, event, arg):
        return line if frame.f_code is K.satisfying_words.__code__ else None

    sys.settrace(call)
    try:
        K.satisfying_words(prog.ops, prog.args, prog.slots, 0, n)
    finally:
        sys.settrace(None)
    assert len(set(seen)) == 1
    return seen[0]


ALL_OPS = {K.OP_LOAD, K.OP_NOT, K.OP_AND, K.OP_OR, K.OP_IMP, K.OP_IFF,
           K.OP_TRUE, K.OP_FALSE}


class TestKernels:
    def test_mask_matches_ground_evaluator(self):
        # Oracle: the recursive evaluator from the encoders, one world at a
        # time. Nine atoms give 512 assignments, so bits above 5 (constant
        # per word) and blocks that start past word 0 are both exercised.
        # Every program holds each opcode, an And or Or of three or more
        # operands, and an instruction that several others read.
        atoms = [Atom(PredicateSig(f"P{i}", 0), ()) for i in range(9)]
        base = HerbrandBase(()).appended(a.pred for a in atoms)
        rng = random.Random(7)
        checked = 0
        while checked < 30:
            f = random_ground_formula(rng, atoms, 6, [])
            dag = _dag(f, base)
            prog = compile_program(dag)
            readers = Counter(j for i in _reachable(dag) if dag.nodes[i][0] is not Atom
                              for j in set(dag.nodes[i][1:]))
            if (set(prog.ops) != ALL_OPS or max(readers.values()) < 2
                    or not any(op in (K.OP_AND, K.OP_OR) and len(a) > 2
                               for op, a in zip(prog.ops, prog.args))):
                continue
            m = len(prog.atoms)
            expected = np.array([
                _eval_ground(f, {atoms[prog.atoms[i]] for i in range(m) if a >> i & 1})
                for a in range(1 << m)
            ], dtype=np.uint8)
            full = K.satisfying_mask(prog.ops, prog.args, prog.slots, 0, 1 << m)
            assert np.array_equal(full, expected)
            step = min(64, 1 << m)
            for start in range(0, 1 << m, step):
                block = K.satisfying_mask(prog.ops, prog.args, prog.slots, start, step)
                assert np.array_equal(block, expected[start:start + step])
            checked += 1

    def test_one_instruction_per_distinct_ground_node(self):
        # Each P(c) | Q(d) is one Or node, and each atom one node, however
        # many Ors share it: 6 loads, 9 Ors and one And of nine operands.
        # A tree of binary operations would need 9 * 3 + 8 = 35.
        g = ground(theory("forall x forall y (P(x) | Q(y))"), Domain.of_size(3))
        prog = compile_program(g.dag)
        assert len(prog.ops) == len(set(subformulas(g.formula))) == 16
        assert Counter(prog.ops) == {K.OP_LOAD: 6, K.OP_OR: 9, K.OP_AND: 1}
        ors = [k for k, op in enumerate(prog.ops) if op == K.OP_OR]
        assert prog.args[-1] == tuple(prog.slots[k] for k in ors)
        # every P true or every Q true
        assert wmc_bruteforce(g) == 2 ** 3 + 2 ** 3 - 1
        # The vacuous exists grounds to the node Q(A) & R(A), which the
        # top-level And splices: the root does not reach it.
        g = ground(theory("forall x P(x)\nexists y (Q(A) & R(A))"), domain("A", "B"))
        assert len(g.dag.nodes) == 6
        prog = compile_program(g.dag)
        assert len(prog.ops) == len(set(subformulas(g.formula))) == 5
        assert wmc_bruteforce(g) == 4  # Q(B) and R(B) are free

    def test_slots_are_reused_after_the_last_reader(self):
        # An instruction reads its operands' slots, and no instruction
        # between an operand and its reader writes that slot. The slots
        # number the width: the most nodes live at once, counted here from
        # the DAG. Here each instance's two Ands and the Not die at its Or:
        # 25 instructions in 8 slots, and the evaluator holds 8 arrays.
        rng = random.Random(11)
        atoms = [Atom(PredicateSig(f"P{i}", 0), ()) for i in range(8)]
        base = HerbrandBase(()).appended(a.pred for a in atoms)
        wide = ground(theory("forall x forall y ((P(x) & Q(y)) | (R(x,y) & ~R(y,x)))"),
                      Domain.of_size(2)).dag
        cases = [wide] + [_dag(random_ground_formula(rng, atoms, 6, []), base)
                          for _ in range(40)]
        for dag in cases:
            prog = compile_program(dag)
            order = _reachable(dag)
            index = {i: k for k, i in enumerate(order)}
            last = list(range(len(order)))
            for k, i in enumerate(order):
                node = dag.nodes[i]
                if node[0] is Atom:
                    continue
                reads = [index[j] for j in node[1:]]
                assert prog.args[k] == tuple(prog.slots[j] for j in reads)
                for j in reads:
                    assert prog.slots[j] not in prog.slots[j + 1:k + 1]
                    last[j] = k
            live = [1 + sum(last[j] >= k for j in range(k)) for k in range(len(order))]
            width = max(prog.slots) + 1
            assert width == max(live)
            assert _evaluator_rows(prog, 1 << len(prog.atoms)) == width
        prog = compile_program(wide)
        assert (len(prog.ops), max(prog.slots) + 1) == (25, 8)

    @pytest.mark.parametrize("start,n", [(32, 64), (8, 8)])
    def test_unaligned_block_start_is_rejected(self, start, n):
        # At start 8 the evaluator would read lanes 0-7 of word 0: lane 0
        # is false, though assignment 8 satisfies P0 | P1 | P2 | P3.
        atoms = [Atom(PredicateSig(f"P{i}", 0), ()) for i in range(4)]
        base = HerbrandBase(()).appended(a.pred for a in atoms)
        prog = compile_program(_dag(fold_or(atoms), base))
        with pytest.raises(ValueError, match="aligned"):
            K.satisfying_words(prog.ops, prog.args, prog.slots, start, n)

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

    def test_counts_a_problem_not_in_clause_form(self):
        # The sentence is not one clause: wmc_dpll counts its clause form.
        g = ground(theory("P(A) <-> Q(A)"), domain("A"))
        assert wmc_dpll(g) == 2 == wmc_bruteforce(g)
        t = theory("weight P 1 2 3\nforall x exists y (P(y) & ~Q(x))")
        g = ground(t, Domain.of_size(2))
        assert wmc_dpll(g) == wmc_bruteforce(g) == 5 ** 2 - 3 ** 2 == wmc_dpll(tseitin_ground(g))

    def test_query_in_sentences_is_read_over_the_clause_form(self):
        # Both sentences need a Skolem predicate: the query's gets a block
        # after the theory's instead of sharing its atoms.
        g = ground(theory("exists y (R(y) & S(y))"), Domain.of_size(2))
        query = replace(g, sentences=(formula("exists y (R(y) & ~S(y))"),))
        assert wmc_dpll(g, query) == (2, 7)
        with_query = replace(g, sentences=g.sentences + query.sentences)
        assert wmc_dpll(g, query) == (wmc_bruteforce(with_query), wmc_bruteforce(g))

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

    def test_tautologies_given_as_clauses(self):
        # clause_set drops tautologies, but a problem built with clauses=
        # keeps them. {1, -1, 2} holds in both phases of a branch on atom 1
        # (the branch atom here), and a lone one under every assignment.
        def count(*clauses):
            base = HerbrandBase(()).appended([PredicateSig(f"P{i}", 0) for i in range(1, 4)])
            g = GroundProblem(base, ((Fraction(1), Fraction(2)),) * 3, Fraction(1),
                              clauses=tuple(map(frozenset, clauses)))
            assert wmc_dpll(g) == wmc_bruteforce(g)
            return wmc_dpll(g)

        assert count({1, -1, 2}, {1, 2, 3}, {-1, -3}, {2, -3}) == 12
        assert count({1, -1, 2}) == count({1, -1}) == 27
        assert count({1, -1, 2}, {2, 3}) == 15

    def test_random_clauses_with_tautologies_and_repeats(self):
        # Clause sets passed as they are, with a tautology injected into
        # some and clauses repeated, over nullary blocks with weights from
        # WEIGHT_POOL, 0 and -1 among them.
        rng = random.Random(29)
        tautologies = 0
        for _ in range(300):
            n = rng.randint(1, 9)
            base = HerbrandBase(()).appended([PredicateSig(f"P{i}", 0) for i in range(n)])
            clauses = [frozenset(rng.choice((1, -1)) * rng.randint(1, n)
                                 for _ in range(rng.randint(1, 4)))
                       for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(0, 3)):
                c = rng.choice(clauses)
                l = rng.choice(sorted(c))
                clauses.append(c | {-l})
            clauses += rng.choices(clauses, k=rng.randint(0, 3))
            rng.shuffle(clauses)
            tautologies += sum(any(-l in c for l in c) for c in clauses)
            weights = tuple((rng.choice(WEIGHT_POOL), rng.choice(WEIGHT_POOL)) for _ in range(n))
            g = GroundProblem(base, weights, Fraction(1), clauses=tuple(clauses))
            assert wmc_dpll(g) == wmc_bruteforce(g), clauses
        assert tautologies > 300

    def test_search_pauses_the_collector_and_restores_it(self, monkeypatch):
        # The collector is off during the search and back in its previous
        # state after it, also when the search raises.
        seen = []
        count = counting._DpllCounter.count

        def recording(counter, clauses, n):
            seen.append(gc.isenabled())
            return count(counter, clauses, n)

        monkeypatch.setattr(counting._DpllCounter, "count", recording)
        g = ground(theory("forall x forall y (S(x) & F(x,y) -> S(y))"), Domain.of_size(3))
        was = gc.isenabled()
        try:
            for state in (gc.enable, gc.disable):
                state()
                assert wmc_dpll(g) == _smokers_closed_form(3)
                assert gc.isenabled() is (state is gc.enable)
            gc.enable()
            assert wmc_dpll(g, replace(g, sentences=(formula("S(C1)"),)))[1] == _smokers_closed_form(3)
            assert gc.isenabled() and seen == [False] * 4

            def failing(*args):
                raise RuntimeError("inside a count")

            monkeypatch.setattr(counting._DpllCounter, "_search", failing)
            for state in (gc.enable, gc.disable):
                state()
                with pytest.raises(RuntimeError, match="inside a count"):
                    wmc_dpll(g)
                assert gc.isenabled() is (state is gc.enable)
        finally:
            (gc.enable if was else gc.disable)()

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

    @pytest.mark.parametrize("scan_rounds", [0, 1, 10 ** 9])
    def test_indexed_rounds_propagate_as_scans(self, monkeypatch, scan_rounds):
        # Random clause sets and literals to assign, propagated with the
        # default number of scan rounds and then with the index from the
        # first round on, after one round, or never: the same result.
        rng = random.Random(11)
        g = GroundProblem(HerbrandBase(()).appended([PredicateSig(f"P{i}", 0) for i in range(12)]),
                          tuple((Fraction(rng.choice((1, 2, -1))), Fraction(rng.choice((1, 3))))
                                for _ in range(12)), Fraction(1), clauses=())
        counter = counting._DpllCounter(g)
        for _ in range(400):
            clauses = {frozenset(rng.choice((1, -1)) * rng.randint(1, 12)
                                 for _ in range(rng.randint(1, 3)))
                       for _ in range(rng.randint(1, 14))}
            clauses = [c for c in clauses if not any(-l in c for l in c)]
            if not clauses:
                continue
            atoms = set(map(abs, chain.from_iterable(clauses)))
            lits = counting._units(clauses) | {rng.choice((1, -1)) * rng.choice(sorted(atoms))}
            want = counter._propagate(clauses, atoms, lits)
            with monkeypatch.context() as m:
                m.setattr(counting, "_SCAN_ROUNDS", scan_rounds)
                got = counter._propagate(clauses, atoms, lits)
            if want is None:
                assert got is None
            else:
                assert (got[0], frozenset(got[1]), got[2], got[3]) == \
                    (want[0], frozenset(want[1]), want[2], want[3])

    def test_problog_chain_cascades_through_the_index(self):
        # Q1 :- Q2, ..., Q199 :- Q200, 0.5 :: Q200: asking Q1 sets off a
        # cascade of 200 rounds, most of them over the literal index.
        rules = "".join(f"Q{i} :- Q{i + 1}.\n" for i in range(1, 200))
        e = encode_problog(parse_problog("0.5 :: Q200.\n" + rules))
        assert query_probability(e, Domain.of_size(1), formula("Q1"), engine="dpll") == Fraction(1, 2)

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

    @pytest.mark.parametrize("name,n,want,split,whole", [
        ("boss", 12, (2 ** 13 - 1) ** 12, [1], [1]),
        ("parents", 6, (2 ** 37 - 1) ** 6, [10], [11]),
        ("employment", 11, mln_boss_probability(11, 1.3), [2], [2]),
    ], ids=["boss", "parents", "employment"])
    def test_skolemized_memo_entries(self, monkeypatch, name, n, want, split, whole):
        # Skolem and definition blocks weigh one pair each, so the key
        # renames their atoms with the rest: on the whole ground theory,
        # boss's n components share one entry. The separator split counts
        # one slice per class of constants instead, a counter each: boss
        # and parents have one class. So does the encoder's skolemized
        # theory, which names no constant: the MLN query Pr(Boss(A)) over
        # n - 1 constants and A counts A's slice with and without Boss(A),
        # and the count without it stands for every slice.
        counters = _record_counters(monkeypatch)
        if name == "employment":
            e = encode_mln(parse_mln((ROOT / "samples" / "employment.mln").read_text()))
            t = e.prepared().theory
            d = Domain.of_size(n - 1, extra=(Constant("A"),))
            q = formula("Boss(A)")
            got = query_probability(e, d, q, engine="dpll")
            assert got == pytest.approx(want, rel=1e-12)
            assert [len(c.memo) for c in counters] == split
            counters.clear()
            num, den = _whole_ground(t, d, q)
            assert float(num / den) == pytest.approx(want, rel=1e-12)
        else:
            t = skolemize(theory((ROOT / "samples" / f"{name}.fol").read_text()))
            d = Domain.of_size(n)
            assert wfomc(t, d, engine="dpll") == want
            assert [len(c.memo) for c in counters] == split
            counters.clear()
            assert _whole_ground(t, d) == want
        assert [len(c.memo) for c in counters] == whole

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
        # The fewest constants whose 1 + n + n^2 atoms exceed the bound:
        # counted right, and not kept. The nullary Q keeps the theory off
        # the separator split, so the whole base is counted at once.
        n = 1
        while 1 + n + n * n <= counting._KEY_TABLES_MAX_ATOMS:
            n += 1
        counting._key_tables.cache_clear()
        t = theory("forall x forall y (R(x) | F(x,y) | Q)")

        def want(n):  # Q true: every atom free; Q false: R(x) | F(x,.) per x
            return 2 ** (n + n * n) + (2 ** n + 1) ** n

        assert wfomc(t, Domain.of_size(n), engine="dpll") == want(n)
        assert counting._key_tables.cache_info().currsize == 0
        # One constant fewer fits, and is kept.
        assert wfomc(t, Domain.of_size(n - 1), engine="dpll") == want(n - 1)
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


class TestNodeTable:
    """A component's memo key and branch atom depend only on its clauses and
    the base layout, so the shared key tables keep them per clause set, up
    to a budget of clauses; counts, which depend on the weights, do not
    leave the counter."""

    def test_generated_theories_under_three_weightings(self, monkeypatch):
        # Each structure is counted under three weightings in a row, with
        # the nodes that the count before it left and then with the tables
        # cleared: a node that depended on the weights would make the two
        # counts differ. After the first weighting, the count before was
        # over the same clauses, so no key is computed again. The third
        # weighting makes one predicate false everywhere; Skolem pairs stay
        # (1, -1).
        calls = _count_keys(monkeypatch)
        pairs = [(a, b) for a in SMOKERS_WEIGHTS for b in SMOKERS_WEIGHTS]
        checked = keyed = 0
        for seed in range(300):
            t = gen_theory(GenConfig(seed=seed, domain_sizes=(1, 2, 3)))
            rng = random.Random(seed)
            drawn = {sig: rng.choice(pairs) for sig in t.predicates()}
            zero = {**drawn, t.predicates()[0]: (Fraction(0), Fraction(1))}
            weightings = [t] + [t.replace(weights=WeightFn(w)) for w in (drawn, zero)]
            for kind in (lambda u: u, skolemize):
                for n in (1, 2, 3):
                    for i, u in enumerate(map(kind, weightings)):
                        d = Domain.of_size(n, extra=u.constants())
                        calls.clear()
                        got = wfomc(u, d, engine="dpll")
                        assert not (i and calls), (seed, n)
                        counting._key_tables.cache_clear()
                        assert wfomc(u, d, engine="dpll") == got, (seed, n)
                        keyed += bool(calls)
                        if len(grounding.herbrand_base(u, d)) <= 16:
                            assert wfomc(u, d) == got, (seed, n)
                            checked += 1
        assert checked > 2000 and keyed > 1000

    def test_other_names_and_weights_compute_no_key(self, monkeypatch):
        counting._key_tables.cache_clear()
        calls = _count_keys(monkeypatch)
        t = theory((ROOT / "samples" / "smokers.fol").read_text())
        assert wfomc(t, Domain.of_size(6), engine="dpll") == _smokers_closed_form(6)
        assert calls
        calls.clear()
        # One layout: other predicate names in the same block order, other
        # weights, 0 among them.
        u = theory("weight T 1 2 -1\nweight G 2 0 3/2\nforall x forall y (T(x) & G(x,y) -> T(y))")
        assert wfomc(u, Domain.of_size(6), engine="dpll") == smokers_count(6, 2, -1, 0, Fraction(3, 2))
        assert calls == []

    def test_held_residuals_are_not_split_again(self, monkeypatch):
        # A phase residual that the nodes hold is one component. At n=8
        # every smokers residual is one, so a second count over the layout,
        # under other weights, splits nothing inside the search.
        counting._key_tables.cache_clear()
        calls = _count_components(monkeypatch)
        t = theory((ROOT / "samples" / "smokers.fol").read_text())
        assert wfomc(t, Domain.of_size(8), engine="dpll") == _smokers_closed_form(8)
        assert [k for caller, k in calls if caller == "_search"] and all(k == 1 for _, k in calls)
        calls.clear()
        u = theory("weight T 1 3/10 -1\nweight G 2 -1 3/10\nforall x forall y (T(x) & G(x,y) -> T(y))")
        got = wfomc(u, Domain.of_size(8), engine="dpll")
        assert [caller for caller, _ in calls] == ["count"]
        counting._key_tables.cache_clear()
        assert wfomc(u, Domain.of_size(8), engine="dpll") == got == smokers_count(
            8, Fraction(3, 10), Fraction(-1), Fraction(-1), Fraction(3, 10))

    def test_residuals_that_split_still_split(self, monkeypatch):
        # Q false leaves one part per constant, (P(c) | R(c)) & (~P(c) | S(c)),
        # which share one memo key; the nodes hold the parts, never their
        # union, so the second count splits the residual as the first did.
        counting._key_tables.cache_clear()
        calls = _count_components(monkeypatch)
        counters = _record_counters(monkeypatch)
        t = theory("forall x (Q | P(x) | R(x))\nforall x (Q | ~P(x) | S(x))")
        for _ in range(2):
            assert wfomc(t, Domain.of_size(5), engine="dpll") == 8 ** 5 + 4 ** 5
            assert ("_search", 5) in calls
            calls.clear()
        assert [len(c.memo) for c in counters] == [2, 2]

    def test_nodes_keep_at_most_their_budget(self, monkeypatch):
        counting._key_tables.cache_clear()
        counters = _record_counters(monkeypatch)
        t = theory((ROOT / "samples" / "smokers.fol").read_text())
        assert wfomc(t, Domain.of_size(32), engine="dpll") == _smokers_closed_form(32)
        tables, = {id(c.tables): c.tables for c in counters}.values()
        held = sum(map(len, tables.nodes))
        assert held + tables.room == counting._NODES_MAX_CLAUSES
        # The search meets more clauses than the budget, so it is full up to
        # less than one node of smokers at 32 (at most 32 * 32 clauses).
        assert counting._NODES_MAX_CLAUSES - 32 * 32 < held <= counting._NODES_MAX_CLAUSES

    def test_large_base_keeps_no_nodes(self, monkeypatch):
        n = 1
        while 1 + n + n * n <= counting._KEY_TABLES_MAX_ATOMS:
            n += 1
        counters = _record_counters(monkeypatch)
        t = theory("forall x forall y (R(x) | F(x,y) | Q)")
        assert wfomc(t, Domain.of_size(n), engine="dpll") == 2 ** (n + n * n) + (2 ** n + 1) ** n
        assert counters and all(not c.tables.nodes and not c.tables.room for c in counters)


def _count_keys(monkeypatch) -> list:
    """The clause sets whose memo key ``_DpllCounter._key`` computes from
    now on."""
    calls = []
    key = counting._DpllCounter._key

    def counted(counter, clauses, *args):
        calls.append(clauses)
        return key(counter, clauses, *args)

    monkeypatch.setattr(counting._DpllCounter, "_key", counted)
    return calls


def _count_components(monkeypatch) -> list:
    """(caller, number of components) for each ``_components`` call from
    now on."""
    calls = []
    components = counting._components

    def counted(clauses, atoms):
        parts = components(clauses, atoms)
        calls.append((sys._getframe(1).f_code.co_name, len(parts)))
        return parts

    monkeypatch.setattr(counting, "_components", counted)
    return calls


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
        assert gt.clauses is not None
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
            assert gt.clauses is not None
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
        if clause_walk(s) is not None:
            clause_path = True
            one = replace(g, sentences=(s,))
            assert set(clauses_of(one)) == _formula_clauses(one), s
    if len(g.base) <= 18:
        assert wfomc(t, d, engine="dpll") == wmc_bruteforce(g)
    return clause_path


def _smokers_closed_form(n):
    # k smokers: the k(n-k) friendships from a smoker to a non-smoker are false
    return sum(math.comb(n, k) * 2 ** (n * n - k * (n - k)) for k in range(n + 1))


def _whole_ground(t, d, query=None):
    """``_dpll``'s counts without the separator split: t's whole ground
    clause form, and the query's over it, in one search."""
    g = tseitin_ground(ground(t, d))
    if query is None:
        return wmc_dpll(g)
    return wmc_dpll(g, tseitin_ground(replace(g, clauses=None, sentences=(query,))))


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

    def test_clause_form_is_computed_once(self, monkeypatch):
        # Without a separator (smokers' S(y)), dpll grounds the whole
        # theory; the separator search and tseitin_ground share one
        # first-order clause form. Each conjunct exists y Pi(x,y) allows
        # 3 of the 4 settings of Pi(x,A), Pi(x,B) per x.
        calls = []

        def counted(*args):
            calls.append(args)
            return clause_form(*args)

        monkeypatch.setattr(grounding, "clause_form", counted)
        text = (ROOT / "samples" / "smokers.fol").read_text()
        conjuncts = " & ".join(f"(exists y P{i}(x,y))" for i in range(1000))
        t = theory(f"{text}\nforall x ({conjuncts})")
        assert wfomc(t, Domain.of_size(2), engine="dpll") == _smokers_closed_form(2) * 9 ** 1000
        assert len(calls) == 1

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


def _split_taken(t, d, query=None) -> bool:
    """Whether dpll's count of t (with the query) splits some clause set by
    a separator: the power rule, ``lifted._split``, returns a count."""
    split, taken = lifted._split, []

    def watched(*args):
        got = split(*args)
        taken.append(got is not None)
        return got

    lifted._split = watched
    try:
        wfomc(t, d, engine="dpll", query=query)
    finally:
        lifted._split = split
    return any(taken)


def _assert_split_agrees(t, d, query=None):
    """dpll's count (or pair) equals the whole-ground search's and, on a
    base of at most 16 atoms, brute force's; returns it."""
    got = wfomc(t, d, engine="dpll", query=query)
    assert got == _whole_ground(t, d, query), (query, len(d))
    if len(grounding.herbrand_base(t, d)) <= 16:
        assert got == wfomc(t, d, query=query), (query, len(d))
    return got


class TestSeparatorSplit:
    """dpll counts a theory whose clauses share a separator one slice per
    class of constants; every count equals the whole-ground search and
    brute force."""

    @pytest.mark.parametrize("name,split", [
        ("boss", True), ("parents", True), ("stress", True), ("smokers", False), ("mother", False),
    ])
    def test_samples(self, name, split):
        # smokers' S(y) and mother's nullary Female have no separator.
        t = theory((ROOT / "samples" / f"{name}.fol").read_text())
        sk = skolemize(t)
        for th in (t, sk, to_cnf_distribute(sk)):
            for n in (1, 2, 3):
                d = Domain.of_size(n)
                assert _split_taken(th, d) == split
                _assert_split_agrees(th, d)

    def test_encoded_samples(self):
        mln = encode_mln(parse_mln((ROOT / "samples" / "employment.mln").read_text()))
        plp = encode_problog(parse_problog((ROOT / "samples" / "workshop.plp").read_text()))
        for n in (1, 2, 3):
            d = Domain.of_size(n, extra=(Constant("A"),))
            t, q = mln.prepared().theory, formula("Boss(A)")
            assert _split_taken(t, d, q)
            _assert_split_agrees(t, d, q)
            # The workshop's nullary Series keeps its encoding whole.
            t, q = plp.prepared().theory, formula("Series")
            assert not _split_taken(t, d, q)
            _assert_split_agrees(t, d, q)

    def test_generated_theories(self):
        took = 0
        for seed in range(150):
            t = gen_theory(GenConfig(seed=seed))
            for th in (t, skolemize(t)):
                for n in (1, 2, 3):
                    d = Domain.of_size(n, extra=th.constants())
                    if _split_taken(th, d):
                        took += 1
                        _assert_split_agrees(th, d)
        # of the 900 (seed, theory, n) cases; a theory whose nullary or
        # unseparated clauses share no predicate with the others still
        # splits its other parts
        assert took == 126

    def test_separator_at_position_one(self):
        # Per x: G(x) with F(.,x) free, or ~G(x) with F(.,x) false.
        t = theory("weight G 1 2 -1\nweight F 2 1/2 3\nforall x forall y (F(y,x) -> G(x))")
        for n in (1, 2, 3, 40):
            d = Domain.of_size(n)
            assert _split_taken(t, d)
            assert _assert_split_agrees(t, d) == (2 * Fraction(7, 2) ** n - 3 ** n) ** n

    def test_diagonal_atom(self):
        # Per x: F(x,x) with the other F(x,.) free, or every F(x,.) false.
        t = theory("forall x forall y (F(x,x) | ~F(x,y))")
        for n in (1, 2, 3, 40):
            d = Domain.of_size(n)
            assert _split_taken(t, d)
            assert _assert_split_agrees(t, d) == (2 ** (n - 1) + 1) ** n

    def test_blocks_no_clause_mentions(self):
        # A `true` literal drops Q's and W's sentences: their atoms are free.
        t = theory("weight Q 1 2 1/3\nweight W 2 -1 1/2\nforall x (Q(x) | true)\n"
                   "forall x forall y (W(x,y) | true)\nforall x (R(x) | S(x))")
        for n in (1, 2, 3, 30):
            d = Domain.of_size(n)
            assert _split_taken(t, d)
            assert _assert_split_agrees(t, d) == Fraction(7, 3) ** n * Fraction(-1, 2) ** (n * n) * 3 ** n

    def test_positions_found_after_dead_ends(self):
        # Each clause has two separators, x and y. The first choices, A and
        # B at the first argument each, leave the third clause none.
        t = theory("forall x forall y A(x,y)\n"
                   "forall x forall y forall z (A(x,y) | B(y,x,z))\n"
                   "forall x forall y exists z B(x,z,y)")
        for n in (1, 2, 3, 8):
            d = Domain.of_size(n)
            assert _split_taken(t, d)
            assert _assert_split_agrees(t, d) == (2 ** n - 1) ** (n * n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_evidence_constants(self, monkeypatch, n):
        # WorksFor(x,A) names A outside the separator position. A and B are
        # special, and one generic slice stands for the n others.
        t = theory("weight Boss 1 2 -1\nweight WorksFor 2 3 -1/2\n"
                   "forall x exists y (WorksFor(x,y) | Boss(x))\n"
                   "forall x (WorksFor(x,A) -> Boss(x))\nBoss(B)\n~WorksFor(A,B)")
        d = Domain.of_size(n, extra=(Constant("A"), Constant("B")))
        for th in (t, skolemize(t)):
            assert _split_taken(th, d)
            _assert_split_agrees(th, d)
        calls = []
        dpll = counting.wmc_dpll
        monkeypatch.setattr(counting, "wmc_dpll", lambda *a: calls.append(a) or dpll(*a))
        wfomc(t, d, engine="dpll")
        assert len(calls) == 2 + (n > 0)

    def test_queries(self):
        boss = theory("weight Boss 1 1/3 -2\nweight WorksFor 2 -1 3\n"
                      "forall x exists y (WorksFor(x,y) | Boss(x))")
        one_slice = ("Boss(A)", "~WorksFor(A,B)", "exists y WorksFor(A,y)", "WorksFor(A,A) | Boss(A)")
        whole = ("Boss(A) | Boss(B)", "Boss(A) & Boss(B)", "exists x Boss(x)", "forall x Boss(x)")
        for th in (boss, skolemize(boss)):
            for n in (0, 1, 2):
                d = Domain.of_size(n, extra=(Constant("A"), Constant("B")))
                for text in one_slice + whole:
                    q = formula(text)
                    assert _split_taken(th, d, q) == (text in one_slice), text
                    _assert_split_agrees(th, d, q)

    def test_skolem_free_factor_zero(self):
        # Sk0(A)'s clauses are satisfied by evidence, so A's slice leaves
        # it free: 1 + (-1) = 0, and only the query's count is not 0.
        t = theory("weight Sk0 1 1 -1\nforall x forall y (Sk0(x) | ~WorksFor(x,y))\n"
                   "forall x (Sk0(x) | ~Boss(x))\n~Boss(A)\nforall y ~WorksFor(A,y)")
        d = domain("A", "B", "C")
        q = formula("Sk0(A)")
        assert _split_taken(t, d, q)
        num, den = _assert_split_agrees(t, d, q)
        assert den == 0 and num != 0

    def test_closed_forms_at_large_n_under_a_low_recursion_limit(self):
        boss = skolemize(theory((ROOT / "samples" / "boss.fol").read_text()))
        parents = theory((ROOT / "samples" / "parents.fol").read_text())
        stress = theory((ROOT / "samples" / "stress.fol").read_text())
        mln = encode_mln(parse_mln((ROOT / "samples" / "employment.mln").read_text()))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            assert wfomc(boss, Domain.of_size(1000), engine="dpll") == (2 ** 1001 - 1) ** 1000
            assert wfomc(parents, Domain.of_size(100), engine="dpll") == (2 ** 10001 - 1) ** 100
            assert wfomc(stress, Domain.of_size(10000), engine="dpll") == 3 ** 10000
            d = Domain.of_size(999, extra=(Constant("A"),))
            got = query_probability(mln, d, formula("Boss(A)"), engine="dpll")
        finally:
            sys.setrecursionlimit(limit)
        assert got == pytest.approx(mln_boss_probability(1000, 1.3), rel=1e-12)


class TestLiftedRules:
    """``lifted.count``: independent parts, the power rule and the ground
    leaf, each returning a (with, without) pair under a query."""

    @pytest.mark.parametrize("seeds", [range(k, 300, 4) for k in range(4)],
                             ids=[f"seeds{k}mod4" for k in range(4)])
    def test_generated_theories_with_a_query(self, seeds):
        for seed in seeds:
            t = gen_theory(GenConfig(seed=seed))
            for th in (t, skolemize(t)):
                for n in (1, 2, 3):
                    d = Domain.of_size(n, extra=th.constants())
                    q = gen_ground_conjunction(random.Random(f"{seed} {n}"), th, d, max_literals=1)
                    got = wfomc(th, d, engine="dpll", query=q)
                    assert got == _whole_ground(th, d, q), (seed, n, q)
                    if len(grounding.herbrand_base(th, d)) <= 16:
                        assert got == wfomc(th, d, query=q), (seed, n, q)

    def test_independent_parts(self, monkeypatch):
        # F shares no predicate with boss: boss's part is split, and F's one
        # clause of n^2 literals is counted apart, so no wmc_dpll call sees
        # the whole base.
        boss = skolemize(theory((ROOT / "samples" / "boss.fol").read_text()))
        t = boss.replace(sentences=boss.sentences + (formula("exists x exists y F(x,y)"),))
        seen = []
        dpll = counting.wmc_dpll
        monkeypatch.setattr(counting, "wmc_dpll", lambda g, *q: seen.append(len(g.base)) or dpll(g, *q))
        for n in (1, 2, 3, 12):
            d = Domain.of_size(n)
            seen.clear()
            got = wfomc(t, d, engine="dpll")
            assert got == (2 ** (n + 1) - 1) ** n * (2 ** (n * n) - 1)
            assert seen and max(seen) < len(tseitin_ground(ground(t, d)).base)
            assert _split_taken(t, d)
            if n < 3:
                assert got == _whole_ground(t, d) == wfomc(t, d)

    def test_query_pair_shares_one_memo(self, monkeypatch):
        # Each ground component is a lone clause R(a,b) | R(b,a), counted in
        # closed form: the memo stays empty until a query clause joins two
        # components, which the count with the query adds alone.
        sizes = []

        class Recording(counting._DpllCounter):
            def count(self, clauses, n):
                total = super().count(clauses, n)
                sizes.append(len(self.memo))
                return total

        monkeypatch.setattr(counting, "_DpllCounter", Recording)
        counters = _record_counters(monkeypatch)
        t = theory("forall x forall y (R(x,y) | R(y,x))")
        for text, memo, with_query in (("R(C1,C2)", [0, 0], 2 * 3 ** 14),
                                       ("R(C1,C2) | R(C3,C4)", [0, 1], 8 * 3 ** 13)):
            q = formula(text)
            counters.clear()
            sizes.clear()
            assert wfomc(t, Domain.of_size(6), engine="dpll", query=q) == (with_query, 3 ** 15)
            assert len(counters) == 1 and sizes == memo
            d = Domain.of_size(4)
            assert wfomc(t, d, engine="dpll", query=q) == wfomc(t, d, query=q)


class TestModelEnumeration:
    def test_weighted_models_over_the_cap_is_an_error(self):
        g = ground(theory("forall x (P(x) | Q(x))"), Domain.of_size(3))
        assert len(list(weighted_models(g, cap=6))) == 27
        with pytest.raises(CapExceededError, match="6 atoms is too many to enumerate models"):
            next(weighted_models(g, cap=5))

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

    def test_exports_the_clause_form(self):
        g = ground(theory("P(A) <-> Q(A)"), domain("A"))
        assert export_dimacs(g).splitlines()[:3] == ["p cnf 2 2", "c atom 1 P(A)", "c wght 1 1/1"]
        assert export_dimacs(g) == export_dimacs(tseitin_ground(g))
        # Skolem atoms get blocks after the theory's own, with their weights.
        lines = export_dimacs(ground(theory("exists y (P(y) & Q(y))"), domain("A"))).splitlines()
        assert lines[0] == "p cnf 3 1" and lines[-1] == "-1 -2 3 0"
        assert "c atom 3 Sk0" in lines and "c wght -3 -1/1" in lines
