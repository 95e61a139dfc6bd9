import math
import random
from fractions import Fraction

import pytest

from conftest import count_with, domain, formula, theory
from wfomc.counting import ENGINES, wfomc
from wfomc.errors import CapExceededError, NonTightProgramError, WfomcError
from wfomc.frontends import parse_mln, parse_problog, serialize_formula
from wfomc.encoders import (
    WfomcEncoding,
    clarks_completion,
    encode_mln,
    encode_problog,
    mln_oracle,
    problog_oracle,
    query_probability,
    tightness_check,
)
from wfomc.logic import (
    FALSE,
    Atom,
    Domain,
    PredicateSig,
    TRUE,
    WeightFn,
    classify_normal_form,
    predicates,
)

from perfbench.workloads import WORKSHOP_KINDS, workshop_probability

EMPLOYMENT = "1.3 exists y (WorksFor(x,y) | Boss(x))"
WORKSHOP = """
0.1 :: Attends(x).
0.3 :: ToSeries(x).
Series :- Attends(x), ToSeries(x).
"""


class TestEncodeMln:
    def test_parameter_predicate_and_weights(self):
        enc = encode_mln(parse_mln(EMPLOYMENT))
        t = enc.theory
        assert t.sentences == (
            formula("forall x (P0(x) <-> (exists y (WorksFor(x,y) | Boss(x))))"),
        )
        wt, wf = t.weights.get(PredicateSig("P0", 1))
        assert wt == pytest.approx(math.exp(1.3))
        assert wf == 1.0
        assert t.weights.get(PredicateSig("Boss", 1)) == (1.0, 1.0)

    def test_hard_formulas_become_plain_constraints(self):
        enc = encode_mln(parse_mln("inf Smokes(A)\ninf forall x (P(x) -> Q(x))"))
        t = enc.theory
        assert t.sentences[0] == formula("Smokes(A)")
        assert t.weights.pairs == {}

    def test_quantifier_free_formulas_encode_to_skolem_form(self):
        enc = encode_mln(parse_mln("0.7 Smokes(x) -> Cancer(x)"))
        assert classify_normal_form(enc.theory) == "skolem"

    def test_parameter_predicates_dodge_name_collisions(self):
        enc = encode_mln(parse_mln("0.5 P0(x)\n0.5 P1(x)"))
        fresh = {s.name for s in enc.theory.predicates()} - {"P0", "P1"}
        assert len(fresh) == 2


class TestMlnOracle:
    def test_single_person_boss_probability(self):
        m = parse_mln(EMPLOYMENT)
        d = domain("A")
        e13 = math.exp(1.3)
        got = mln_oracle(m, d, formula("Boss(A)"))
        assert got == pytest.approx(2 * e13 / (3 * e13 + 1), abs=1e-12)

    def test_hard_only_entailed_query_has_probability_one(self):
        m = parse_mln("inf Smokes(A)")
        assert mln_oracle(m, domain("A"), formula("Smokes(A)")) == 1.0

    def test_non_sentence_query_and_cap_are_errors(self):
        m = parse_mln("1.0 P(x)")
        with pytest.raises(WfomcError, match="query must be a sentence"):
            mln_oracle(m, Domain.of_size(2), formula("P(x)"))
        with pytest.raises(CapExceededError, match="21 ground atoms exceed the oracle cap 20"):
            mln_oracle(m, Domain.of_size(21), formula("P(C1)"))

    def test_contradictory_hard_rules_have_zero_partition_function(self):
        m = parse_mln("inf P(x)\ninf ~P(x)")
        d = Domain.of_size(2)
        with pytest.raises(WfomcError, match="zero partition function"):
            mln_oracle(m, d, formula("P(C1)"))
        for engine in ENGINES:
            with pytest.raises(WfomcError, match="zero partition function"):
                query_probability(encode_mln(m), d, formula("P(C1)"), engine=engine)

    def test_partition_function_matches_counting_route(self):
        m = parse_mln(EMPLOYMENT)
        enc = encode_mln(m).prepared()
        d = domain("A", "B")
        z_count = wfomc(enc.theory, d)
        # enumerate all 2^6 worlds directly
        e13 = math.exp(1.3)
        total = 0.0
        import itertools

        atoms = [("W", a, b) for a in "AB" for b in "AB"] + [("B", a, None) for a in "AB"]
        for bits in itertools.product((0, 1), repeat=6):
            vals = dict(zip(atoms, bits))
            w = 1.0
            for a in "AB":
                clause = vals[("W", a, "A")] or vals[("W", a, "B")] or vals[("B", a, None)]
                if clause:
                    w *= e13
            total += w
        assert z_count == pytest.approx(total, rel=1e-12)


class TestTightness:
    def test_workshop_is_tight(self):
        assert tightness_check(parse_problog(WORKSHOP)).ok

    def test_direct_positive_cycle(self):
        rep = tightness_check(parse_problog("p :- q.\nq :- p.\n"))
        assert not rep.ok
        assert set(rep.cycle) == {"p", "q"}

    def test_negative_edges_do_not_count(self):
        rep = tightness_check(parse_problog("p :- \\+q.\nq :- \\+p.\n"))
        assert rep.ok

    def test_long_positive_cycle_is_reported_whole(self):
        # One search over an explicit stack, so the cycle's length is not
        # bounded by Python's recursion limit.
        n = 2000
        rep = tightness_check(parse_problog("".join(f"P{i} :- P{(i + 1) % n}.\n"
                                                    for i in range(n))))
        assert not rep.ok
        assert rep.cycle == tuple(f"P{i}" for i in range(n))  # from the least root

    def test_completion_refuses_cycles(self):
        with pytest.raises(NonTightProgramError, match="p"):
            clarks_completion(parse_problog("p :- q.\nq :- p.\n"))


class TestClarksCompletion:
    def test_workshop_completion(self):
        t = clarks_completion(parse_problog(WORKSHOP))
        assert t.sentences == (
            formula("Series <-> (exists x (Attends(x) & ToSeries(x)))"),
        )

    def test_fact_only_program_has_no_sentences(self):
        t = clarks_completion(parse_problog("0.5 :: a.\n0.3 :: b(x)."))
        assert t.sentences == ()

    def test_undefined_predicate_completed_to_false(self):
        t = clarks_completion(parse_problog("p :- q, r.\n0.5 :: q."))
        texts = {serialize_formula(s) for s in t.sentences}
        assert "~r" in texts

    def test_multiple_rules_one_sentence(self):
        t = clarks_completion(parse_problog("p(x) :- q(x).\np(y) :- r(y, z)."))
        assert len([s for s in t.sentences if PredicateSig("p", 1) in predicates(s)]) == 1
        got = serialize_formula(t.sentences[0])
        assert got == "forall x (p(x) <-> q(x) | (exists z r(x,z)))"

    def test_body_variable_clashing_with_a_head_variable_is_renamed(self):
        # The second rule's head variable y becomes the canonical x, so its
        # body-only x is renamed apart.
        p = parse_problog("0.3 :: A(x,y).\n0.6 :: B(x,y).\nQ(x) :- A(x,y).\nQ(y) :- B(y,x).")
        [s] = clarks_completion(p).sentences
        assert s == formula("forall x (Q(x) <-> (exists y A(x,y)) | (exists x_1 B(x,x_1)))")
        d, q = Domain.of_size(2), formula("Q(C1)")
        # Q(C1) fails only if its four parent facts all fail: 1 - (0.7 * 0.4)^2.
        assert problog_oracle(p, d, q) == Fraction(576, 625)
        for engine in ENGINES:
            assert query_probability(encode_problog(p), d, q, engine=engine) == Fraction(576, 625)

    def test_fact_predicate_with_rules_rejected(self):
        with pytest.raises(WfomcError, match="both"):
            clarks_completion(parse_problog("0.5 :: p.\np :- q."))

    def test_constant_in_head_rejected(self):
        with pytest.raises(WfomcError, match="variable"):
            clarks_completion(parse_problog("p(A) :- q."))


# Programs with a fact or rule head whose arguments are not distinct
# variables, each with its error message; the second fact goes through the
# multi-fact expansion.
NOT_DISTINCT = [
    ("0.5 :: P(x,A).\nQ(x) :- P(x,x).", "probabilistic fact P must use distinct variables"),
    ("0.5 :: P(x,x).", "probabilistic fact P repeats a variable"),
    ("0.5 :: P(x,x).\n0.5 :: P(x,y).", "probabilistic fact P repeats a variable"),
    ("0.5 :: P(x).\nQ(A) :- P(A).", "rule head Q must use distinct variables, got a constant"),
    ("0.5 :: P(x).\nQ(x,y) :- P(x).\nQ(x,x) :- P(x).", "rule head Q repeats a variable"),
]


class TestEncodeProblog:
    @pytest.mark.parametrize("text, message", NOT_DISTINCT)
    def test_head_arguments_must_be_distinct_variables(self, text, message):
        with pytest.raises(WfomcError) as e:
            encode_problog(parse_problog(text))
        assert str(e.value) == message

    def test_workshop_weights(self):
        enc = encode_problog(parse_problog(WORKSHOP))
        w = enc.theory.weights
        assert w.get(PredicateSig("Attends", 1)) == (Fraction(1, 10), Fraction(9, 10))
        assert w.get(PredicateSig("ToSeries", 1)) == (Fraction(3, 10), Fraction(7, 10))
        assert w.get(PredicateSig("Series", 0)) == (1, 1)

    def test_single_fact_counts_to_one(self):
        enc = encode_problog(parse_problog("0.5 :: a."))
        assert enc.theory.sentences == ()
        for n in (1, 2, 3):
            assert wfomc(enc.theory, Domain.of_size(n)) == 1

    def test_multiple_facts_for_one_predicate_use_auxiliaries(self):
        enc = encode_problog(parse_problog("0.5 :: a.\n0.5 :: a."))
        # a <-> a_0 | a_1, each auxiliary carrying one fact's weights
        d = domain("A")
        num = wfomc(
            enc.theory.replace(sentences=enc.theory.sentences + (formula("a"),)), d
        )
        den = wfomc(enc.theory, d)
        assert num / den == Fraction(3, 4)

    def test_fact_with_constant_rejected(self):
        with pytest.raises(WfomcError, match="variable"):
            encode_problog(parse_problog("0.5 :: p(A)."))


class TestProblogOracle:
    def test_series_probability_matches_noisy_or(self):
        p = parse_problog(WORKSHOP)
        for n in (1, 2, 3):
            got = problog_oracle(p, Domain.of_size(n), formula("Series"))
            assert got == 1 - Fraction(97, 100) ** n

    def test_single_world_weight(self):
        # one attendee converting the workshop: 0.1 * 0.9 * 0.3 * 0.7
        p = parse_problog(WORKSHOP)
        d = domain("A", "B")
        q = formula(
            "Attends(A) & ToSeries(A) & ~Attends(B) & ~ToSeries(B) & ~ToSeries(A)"
        )
        # weight of the world {Attends(A), ToSeries(A)}: pin it via a query
        # that isolates exactly that world over the fact atoms
        q = formula("Attends(A) & ToSeries(A) & ~Attends(B) & ~ToSeries(B)")
        got = problog_oracle(p, d, q)
        assert got == Fraction(189, 10000)

    def test_marginal_of_independent_fact(self):
        p = parse_problog(WORKSHOP)
        got = problog_oracle(p, domain("A"), formula("Attends(A)"))
        assert got == Fraction(1, 10)

    def test_negation_in_bodies_is_stratified(self):
        p = parse_problog("0.5 :: a.\nq :- \\+a.")
        assert problog_oracle(p, domain("A"), formula("q")) == Fraction(1, 2)

    def test_non_sentence_query_and_cap_are_errors(self):
        p = parse_problog("0.5 :: P(x).\nQ :- P(x).")
        with pytest.raises(WfomcError, match="query must be a sentence"):
            problog_oracle(p, Domain.of_size(2), formula("P(x)"))
        with pytest.raises(CapExceededError, match="21 ground facts exceed the oracle cap 20"):
            problog_oracle(p, Domain.of_size(21), formula("Q"))

    def test_unstratified_program_rejected(self):
        p = parse_problog("p :- \\+q.\nq :- \\+p.")
        with pytest.raises(WfomcError, match="stratified"):
            problog_oracle(p, domain("A"), formula("p"))


class TestQueryProbability:
    def test_problog_pipeline_equals_oracle(self):
        p = parse_problog(WORKSHOP)
        enc = encode_problog(p)
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            q = formula("Series")
            assert query_probability(enc, d, q) == problog_oracle(p, d, q)

    def test_mln_pipeline_equals_oracle(self):
        m = parse_mln(EMPLOYMENT)
        enc = encode_mln(m)
        for names in (("A",), ("A", "B")):
            d = domain(*names)
            for q in (formula("Boss(A)"), formula("WorksFor(A,A)")):
                lhs = query_probability(enc, d, q)
                rhs = mln_oracle(m, d, q)
                assert abs(lhs - rhs) <= 1e-9

    def test_true_query_is_one(self):
        enc = encode_problog(parse_problog(WORKSHOP))
        assert query_probability(enc, domain("A"), TRUE) == 1

    def test_zero_partition_function_is_an_error(self):
        cases = [
            ("P(A)\n~P(A)", "P(A)"),  # no model
            ("weight P 0 1 -1\nP | ~P", "P"),  # models whose weights cancel
        ]
        for text, query in cases:
            enc = WfomcEncoding(theory(text))
            for engine in ENGINES:
                with pytest.raises(WfomcError, match="partition"):
                    query_probability(enc, domain("A"), formula(query), engine=engine)

    def test_query_constant_outside_domain_is_an_error(self):
        enc = encode_problog(parse_problog(WORKSHOP))
        with pytest.raises(WfomcError, match="domain"):
            query_probability(enc, domain("A"), formula("Attends(B)"))

    def test_engines_agree(self):
        enc = encode_problog(parse_problog(WORKSHOP))
        for n in (2, 3):
            d = Domain.of_size(n)
            for kind, text in enumerate(WORKSHOP_KINDS):
                q = formula(text.format(c=f"C{n}"))
                for engine in ENGINES:
                    got = query_probability(enc, d, q, engine=engine)
                    assert got == workshop_probability(kind, n), (n, text, engine)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_constant_queries(self, engine):
        enc = encode_problog(parse_problog(WORKSHOP))
        d = Domain.of_size(2)
        assert query_probability(enc, d, TRUE, engine=engine) == 1
        assert query_probability(enc, d, FALSE, engine=engine) == 0

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_query_predicate_outside_the_model_is_an_error(self, engine):
        enc = encode_problog(parse_problog(WORKSHOP))
        with pytest.raises(WfomcError, match=r"query predicate\(s\) \['Q', 'R'\] not in the model"):
            query_probability(enc, domain("A"), formula("Series & R(A) | Q"), engine=engine)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_fact_that_no_rule_uses(self, engine):
        # A weighted predicate that no sentence mentions is still the model's.
        enc = encode_problog(parse_problog("0.5 :: a.\n0.1 :: Rain(x).\nWet :- Rain(x)."))
        d = domain("A", "B")
        assert query_probability(enc, d, formula("a"), engine=engine) == Fraction(1, 2)
        enc = encode_problog(parse_problog("0.1 :: Attends(x).\n0.3 :: ToSeries(x).\n"
                                           "Series :- ToSeries(x)."))
        assert query_probability(enc, d, formula("Attends(A) & Series"),
                                 engine=engine) == Fraction(1, 10) * (1 - Fraction(49, 100))


class TestNoisyOr:
    def test_series_is_a_noisy_or_of_attendees(self):
        p = parse_problog(WORKSHOP)
        enc = encode_problog(p)
        per_person = Fraction(1, 10) * Fraction(3, 10)
        for n in (1, 2, 3):
            d = Domain.of_size(n)
            want = 1 - (1 - per_person) ** n
            assert query_probability(enc, d, formula("Series")) == want


class TestCompletionSoundness:
    def test_completion_models_are_exactly_the_minimal_models(self):
        # Under unit weights, every fact world extends to exactly one model
        # of the completion: its count is 1.
        import itertools

        from wfomc.grounding import ground

        p = parse_problog(WORKSHOP)
        enc = encode_problog(p)
        g = ground(enc.theory.replace(weights=WeightFn(), scale=()), domain("A", "B"))
        fact_atoms = [a for a in g.base.atoms if a.pred.name in ("Attends", "ToSeries")]
        worlds = list(itertools.product((False, True), repeat=len(fact_atoms)))
        assert len(worlds) == 16
        assert [count_with(g, dict(zip(fact_atoms, w))) for w in worlds] == [1] * 16


def gen_program(seed):
    """Small tight programs: facts feed derived predicates, never backwards."""
    from wfomc.frontends import BodyLiteral, LogicProgram, ProbFact, Rule
    from wfomc.logic import Variable

    rng = random.Random(seed)
    probs = [Fraction(1, 10), Fraction(1, 2), Fraction(3, 10), Fraction(9, 10),
             Fraction(0), Fraction(1)]
    facts = []
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(0, 1)
        args = (Variable("x"),) if arity else ()
        facts.append(ProbFact(rng.choice(probs), Atom(PredicateSig(f"f{i}", arity), args)))
    rules = []
    derived = []
    for j in range(rng.randint(1, 2)):
        arity = rng.randint(0, 1)
        head = Atom(PredicateSig(f"d{j}", arity),
                    (Variable("x"),) if arity else ())
        pool = [f.head.pred for f in facts] + derived
        body = []
        for _ in range(rng.randint(1, 2)):
            bp = rng.choice(pool)
            if bp.arity == 0:
                atom = Atom(bp, ())
            else:
                var = rng.choice(["x", "y"]) if arity else "y"
                atom = Atom(bp, (Variable(var),))
            positive = rng.random() < 0.75 or bp in derived
            body.append(BodyLiteral(positive, atom))
        rules.append(Rule(head, tuple(body)))
        derived.append(head.pred)
    return LogicProgram(tuple(facts), tuple(rules))


def gen_mln(seed):
    """Small quantified MLNs: up to two soft formulas over two variables."""
    from wfomc.frontends import MlnModel, MlnRule
    from wfomc.logic import And, Exists, ForAll, Iff, Implies, Not, Or, Variable

    rng = random.Random(seed)
    sigs = [PredicateSig("R", 2), PredicateSig("U", 1), PredicateSig("B", 0)]
    sigs = sigs[3 - rng.randint(1, 3):]

    def gen_f(depth, scope):
        r = rng.random()
        fresh = [v for v in ("u", "w") if v not in scope]
        if depth and fresh and r < 0.3:
            v = fresh[0]
            cls = ForAll if rng.random() < 0.5 else Exists
            return cls(v, gen_f(depth - 1, scope + (v,)))
        usable = [s for s in sigs if s.arity == 0 or scope]
        if depth and r < 0.75 and usable:
            kind = rng.randrange(5)
            if kind == 0:
                return Not(gen_f(depth - 1, scope))
            cls = (And, Or, Implies, Iff)[kind - 1]
            return cls(gen_f(depth - 1, scope), gen_f(depth - 1, scope))
        sig = rng.choice(usable or sigs[-1:])
        args = tuple(Variable(rng.choice(scope)) for _ in range(sig.arity))
        return Atom(sig, args)

    rules = []
    for _ in range(rng.randint(1, 2)):
        free = ("x", "y")[: rng.randint(0, 2)]
        rules.append(MlnRule(rng.uniform(-1.5, 1.5), gen_f(2, free)))
    return MlnModel(tuple(rules))


class TestPipelineEquality:
    def test_generated_tight_programs_match_the_oracle_exactly(self):
        for seed in range(40):
            p = gen_program(seed)
            enc = encode_problog(p)
            last = p.rules[-1].head.pred
            for n in (1, 2, 3):
                d = Domain.of_size(n)
                q = Atom(last, tuple(d.constants[: last.arity]))
                lhs = query_probability(enc, d, q)
                rhs = problog_oracle(p, d, q)
                assert lhs == rhs, (seed, n, lhs, rhs)

    def test_generated_mlns_match_the_oracle_within_tolerance(self):
        for seed in range(25):
            m = gen_mln(seed)
            enc = encode_mln(m)
            sig = sorted(
                {s for r in m.rules for s in predicates(r.formula)},
                key=lambda s: s.name,
            )[0]
            for n in (1, 2):
                d = Domain.of_size(n)
                args = tuple(d.constants[i % n] for i in range(sig.arity))
                q = Atom(sig, args)
                lhs = query_probability(enc, d, q)
                rhs = mln_oracle(m, d, q)
                assert abs(lhs - rhs) <= 1e-9, (seed, n, lhs, rhs)

    def test_completion_models_match_minimal_models_on_generated_programs(self):
        # Under unit weights, a fact world counts 1 (it has exactly one
        # completion model), and so does the minimal model given as a full
        # assignment (that model is it).
        import itertools

        from wfomc.encoders import _ground_rules, _minimal_model, _stratify
        from wfomc.grounding import ground
        from wfomc.logic import ForAll, Not, Or, Variable

        for seed in range(20):
            p = gen_program(seed)
            theory_part = clarks_completion(p)
            # fact predicates missing from the completion get tautological
            # clauses so the ground base covers every fact atom
            extra = []
            present = set(theory_part.predicates())
            for f in p.facts:
                if f.head.pred not in present:
                    a = Atom(f.head.pred,
                             tuple(Variable("x") for _ in range(f.head.pred.arity)))
                    s = Or(a, Not(a))
                    for _ in range(f.head.pred.arity):
                        s = ForAll("x", s)
                    extra.append(s)
            full = theory_part.replace(sentences=theory_part.sentences + tuple(extra),
                                       weights=WeightFn(), scale=())
            d = Domain.of_size(2)
            g = ground(full, d)
            atoms = g.base.atoms
            facts = [a for a in atoms if any(a.pred == f.head.pred for f in p.facts)]
            strata = _stratify(p)
            rules = _ground_rules(p, d)
            for bits in itertools.product((False, True), repeat=len(facts)):
                world = dict(zip(facts, bits))
                model = _minimal_model({a for a in facts if world[a]}, rules, strata)
                assert [count_with(g, world),
                        count_with(g, {a: a in model for a in atoms})] == [1, 1], (seed, bits)

    def test_random_tight_programs_match_the_oracle_exactly(self):
        rng = random.Random(99)
        programs = [
            "0.3 :: a.\n0.7 :: b.\np :- a, b.\nq :- a.\n",
            "0.5 :: a(x).\np :- a(x).\n",
            "0.2 :: a(x).\n0.4 :: b.\np(x) :- a(x), b.\nq :- p(x).\n",
            "0.9 :: a(x).\np :- \\+a(x).\n",
            "1 :: a.\np :- a.\n",
            "0 :: a.\np :- a.\n",
        ]
        for text in programs:
            p = parse_problog(text)
            enc = encode_problog(p)
            for n in (1, 2):
                d = Domain.of_size(n)
                heads = {r.head.pred for r in p.rules}
                q_sig = sorted(heads, key=lambda s: s.name)[0]
                args = tuple(d.constants[:q_sig.arity])
                q = Atom(q_sig, args)
                assert query_probability(enc, d, q) == problog_oracle(p, d, q), (text, n)
