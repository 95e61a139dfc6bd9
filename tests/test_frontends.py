import math
import sys
from fractions import Fraction

import pytest

from conftest import formula
from wfomc.errors import ParseError, WfomcError
from wfomc.frontends import (
    _int_str,
    count_json,
    parse_mln,
    parse_problog,
    parse_query,
    parse_theory,
    probability_json,
    serialize_formula,
    serialize_mln,
    serialize_problog,
    serialize_theory,
)
from wfomc.counting import wfomc
from wfomc.logic import (
    Constant,
    Domain,
    PredicateSig,
    Variable,
    WeightedTheory,
    WeightFn,
)
from wfomc.propcheck import GenConfig, gen_theory


class TestTheoryParsing:
    def test_simple_sentence(self):
        t, d = parse_theory("forall x (Stress(x) -> Smokes(x))")
        assert d is None
        assert t.sentences == (formula("forall x (Stress(x) -> Smokes(x))"),)

    def test_empty_input_is_empty_theory(self):
        t, _ = parse_theory("")
        assert t.sentences == ()

    def test_weight_declaration_with_negative(self):
        t, _ = parse_theory("weight S 1 1 -1")
        assert t.weights.get(PredicateSig("S", 1)) == (Fraction(1), Fraction(-1))

    def test_decimals_parse_to_exact_rationals(self):
        t, _ = parse_theory("weight P 0 0.3 0.7")
        assert t.weights.get(PredicateSig("P", 0)) == (Fraction(3, 10), Fraction(7, 10))

    def test_rational_weight_literals(self):
        t, _ = parse_theory("weight P 0 3/10 -7/10")
        assert t.weights.get(PredicateSig("P", 0)) == (Fraction(3, 10), Fraction(-7, 10))

    def test_domain_declaration(self):
        t, d = parse_theory("domain A, B, 'longer name'\nP(A)")
        assert [c.name for c in d] == ["A", "B", "longer name"]

    def test_comments_and_dot_terminators(self):
        t, _ = parse_theory("# a comment\nP(A). Q(B).\n")
        assert len(t.sentences) == 2

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as e:
            parse_theory("forall x (P(x) &)")
        assert e.value.line == 1
        assert e.value.column == 17

        with pytest.raises(ParseError) as e:
            parse_theory("P(A)\nQ(A,")
        assert e.value.line == 2

    def test_arity_conflict_is_an_error(self):
        with pytest.raises(ParseError):
            parse_theory("P(A)\nP(A,B)")
        with pytest.raises(ParseError):
            parse_theory("weight P 2 1 1\nP(A)")

    def test_free_variable_sentence_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("P(x)")

    def test_lowercase_is_variable_uppercase_is_constant(self):
        f = formula("Edge(x,B)")
        assert f.args == (Variable("x"), Constant("B"))

    def test_quoted_constants(self):
        f = formula("P('weird name')")
        assert f.args == (Constant("weird name"),)

    def test_quantifier_scope_extends_right(self):
        assert formula("forall x P(x) -> Q(x)") == formula("forall x (P(x) -> Q(x))")

    def test_precedence(self):
        assert formula("~a & b | c -> d <-> e") == formula("((((~a & b) | c) -> d) <-> e)")

    def test_implication_right_associative(self):
        assert formula("a -> b -> c") == formula("a -> (b -> c)")


class TestMlnParsing:
    def test_soft_formula(self):
        m = parse_mln("1.3 exists y (WorksFor(x,y) | Boss(x))")
        assert len(m.rules) == 1
        assert m.rules[0].weight == 1.3
        assert not m.rules[0].hard

    def test_hard_formula(self):
        m = parse_mln("inf Smokes(A)")
        assert m.rules[0].hard

    def test_zero_weight(self):
        m = parse_mln("0 P(x)")
        assert m.rules[0].weight == 0.0

    def test_order_preserved(self):
        m = parse_mln("1.0 P(x)\n-2.5 Q(x)\ninf R(x)")
        assert [r.weight for r in m.rules] == [1.0, -2.5, math.inf]


class TestProblogParsing:
    WORKSHOP = """
    0.1 :: Attends(x).
    0.3 :: ToSeries(x).
    Series :- Attends(x), ToSeries(x).
    """

    def test_workshop_program(self):
        p = parse_problog(self.WORKSHOP)
        assert len(p.facts) == 2
        assert len(p.rules) == 1
        assert p.facts[0].prob == Fraction(1, 10)
        assert p.rules[0].head.pred == PredicateSig("Series", 0)
        assert all(lit.positive for lit in p.rules[0].body)

    def test_single_ground_fact(self):
        p = parse_problog("0.5 :: a.")
        assert len(p.facts) == 1 and not p.rules
        assert p.facts[0].prob == Fraction(1, 2)

    def test_probability_out_of_range(self):
        with pytest.raises(ParseError):
            parse_problog("1.5 :: a.")

    def test_negative_body_literal(self):
        p = parse_problog("p :- \\+q.")
        assert not p.rules[0].body[0].positive

    def test_missing_terminator(self):
        with pytest.raises(ParseError):
            parse_problog("0.5 :: a")


class TestRoundTrip:
    def test_theory_round_trip_on_generated_instances(self):
        for seed in range(60):
            t = gen_theory(GenConfig(seed=seed))
            back, _ = parse_theory(serialize_theory(t))
            assert back.sentences == t.sentences, f"seed {seed}"
            assert back.weights.pairs == t.weights.pairs, f"seed {seed}"

    def test_formula_round_trip_examples(self):
        cases = [
            "forall x exists y (WorksFor(x,y) | Boss(x))",
            "~(P(A) & Q(A)) -> R(A) <-> S(A)",
            "exists x (P(x) & (forall y Q(y) | R(x,x)))",
            "P('odd name',B) | ~Q(B)",
            "true & ~false",
            "a | (b | c)",
            "(forall x P(x)) & Q(A)",
        ]
        for text in cases:
            f = formula(text)
            assert formula(serialize_formula(f)) == f, text

    def test_mln_round_trip(self):
        m = parse_mln("1.3 exists y (WorksFor(x,y) | Boss(x))\ninf Smokes(A)\n-0.5 P(x)")
        assert parse_mln(serialize_mln(m)) == m

    def test_problog_round_trip(self):
        p = parse_problog(TestProblogParsing.WORKSHOP + "q :- \\+Series.")
        assert parse_problog(serialize_problog(p)) == p


class TestQueryParsing:
    def test_one_sentence(self):
        assert parse_query("exists x (P(x) & Q)") == formula("exists x (P(x) & Q)")

    def test_trailing_input_is_a_parse_error(self):
        with pytest.raises(ParseError, match="trailing input after query") as e:
            parse_query("P(A) Q")
        assert (e.value.line, e.value.column) == (1, 6)

    def test_free_variable_is_rejected(self):
        with pytest.raises(WfomcError, match=r"^query must be a sentence \(no free variables\)$"):
            parse_query("P(x)")


class TestErrorDiscipline:
    def test_corrupted_inputs_fail_with_located_parse_errors(self):
        # No silent recovery and no stray exception types: any parse failure
        # is a ParseError carrying a 1-based source position.
        import random

        base = "weight S 1 1 -1\nforall x exists y (WorksFor(x,y) | Boss(x))\n"
        rng = random.Random(2)
        junk = "()|&->~.,%$@:: \n\\+"
        for _ in range(300):
            text = list(base)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(text))
                if rng.random() < 0.5:
                    text[pos] = rng.choice(junk)
                else:
                    text.insert(pos, rng.choice(junk))
            mutated = "".join(text)
            try:
                parse_theory(mutated)
            except ParseError as e:
                assert e.line >= 1 and e.column >= 1
            # a mutation may still be syntactically valid; that is fine


class TestJson:
    def test_exact_count_schema(self):
        assert count_json(Fraction(591, 10000)) == {
            "count": {"num": "591", "den": "10000"}
        }
        assert count_json(Fraction(48)) == {"count": {"num": "48", "den": "1"}}

    def test_float_count_schema(self):
        # A float-weighted theory counts exactly: its count is the exact
        # binary value of the float weights, in the exact schema.
        t = WeightedTheory((formula("P"),),
                           WeightFn({PredicateSig("P", 0): (0.1, 2.0)}, "float"))
        got = wfomc(t, Domain.of_size(1))
        assert got == Fraction(0.1)
        assert count_json(got) == {
            "count": {"num": "3602879701896397", "den": "36028797018963968"}
        }

    def test_int_str_past_the_digit_limit(self):
        # Built without str(int), which refuses more than 4300 digits.
        sevens = 7 * (10 ** 5000 - 1) // 9
        assert _int_str(sevens) == "7" * 5000
        assert _int_str(-sevens) == "-" + "7" * 5000
        # Zero-padded chunks inside the number.
        assert _int_str(10 ** 4999 + 1) == "1" + "0" * 4998 + "1"
        assert [_int_str(n) for n in (0, 7, -12)] == ["0", "7", "-12"]

    def test_int_str_without_the_digit_limit_attribute(self, monkeypatch):
        # Interpreters before 3.10.7 have no str_digits_check_threshold.
        monkeypatch.setattr(sys, "int_info", object())
        assert _int_str(-12) == "-12"

    def test_probability_schema(self):
        assert probability_json(Fraction(1, 2)) == {
            "probability": {"num": "1", "den": "2"}
        }
        assert probability_json(0.25) == {"probability_float": 0.25}
