import argparse
import decimal
import json
import math
import random
import shlex
from pathlib import Path

import pytest

from test_encoders import NOT_DISTINCT
from wfomc import cli
from wfomc.cli import main
from wfomc.counting import DEFAULT_ENGINE, ENGINES
from wfomc.frontends import parse_theory, serialize_theory
from wfomc.transform import skolemize, skolemize_full

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_smokers_at_two_is_48(self, capsys):
        code, out, _ = run(capsys, "count", SAMPLES / "smokers.fol", "--domain-size", "2")
        assert code == 0
        assert out.strip() == "48"

    def test_named_domain(self, capsys):
        code, out, _ = run(capsys, "count", SAMPLES / "stress.fol", "--domain", "A,B,C")
        assert code == 0
        assert out.strip() == "27"

    def test_engines_agree_on_every_shipped_example(self, capsys):
        for sample in sorted(SAMPLES.glob("*.fol")):
            results = set()
            for engine in ENGINES:
                code, out, _ = run(capsys, "count", sample,
                                   "--domain-size", "2", "--engine", engine)
                assert code == 0, sample.name
                results.add(out.strip())
            assert len(results) == 1, sample.name

    def test_long_ground_clause_counts_with_dpll(self, capsys, tmp_path):
        # One ground clause with a literal per constant: clause extraction
        # and the DPLL search must not recurse once per literal.
        f = tmp_path / "exists.fol"
        f.write_text("exists y R(y)\n")
        code, out, err = run(capsys, "count", f, "--domain-size", "1200", "--engine", "dpll")
        assert code == 0, err
        assert int(out) == 2 ** 1200 - 1

    @pytest.mark.parametrize("text,n,want", [
        (" | ".join(f"P{i}" for i in range(5000)), 1, 2 ** 5000 - 1),
        ("forall x (" + " | ".join(f"P{i}(x)" for i in range(3000)) + ")", 2,
         (2 ** 3000 - 1) ** 2),
    ], ids=["nullary-5000", "unary-3000"])
    def test_long_clause_parses_and_counts_with_dpll(self, capsys, tmp_path, text, n, want):
        # Validating the parsed theory must not recurse once per literal.
        f = tmp_path / "long.fol"
        f.write_text(text + "\n")
        code, out, err = run(capsys, "count", f, "--domain-size", n, "--engine", "dpll")
        assert code == 0, err
        assert int(decimal.Decimal(out)) == want

    @pytest.mark.parametrize("argv", [
        ("count", "--engine", "dpll", "--domain-size", "2"),
        ("skolemize",), ("skolemize", "--no-propagate"), ("cnf",), ("cnf", "--tseitin"),
    ], ids=" ".join)
    @pytest.mark.parametrize("text,count", [
        (" & ".join(f"P{i}" for i in range(3000)), 1),
        ("forall x (" + " & ".join(f"P{i}(x)" for i in range(3000)) + ")", 1),
        ("forall x (Q(x) | (" + " & ".join(f"P{i}(x)" for i in range(2000)) + "))",
         (2 ** 2000 + 1) ** 2),
        # Each P_i and constant: 3 of the 4 assignments of its 2 atoms.
        ("forall x (" + " & ".join(f"(exists y P{i}(x,y))" for i in range(1000)) + ")",
         9 ** 1000),
    ], ids=["nullary-and-3000", "unary-and-3000", "or-of-and-2000", "exists-sites-1000"])
    def test_long_chains_do_not_run_out_of_recursion(self, capsys, tmp_path, argv, text, count):
        # A chain of & or | is one node, so no stage recurses once per operand.
        f = tmp_path / "chain.fol"
        f.write_text(text + "\n")
        code, out, err = run(capsys, *argv, f)
        assert code == 0, err
        if argv[0] == "count":
            assert int(decimal.Decimal(out)) == count

    def test_disjunctive_quantifiers_count_with_dpll(self, capsys):
        # parents.fol reads as one clause per x, over all n^2 pairs (y, z).
        n = 32
        code, out, err = run(capsys, "count", SAMPLES / "parents.fol",
                             "--domain-size", n, "--engine", "dpll")
        assert code == 0, err
        assert int(decimal.Decimal(out)) == (2 ** (n * n + 1) - 1) ** n

    def test_skolemized_sentence_counts_with_dpll(self, capsys, tmp_path):
        f = tmp_path / "exists.fol"
        f.write_text("exists y (R(y) & S(y))\n")
        n = 3000
        code, out, err = run(capsys, "count", f, "--domain-size", n, "--engine", "dpll")
        assert code == 0, err
        assert int(decimal.Decimal(out)) == 4 ** n - 3 ** n

    def test_counts_past_the_int_str_digit_limit(self, capsys):
        # 3**10000 has 4772 digits, more than str(int) converts by default.
        want = 3 ** 10000
        code, out, err = run(capsys, "count", SAMPLES / "stress.fol",
                             "--domain-size", "10000", "--engine", "dpll")
        assert code == 0, err
        assert len(out.strip()) == 4772
        assert int(decimal.Decimal(out)) == want
        code, out, err = run(capsys, "count", SAMPLES / "stress.fol",
                             "--domain-size", "10000", "--engine", "dpll", "--json")
        assert code == 0, err
        count = json.loads(out)["count"]
        assert count["den"] == "1"
        assert int(decimal.Decimal(count["num"])) == want

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "count", SAMPLES / "smokers.fol",
                           "--domain-size", "2", "--json")
        assert code == 0
        assert json.loads(out) == {"count": {"num": "48", "den": "1"}}

    def test_exact_fraction_output(self, capsys, tmp_path):
        f = tmp_path / "w.fol"
        f.write_text("weight P 1 3/10 7/10\nP(A)\n")
        code, out, _ = run(capsys, "count", f, "--domain-size", "1")
        assert code == 0 and out.strip() == "3/10"


class TestSkolemize:
    @pytest.mark.parametrize("sample,golden", [
        ("boss.fol", "boss_skolemize.txt"),
        ("parents.fol", "parents_skolemize.txt"),
        ("employment.mln", "employment_skolemize.txt"),
        ("workshop.plp", "workshop_skolemize.txt"),
    ])
    def test_golden_outputs(self, capsys, sample, golden):
        code, out, _ = run(capsys, "skolemize", SAMPLES / sample)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_golden_full_elimination_printed(self, capsys):
        # The inner existential takes the full step, with definition Z0.
        code, out, _ = run(capsys, "skolemize", "--no-propagate", SAMPLES / "parents.fol")
        assert code == 0
        assert out == (GOLDEN / "parents_skolemize_no_propagate.txt").read_text()

    @pytest.mark.parametrize("transform,source,golden", [
        # An internal universal: the double-negation branch, ~Z0 in place.
        (skolemize, "weight P 1 2 -1\n(forall x P(x)) | Q(A)\n", "internal_forall_skolemize.txt"),
        # No shortcut: the prefix existential takes the full step too.
        (skolemize_full, (SAMPLES / "boss.fol").read_text(), "boss_skolemize_full.txt"),
    ])
    def test_golden_transforms(self, transform, source, golden):
        out = transform(parse_theory(source)[0])
        assert serialize_theory(out) == (GOLDEN / golden).read_text()

    def test_shortcut_flag_on_prenex_input(self, capsys):
        code, out, _ = run(capsys, "skolemize", SAMPLES / "boss.fol", "--shortcut")
        assert code == 0
        assert out == (GOLDEN / "boss_skolemize.txt").read_text()

    def test_shortcut_flag_rejects_non_prenex(self, capsys, tmp_path):
        f = tmp_path / "t.fol"
        f.write_text("forall x (P(x) & exists y Q(y))\n")
        code, _, err = run(capsys, "skolemize", f, "--shortcut")
        assert code == 2
        assert "skolemize" in err

    def test_no_propagate_keeps_the_definition_unit(self, capsys, tmp_path):
        f = tmp_path / "t.fol"
        # force the full elimination (the existential is under a conjunction)
        f.write_text("forall x (exists y W(x,y)) \n")
        code, out, _ = run(capsys, "skolemize", f, "--no-propagate")
        assert code == 0


class TestCnf:
    def test_distributed(self, capsys, tmp_path):
        f = tmp_path / "t.fol"
        f.write_text("forall x (P(x) | Q(x) & R(x))\n")
        code, out, _ = run(capsys, "cnf", f)
        assert code == 0
        assert out.splitlines() == [
            "forall x (P(x) | Q(x))",
            "forall x (P(x) | R(x))",
        ]

    def test_tseitin_flag(self, capsys, tmp_path):
        f = tmp_path / "t.fol"
        f.write_text("forall x (P(x) <-> Q(x))\n")
        code, out, _ = run(capsys, "cnf", f, "--tseitin")
        assert code == 0
        assert out.splitlines() == [
            "forall x (~P(x) | Q(x))",
            "forall x (P(x) | ~Q(x))",
        ]


    def test_tseitin_flag_with_a_constant(self, capsys, tmp_path):
        f = tmp_path / "t.fol"
        f.write_text("forall x (P(x) | (Q(x) & true))\n")
        code, out, err = run(capsys, "cnf", f, "--tseitin")
        assert code == 0, err
        assert out.splitlines() == ["forall x (P(x) | Q(x))"]


class TestProb:
    def test_workshop_series(self, capsys):
        code, out, _ = run(capsys, "prob", SAMPLES / "workshop.plp",
                           "--query", "Series", "--domain-size", "2", "--mode", "exact")
        assert code == 0
        assert out.strip() == "591/10000"

    def test_workshop_series_float_mode_is_rounded_once(self, capsys):
        # The float weights count as their exact binary values, and only the
        # ratio is rounded.
        code, out, _ = run(capsys, "prob", SAMPLES / "workshop.plp",
                           "--query", "Series", "--domain-size", "2", "--mode", "float")
        assert code == 0
        assert out == "0.0591\n"

    def test_skolem_cancellation_at_40_constants(self, capsys, tmp_path):
        # The Skolem weights (1, -1) make both counts alternating sums, which
        # only exact arithmetic holds at this size.
        f = tmp_path / "boss.mln"
        f.write_text("1.5 exists y (WorksFor(x,y) | Boss(x))\n")
        argv = ("prob", f, "--query", "Boss(C1)", "--engine", "dpll", "--domain-size", "40")
        ew, big = math.exp(1.5), 2 ** 40
        want = big * ew / (big * ew + (big - 1) * ew + 1)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert abs(float(out) - want) <= 1e-12

        def no_constant(name):
            raise AssertionError(f"not JSON: {name}")

        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        got = json.loads(out, parse_constant=no_constant)["probability_float"]
        assert abs(got - want) <= 1e-12

    def test_mln_float(self, capsys):
        code, out, _ = run(capsys, "prob", SAMPLES / "employment.mln",
                           "--query", "Boss(A)", "--domain", "A")
        assert code == 0
        assert abs(float(out) - 0.6111476149008687) < 1e-12

    def test_mln_exact_mode_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "prob", SAMPLES / "employment.mln",
                           "--query", "Boss(A)", "--domain", "A", "--mode", "exact")
        assert code == 2
        assert err == "error: MLN weights are e^w; only float mode is available\n"

    def test_fol_file_is_parsed_once_with_its_domain(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "t.fol"
        f.write_text("domain A, B\nforall x (P(x) | Q(x))\n")
        calls = []
        parse = cli.parse_theory
        monkeypatch.setattr(cli, "parse_theory", lambda text: calls.append(text) or parse(text))
        code, out, _ = run(capsys, "prob", f, "--query", "P(A)", "--mode", "exact")
        assert code == 0 and out == "2/3\n"
        assert len(calls) == 1

    def test_json_probability(self, capsys):
        code, out, _ = run(capsys, "prob", SAMPLES / "workshop.plp",
                           "--query", "Series", "--domain-size", "1", "--json")
        assert code == 0
        assert json.loads(out) == {"probability": {"num": "3", "den": "100"}}

    @pytest.mark.parametrize("text, message", NOT_DISTINCT)
    def test_head_arguments_must_be_distinct_variables(self, capsys, tmp_path, text, message):
        f = tmp_path / "p.plp"
        f.write_text(text + "\n")
        code, out, err = run(capsys, "prob", f, "--query", "true", "--domain-size", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_long_rule_chain_does_not_run_out_of_recursion(self, capsys, tmp_path):
        # The tightness check searches the 2000-rule dependency chain
        # without nesting a Python call per rule.
        f = tmp_path / "chain.plp"
        f.write_text("0.5 :: P2000.\n" + "".join(f"P{i} :- P{i + 1}.\n" for i in range(2000)))
        code, out, err = run(capsys, "prob", f, "--query", "P0", "--domain-size", "1",
                             "--engine", "dpll")
        assert code == 0, err
        assert out == "1/2\n"


class TestCheck:
    def test_small_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--seeds", "10", "--sizes", "1")
        assert code == 0
        assert "0 failure(s)" in out

    def test_bad_sizes_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["check", "--seeds", "1", "--sizes", "1,x"])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: argument --sizes: expected comma-separated integers, got '1,x'"]

    @pytest.mark.parametrize("sizes", ["0", "4", "-1", "1,4"])
    def test_sizes_outside_the_generator_range_are_usage_errors(self, capsys, sizes):
        with pytest.raises(SystemExit) as e:
            main(["check", "--seeds", "2", "--sizes", sizes])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: argument --sizes: expected sizes within {{1,2,3}}, got {sizes!r}"]

    @pytest.mark.parametrize("argv,message", [
        (("--max-atoms", "-5", "--seeds", "5"),
         "argument --max-atoms: expected a non-negative integer, got '-5'"),
        (("--max-atoms", "x"), "argument --max-atoms: expected a non-negative integer, got 'x'"),
        (("--seeds", "-5"), "argument --seeds: expected a positive integer, got '-5'"),
        (("--seeds", "0"), "argument --seeds: expected a positive integer, got '0'"),
    ])
    def test_bad_counts_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as e:
            main(["check", *argv])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {message}"]

    @pytest.mark.parametrize("argv", [("--max-atoms", "0"), ("--sizes", ",")])
    def test_checking_nothing_fails(self, capsys, argv):
        code, out, _ = run(capsys, "check", "--seeds", "3", *argv)
        assert code == 1
        *_, summary, verdict = out.splitlines()
        assert summary.startswith("0 checks, ")
        assert verdict == "nothing was checked: raise the atom cap or pick smaller sizes"


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["count"])  # missing input
        assert e.value.code == 1

    def test_unknown_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["count", str(SAMPLES / "smokers.fol"), "--domain-size", "2",
                  "--engine", "nope"])
        assert e.value.code == 1
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if line.startswith("error:")]
        assert line.startswith("error: argument --engine: invalid choice: 'nope'")

    @pytest.mark.parametrize("command", ["count", "prob"])
    def test_engine_choices_are_the_engine_table(self, command):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        engine = next(a for a in sub.choices[command]._actions if a.dest == "engine")
        assert tuple(engine.choices) == tuple(ENGINES)
        assert engine.default == DEFAULT_ENGINE

    # One row per input error: the command, the input file's name and
    # text, the arguments after it, and the message, which starts with the
    # offending token's line:col when the error is a ParseError.
    INPUT_ERRORS = [
        ("count", "bad.fol", "forall x (P(x) &)\n", ["--domain-size", "1"],
         "1:17: expected a formula"),
        ("count", "t.fol", "domain A\nforall x P(x)\ndomain B\n", [],
         "3:1: duplicate domain declaration"),
        ("count", "t.fol", "domain A, B, A\nforall x P(x)\n", [],
         "1:1: duplicate constant in domain"),
        ("count", "t.fol", "weight P 1 2 3\nweight P 1 2 3\nforall x P(x)\n", ["--domain-size", "1"],
         "2:8: duplicate weight declaration for P"),
        ("count", "t.fol", "weight P 1 2/0 3\nforall x P(x)\n", ["--domain-size", "1"],
         "1:14: zero denominator"),
        ("count", "t.fol", "forall x P(forall)\n", ["--domain-size", "1"],
         "1:12: 'forall' is reserved"),
        ("count", "t.fol", "forall X P(X)\n", ["--domain-size", "1"],
         "1:8: quantified variable 'X' must start lowercase"),
        ("prob", "t.plp", "0.5 :: a.\n3/2 :: b.\n", ["--query", "a", "--domain-size", "1"],
         "2:1: probability 3/2 out of [0,1]"),
        ("count", "t.fol", "forall x P(x)\n", ["--domain", ","], "empty --domain"),
        ("count", "t.fol", "forall x P(x)\n", ["--domain", "A,A"], "duplicate constant in domain"),
        ("count", "t.fol", "forall x P(x, B)\n\ndomain A\n", [],
         "3:1: constants ['B'] missing from declared domain"),
        ("count", "t.fol", "forall x P(x, '')\n", ["--domain-size", "1"],
         "1:15: empty constant name"),
        ("count", "t.fol", "domain A, ''\nforall x P(x)\n", [], "1:11: empty constant name"),
    ]

    def test_parse_error_is_two(self, capsys, tmp_path):
        for command, name, text, args, message in self.INPUT_ERRORS:
            f = tmp_path / name
            f.write_text(text)
            code, out, err = run(capsys, command, f, *args)
            assert (code, out, err) == (2, "", f"error: {message}\n"), (text, args)

    def test_unknown_input_format_is_two(self, capsys, tmp_path):
        f = tmp_path / "theory.txt"
        f.write_text("forall x P(x)\n")
        code, out, err = run(capsys, "skolemize", f)
        assert code == 2 and out == ""
        assert "unknown input format '.txt' (expected .fol, .mln or .plp)" in err

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "count", tmp_path / "nope.fol", "--domain-size", "1")
        assert code == 2

    def test_cap_exceeded_is_three(self, capsys, monkeypatch):
        monkeypatch.setenv("WFOMC_MAX_ATOMS", "4")
        code, out, err = run(capsys, "count", SAMPLES / "smokers.fol", "--domain-size", "2")
        assert code == 3 and out == ""
        assert err == ("error: Herbrand base has 6 atoms, above the brute-force cap 4; "
                       "use the dpll engine (--engine dpll) or raise WFOMC_MAX_ATOMS\n")

    @pytest.mark.parametrize("value", ["abc", "-5", "2.5"])
    def test_bad_cap_env_is_an_input_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("WFOMC_MAX_ATOMS", value)
        code, out, err = run(capsys, "count", SAMPLES / "smokers.fol", "--domain-size", "2")
        assert code == 2 and out == ""
        assert err == f"error: WFOMC_MAX_ATOMS must be a non-negative integer, not {value!r}\n"

    def test_cap_env_override_raises_the_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("WFOMC_MAX_ATOMS", "40")
        code, out, _ = run(capsys, "count", SAMPLES / "smokers.fol", "--domain-size", "2")
        assert code == 0 and out.strip() == "48"

    @pytest.mark.parametrize("exc", [RecursionError, MemoryError])
    def test_last_resort_errors_are_three(self, capsys, monkeypatch, exc):
        def boom(args):
            raise exc()

        monkeypatch.setattr(cli, "_cmd_count", boom)
        code, out, err = run(capsys, "count", SAMPLES / "stress.fol", "--domain-size", "1")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("sample,query", [
        ("workshop.plp", "Q(C1)"),
        ("employment.mln", "Boss(C1) & Q"),
    ])
    def test_query_predicate_outside_the_model_is_two(self, capsys, engine, sample, query):
        code, out, err = run(capsys, "prob", SAMPLES / sample, "--domain-size", "2",
                             "--query", query, "--engine", engine)
        assert code == 2 and out == ""
        assert err == "error: query predicate(s) ['Q'] not in the model\n"

    @pytest.mark.parametrize("mode", [None, "float"])
    @pytest.mark.parametrize("source,domain,query,name", [
        ("workshop.plp", ("--domain-size", "1"), "Z0", "Z0"),  # Skolemization's
        ("employment.mln", ("--domain", "A,B"), "P0(A)", "P0"),  # a soft formula's
        (None, ("--domain-size", "1"), "A_0(C1)", "A_0"),  # a second fact's
    ])
    def test_invented_predicate_is_not_the_models(self, capsys, tmp_path, mode,
                                                  source, domain, query, name):
        # A predicate that an encoder or Skolemization adds is not queryable.
        (tmp_path / "facts.plp").write_text("0.5 :: A(x).\n0.25 :: A(x).\n")
        path = SAMPLES / source if source else tmp_path / "facts.plp"
        argv = ["prob", path, *domain, "--query", query]
        code, out, err = run(capsys, *argv, *(("--mode", mode) if mode else ()))
        assert code == 2 and out == ""
        assert err == f"error: query predicate(s) ['{name}'] not in the model\n"

    def test_soft_weight_past_float_range_is_two(self, capsys, tmp_path):
        f = tmp_path / "big.mln"
        f.write_text("800 Boss(x)\n")
        code, out, err = run(capsys, "prob", f, "--query", "Boss(C1)", "--domain-size", "1")
        assert code == 2 and out == ""
        assert err == "error: soft weight 800.0: e^800.0 is out of float range\n"

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_float_probability_past_float_range_is_two(self, capsys, tmp_path, engine):
        # Q's weights cancel to 2^-52 per atom, so Pr(forall x Q(x)) = 2^1040.
        f = tmp_path / "t.fol"
        f.write_text("weight Q 1 1 -4503599627370495/4503599627370496\n"
                     "forall x (Q(x) | ~Q(x))\n")
        argv = ("prob", f, "--query", "forall x Q(x)", "--domain-size", "20",
                "--engine", engine)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == f"{2 ** 1040}\n"
        code, out, err = run(capsys, *argv, "--mode", "float")
        assert code == 2 and out == ""
        assert err == "error: the probability is out of float range\n"

    def test_random_inputs_exit_with_a_contract_code(self, capsys, tmp_path):
        # Well-formed and malformed snippets through every subcommand: each
        # run ends in exit code 0-3, never in an escaping exception.
        rng = random.Random(1312)
        cases = [_fuzz_text(rng) for _ in range(300)]
        cases.append((".fol", " & ".join(f"P{i}" for i in range(1000))))
        seen = set()
        for suffix, text in cases:
            f = tmp_path / f"input{suffix}"
            f.write_text(text + "\n")
            try:
                code = main(_fuzz_argv(rng, str(f)))
            except SystemExit as e:  # argparse's usage errors
                code = e.code
            capsys.readouterr()
            assert code in (0, 1, 2, 3), (suffix, text)
            seen.add(code)
        assert {0, 1, 2} <= seen

    @pytest.mark.parametrize("text", ["0.1 ::", "S :-", "S :- A(x),"])
    def test_truncated_problog_statement_is_two(self, capsys, tmp_path, text):
        f = tmp_path / "cut.plp"
        f.write_text(text + "\n")
        code, out, err = run(capsys, "cnf", f)
        assert code == 2 and out == ""
        assert "expected 'IDENT'" in err

    def test_non_tight_program_is_two(self, capsys, tmp_path):
        f = tmp_path / "cyc.plp"
        f.write_text("p :- q.\nq :- p.\n")
        code, _, err = run(capsys, "prob", f, "--query", "p", "--domain-size", "1")
        assert code == 2
        assert "cycle" in err


_FUZZ_SNIPPETS = {
    ".fol": ["forall x P(x)", "exists y (R(y) & S(y))", "N | ~M", "weight P 1 1 2",
             "weight N 0 1 -1", "domain A, B", "forall x exists y F(x,y)", "P(A) -> R(A)",
             "M <-> N & K", "true", "false", "forall x (P(x) -> exists y F(x,y))"],
    ".mln": ["1.3 exists y (W(x,y) | B(x))", "-0.5 P(x) & Q(x)", "P(x) -> Q(x).",
             "inf P(A)", "2 ~Q(x)", "800 B(x)"],
    ".plp": ["0.1 :: A(x).", "0.3 :: T(x).", "S :- A(x), T(x).", "p :- q.", "q :- \\+ p.",
             "R(x) :- A(x), \\+ T(x)."],
}
_FUZZ_NOISE = ["(", ")", "&", "|", "->", "<->", "~", ",", ".", ":-", "::", "#", "x", "A",
               "'q'", "P(", "forall", "exists y", "1e999", "-", "\n", "weight", "domain", "\\+"]


def _fuzz_text(rng):
    """(suffix, text): a few snippets of one format, half the time with a
    random token spliced over a random span."""
    suffix = rng.choice([".fol", ".fol", ".mln", ".plp"])
    text = "\n".join(rng.sample(_FUZZ_SNIPPETS[suffix], rng.randint(1, 3)))
    if rng.random() < 0.5:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(_FUZZ_NOISE) + text[i + rng.randint(0, 3):]
    return suffix, text


def _fuzz_argv(rng, path):
    """A random command line over ``path``, for any subcommand."""
    domain = rng.choice([["--domain-size", "1"], ["--domain-size", "2"],
                         ["--domain-size", "0"], ["--domain", rng.choice(["A,B", ""])], []])
    engine = ["--engine", rng.choice(list(ENGINES))]
    flags = {"skolemize": ["--shortcut", "--no-propagate", "--json"],
             "cnf": ["--tseitin", "--json"], "count": ["--json"],
             "prob": ["--json", "--mode=exact", "--mode=float"], "check": []}
    command = rng.choice(sorted(flags))
    argv = [command] + rng.sample(flags[command], rng.randint(0, len(flags[command]) // 2))
    if command == "check":
        return argv + ["--seeds", rng.choice(["1", "0", "x"]),
                       "--sizes", rng.choice(["1", "4", ""])]
    if command in ("count", "prob"):
        argv += domain + engine
    if command == "prob":
        queries = {".fol": ["forall x P(x)", "N"], ".mln": ["exists x B(x)", "Q(C1)"],
                   ".plp": ["S", "p"]}[Path(path).suffix]
        argv += ["--query", rng.choice(queries + ["Q &", "A(x)"])]
    return argv + [path]


def _readme_commands():
    """The ``wfomc ...`` lines of README's "Command line" block, as
    (argv, pinned output or None); ``check`` is left to test_acceptance."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] != ["wfomc"] or argv[1] == "check":
            continue
        pinned = comment.strip()[3:].strip() if comment.strip().startswith("->") else None
        out.append(pytest.param(argv[1:], pinned, id=" ".join(argv[1:])))
    return out


class TestReadme:
    def test_the_block_is_read(self):
        pinned = [p.values[1] for p in _readme_commands()]
        assert len(pinned) == 7
        assert [p for p in pinned if p] == ["48"]

    @pytest.mark.parametrize("argv,pinned", _readme_commands())
    def test_command_runs(self, capsys, monkeypatch, argv, pinned):
        monkeypatch.chdir(ROOT)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        if pinned is not None:
            assert out.strip() == pinned
