import json
from pathlib import Path

import pytest

from wfomc import cli
from wfomc.cli import main

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
            results = []
            for engine in ("brute", "dpll"):
                code, out, _ = run(capsys, "count", sample,
                                   "--domain-size", "2", "--engine", engine)
                assert code == 0, sample.name
                results.append(out.strip())
            assert results[0] == results[1], sample.name

    def test_long_ground_clause_counts_with_dpll(self, capsys, tmp_path):
        # One ground clause with a literal per constant: clause extraction
        # and the DPLL search must not recurse once per literal.
        f = tmp_path / "exists.fol"
        f.write_text("exists y R(y)\n")
        code, out, err = run(capsys, "count", f, "--domain-size", "1200", "--engine", "dpll")
        assert code == 0, err
        assert int(out) == 2 ** 1200 - 1

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


class TestProb:
    def test_workshop_series(self, capsys):
        code, out, _ = run(capsys, "prob", SAMPLES / "workshop.plp",
                           "--query", "Series", "--domain-size", "2", "--mode", "exact")
        assert code == 0
        assert out.strip() == "591/10000"

    def test_mln_float(self, capsys):
        code, out, _ = run(capsys, "prob", SAMPLES / "employment.mln",
                           "--query", "Boss(A)", "--domain", "A")
        assert code == 0
        assert abs(float(out) - 0.6111476149008687) < 1e-12

    def test_mln_exact_mode_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "prob", SAMPLES / "employment.mln",
                           "--query", "Boss(A)", "--domain", "A", "--mode", "exact")
        assert code == 2

    def test_json_probability(self, capsys):
        code, out, _ = run(capsys, "prob", SAMPLES / "workshop.plp",
                           "--query", "Series", "--domain-size", "1", "--json")
        assert code == 0
        assert json.loads(out) == {"probability": {"num": "3", "den": "100"}}


class TestCheck:
    def test_small_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--seeds", "10", "--sizes", "1")
        assert code == 0
        assert "0 failure(s)" in out


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["count"])  # missing input
        assert e.value.code == 1

    def test_parse_error_is_two(self, capsys, tmp_path):
        f = tmp_path / "bad.fol"
        f.write_text("forall x (P(x) &)\n")
        code, _, err = run(capsys, "count", f, "--domain-size", "1")
        assert code == 2
        assert "1:17" in err

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "count", tmp_path / "nope.fol", "--domain-size", "1")
        assert code == 2

    def test_cap_exceeded_is_three(self, capsys, monkeypatch):
        monkeypatch.setenv("WFOMC_MAX_ATOMS", "4")
        code, _, err = run(capsys, "count", SAMPLES / "smokers.fol", "--domain-size", "2")
        assert code == 3
        assert "cap" in err

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

    def test_non_tight_program_is_two(self, capsys, tmp_path):
        f = tmp_path / "cyc.plp"
        f.write_text("p :- q.\nq :- p.\n")
        code, _, err = run(capsys, "prob", f, "--query", "p", "--domain-size", "1")
        assert code == 2
        assert "cycle" in err
