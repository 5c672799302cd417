import json
import time

import pytest

from macdyn import cli
from macdyn import simulator as sim
from macdyn.cli import main
from macdyn.insertions import f_h_table, permutation_words


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroup:
    def test_order_three(self, capsys):
        code, out, _ = run(capsys, "group", "--N", "3")
        assert code == 0 and out.strip() == "72"

    def test_limit(self, capsys):
        code, _, err = run(capsys, "group", "--N", "6")
        assert code == 2 and "refused" in err

    def test_n5_is_refused_by_default(self, capsys):
        # group_order(5) has not been seen to finish; without --limit 5 the
        # CLI must refuse it at once
        start = time.monotonic()
        code, out, err = run(capsys, "group", "--N", "5")
        assert time.monotonic() - start < 5
        assert code == 2 and out == ""
        assert "refused" in err and err.count("\n") == 1

    def test_refusal_is_not_an_invariant_violation(self, capsys):
        code, out, err = run(capsys, "group", "--N", "5")
        assert code == 2 and out == ""
        assert err.startswith("refused: ") and "invariant violation" not in err


class TestRsk:
    def test_f_map(self, capsys):
        code, out, _ = run(capsys, "rsk", "--word", "123", "--h", "1,1,2", "--f-map")
        assert code == 0 and out.strip() == "1 3 2"

    def test_forward_pair(self, capsys):
        code, out, _ = run(capsys, "rsk", "--word", "11", "--h", "1")
        record = json.loads(out)
        assert record == {"P": [[1, 1]], "Q": [[1, 2]], "shape": [2]}

    def test_inverse(self, capsys):
        code, out, _ = run(
            capsys, "rsk", "--inverse", "--p", "1,1", "--q-tab", "1,2", "--h", "1"
        )
        assert code == 0 and out.strip() == "11"

    def test_table_deterministic(self, capsys):
        code, out1, _ = run(capsys, "rsk", "--table", "--N", "3")
        assert code == 0
        code, out2, _ = run(capsys, "rsk", "--table", "--N", "3")
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0].startswith("word,h=111")
        assert len(lines) == 7
        # the published column for h = (1,2,3)
        col = lines[0].split(",").index("h=123")
        assert [line.split(",")[col] for line in lines[1:]] == [
            "321", "213", "132", "312", "231", "123",
        ]

    def test_table_matches_library(self, capsys):
        code, out, _ = run(capsys, "rsk", "--table", "--N", "3")
        assert code == 0
        header, *rows = out.strip().splitlines()
        table = f_h_table(3)
        words = permutation_words(3)
        hs = [tuple(int(ch) for ch in name[2:]) for name in header.split(",")[1:]]
        assert hs == list(table)
        assert len(rows) == len(words)
        for i, row in enumerate(rows):
            word, *cells = row.split(",")
            assert word == "".join(map(str, words[i]))
            for h, cell in zip(hs, cells, strict=True):
                assert cell == "".join(map(str, table[h][i])), (i, h)

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "rsk", "--word", "123")
        assert code == 1 and "error" in err


class TestSimulate:
    def test_trivial_run(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--dynamics", "pb", "--N", "1", "--q", "0", "--t", "0",
            "--a", "1", "--tau", "0", "--samples", "1", "--seed", "7",
        )
        assert code == 0
        record = json.loads(out)
        assert record == {"trajectory": 0, "final": "0", "events": []}

    def test_reproducible_bytes(self, capsys):
        argv = [
            "simulate", "--dynamics", "qrow", "--N", "3", "--q", "0.5", "--t", "0",
            "--a", "1,1,1", "--tau", "1.0", "--samples", "4", "--seed", "11",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        records = [json.loads(line) for line in out1.strip().splitlines()]
        assert [r["trajectory"] for r in records] == [0, 1, 2, 3]
        for r in records:
            for ev in r["events"]:
                assert set(ev) == {"time", "cascade"}
                for move in ev["cascade"]:
                    assert set(move) == {"level", "index", "cause"}
        _, bare, _ = run(capsys, *argv, "--no-events")
        assert [json.loads(line) for line in bare.strip().splitlines()] == [
            {"trajectory": r["trajectory"], "final": r["final"]} for r in records
        ]

    def test_h_length_validation(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--dynamics", "rsk", "--N", "3", "--q", "0", "--t", "0",
            "--a", "1,1,1", "--h", "1,1", "--tau", "1", "--seed", "1",
        )
        assert code == 1 and "length 3" in err

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau(self, capsys, monkeypatch, tau):
        # trajectories that cannot draw: were tau let through, the run would
        # fail on its first draw instead of running forever
        monkeypatch.setattr(sim, "trajectory_rngs", lambda seed, n: [object()] * n)
        code, out, err = run(
            capsys,
            "simulate", "--dynamics", "pb", "--N", "2", "--a", "1,1", "--tau", tau,
            "--seed", "1",
        )
        assert code == 1 and out == "" and err.startswith("error: tau")

    def test_unknown_dynamics(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--dynamics", "bogus", "--N", "1", "--a", "1", "--tau", "1",
        )
        assert code == 1


class TestClassify:
    def test_slice_record(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--nu-bar", "1", "--lam", "0,3", "--q", "1/2", "--t", "0",
            "--basis", "r-l-pb",
        )
        assert code == 0
        record = json.loads(out)
        assert record["free_indices"] == [1, 2]
        assert record["T"]["1"] == "4/7"
        assert record["S"]["1"] == "15/14"
        pbsol = record["solutions"]["pb"]
        assert pbsol["honest"] is True
        assert pbsol["decomposition"]["pb"] == "1"
        assert record["solutions"]["rsk(2)"]["honest"] is False

    def test_bad_signature(self, capsys):
        code, _, err = run(
            capsys, "classify", "--nu-bar", "3,1", "--lam", "0,2", "--q", "0", "--t", "0"
        )
        assert code == 1

    def test_const_c_infeasible_is_recorded(self, capsys):
        # two pushers: only kinds with equal propagation probabilities decompose
        code, out, _ = run(
            capsys,
            "classify", "--nu-bar", "1,4", "--lam", "0,3,5", "--q", "1/2", "--t", "1/3",
            "--basis", "const-c",
        )
        assert code == 0
        solutions = json.loads(out)["solutions"]
        assert "error" in solutions["r(1)"]["decomposition"]
        assert solutions["pb"]["decomposition"]["pb"] == "1"

    def test_negative_coordinates_spaced_form(self, capsys):
        tail = ("--q", "1/2", "--t", "0")
        for nu_bar, lam in (("1", "-2,3"), ("-3,-1", "-4,-2,0")):
            code, spaced, err = run(capsys, "classify", "--nu-bar", nu_bar, "--lam", lam, *tail)
            assert code == 0, err
            code, joined, _ = run(capsys, "classify", f"--nu-bar={nu_bar}", f"--lam={lam}", *tail)
            assert code == 0 and spaced == joined
            assert json.loads(spaced)["lam"] == [int(v) for v in lam.split(",")]


class TestVerify:
    def test_identities_quick(self, capsys, tmp_path):
        report_file = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify", "--suite", "identities", "--quick", "--report", str(report_file)
        )
        assert code == 0
        saved = json.loads(report_file.read_text())
        assert saved["ok"] is True and saved["checks"]["one_T_S"] > 0

    def test_positivity_quick(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "positivity", "--quick")
        assert code == 0
        record = json.loads(out)
        assert sorted(record["clean"]) == ["pb", "r(1)", "rsk(1)"]
        assert record["schur_violations"] == []

    def test_gibbs_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "gibbs", "--samples", "4000", "--seed", "5"
        )
        assert code == 0
        assert json.loads(out)["stats"]["pvalue"] > 0.001

    def test_gibbs_vacuous_fails(self, capsys):
        # 50 samples leave no top row with 100 observations: nothing is checked
        code, out, _ = run(
            capsys, "verify", "--suite", "gibbs", "--samples", "50", "--seed", "1"
        )
        record = json.loads(out)
        assert code == 2 and record["ok"] is False
        assert record["stats"]["vacuous"] and record["stats"]["tops"] == 0

    def test_transient_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "transient", "--samples", "4000", "--seed", "9"
        )
        assert code == 0
        assert json.loads(out)["stats"]["pvalue"] > 0.001

    def test_tasep_marginal_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "tasep-marginal", "--samples", "2500", "--seed", "9"
        )
        assert code == 0
        record = json.loads(out)
        assert record["qtasep"]["pvalue"] > 0.001
        assert record["qpushtasep"]["pvalue"] > 0.001


class TestParserReuse:
    ARGVS = (
        ("classify", "--nu-bar", "1", "--lam", "0,3", "--q", "1/2"),  # no --t
        ("simulate", "--dynamics", "pb", "--N", "3", "--q", "0.5", "--a", "1,1,1",
         "--tau", "1", "--samples", "3", "--seed", "4"),
        ("classify", "--nu-bar", "1", "--lam", "0,3", "--q", "1/2", "--t", "0",
         "--basis", "r-l-pb"),
    )

    def test_one_parser_gives_fresh_parser_results(self, capsys):
        reused = [run(capsys, *argv) for argv in self.ARGVS]
        assert cli._parser() is cli._parser()
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _, _ in reused] == [1, 0, 0]
        assert "--t" in reused[0][2]
        assert reused == fresh


BAD_INPUTS = {
    "rsk-word": ["rsk", "--word", "12a", "--h", "1,1,1"],
    "rsk-inverse-rows": ["rsk", "--inverse", "--p", "1,a", "--q-tab", "1,2", "--h", "1"],
    "initial-array": ["simulate", "--dynamics", "pb", "--N", "2", "--a", "1,1",
                      "--tau", "1", "--initial", "x;y"],
    "zero-denominator": ["simulate", "--dynamics", "pb", "--N", "2", "--a", "1,1",
                         "--tau", "1", "--q", "1/0"],
    # counts below one used to exit 0 with no output, an empty array or a
    # vacuous suite
    "simulate-depth-zero": ["simulate", "--dynamics", "pb", "--N", "0", "--a", "",
                            "--tau", "1"],
    "simulate-depth-negative": ["simulate", "--dynamics", "pb", "--N", "-1", "--a", "",
                                "--tau", "1"],
    "simulate-samples-zero": ["simulate", "--dynamics", "pb", "--N", "1", "--a", "1",
                              "--tau", "1", "--samples", "0"],
    "simulate-samples-negative": ["simulate", "--dynamics", "pb", "--N", "1", "--a", "1",
                                  "--tau", "1", "--samples", "-2"],
    "verify-gibbs-samples-negative": ["verify", "--suite", "gibbs", "--samples", "-3"],
    "verify-identities-samples-zero": ["verify", "--suite", "identities", "--samples", "0"],
    "rsk-table-n-zero": ["rsk", "--table", "--N", "0"],
}


class TestValidationErrors:
    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
