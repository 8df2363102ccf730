from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from stochmatch import cli, verify
from stochmatch.bmatching import canonical_plan, solve_min_cost
from stochmatch.cli import VERIFIERS, main
from stochmatch.metrics import (
    dump_metric,
    gen_nonmetric_instance,
    line_metric,
    matrix_metric,
    star_tree,
    tree_metric,
    uniform_metric,
)

# stdout and exit code of deterministic verify commands
PINNED_VERIFY = {
    "structure --n 4 --trials 20000 --seed 7": (
        0,
        "k=1 cells=4 chi2=4.168 p=0.2439 ok\n"
        "k=2 cells=6 chi2=2.099 p=0.8353 ok\n"
        "k=3 cells=4 chi2=2.290 p=0.5144 ok\n"
        "structure: ok\n",
    ),
    "replacement --n 4": (
        0,
        "k=1 subsets=5/4 iid=5/4 ok\n"
        "k=2 subsets=2/3 iid=13/16 ok\n"
        "k=3 subsets=5/12 iid=43/64 ok\n"
        "k=4 subsets=0 iid=129/256 ok\n"
        "replacement: ok\n",
    ),
    "replacement --n 5 --kind star": (
        0,
        "k=1 subsets=8/5 iid=8/5 ok\n"
        "k=2 subsets=6/5 iid=32/25 ok\n"
        "k=3 subsets=4/5 iid=128/125 ok\n"
        "k=4 subsets=2/5 iid=512/625 ok\n"
        "k=5 subsets=0 iid=2048/3125 ok\n"
        "replacement: ok\n",
    ),
    "scaling --count 25 --seed 7": (0, "scaling: 949 checks, ok\n"),
    "match-to-self --count 25 --seed 7": (0, "match-to-self: 25 checks, ok\n"),
    "structure --n 1": (1, ""),
    "scaling --count 0": (1, ""),
    "match-to-self --count 0": (1, ""),
}


@pytest.fixture
def line4_file(tmp_path):
    path = str(tmp_path / "line4.txt")
    dump_metric(line_metric(4), path)
    return path


class TestSimulate:
    def test_prints_summary_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        scenario = tmp_path / "s.txt"
        scenario.write_text(
            f"metric = line 4\ntrials = 5\nseed = 1\noutput = {out}\n"
        )
        assert main(["simulate", str(scenario)]) == 0
        text = capsys.readouterr().out
        assert "trials    5" in text
        assert "ratio" in text
        assert f"wrote 5 rows to {out}" in text
        assert out.exists()

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_refused_before_any_trial(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        scenario = tmp_path / "s.txt"
        scenario.write_text(
            f"metric = line 4\ntrials = 3\nseed = -1\noutput = {out}\n"
        )
        assert main(["simulate", str(scenario)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    def test_bad_scenario_is_an_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.txt"
        scenario.write_text("metric = line 4\nwho = knows\n")
        assert main(["simulate", str(scenario)]) == 1
        assert "unknown scenario keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("metric = file {bad}",
             "metric file {bad}: matrix row 1: 'x' is not an integer"),
            ("metric = line 2\ndistribution = weights {bad}",
             "distribution weights {bad}: weight line 'kind matrix': "
             "'kind' is not an integer"),
        ],
    )
    def test_file_refusal_names_the_scenario_line(
        self, tmp_path, line, message, capsys
    ):
        # the loader's message alone did not say which file it had read
        bad = tmp_path / "bad.metric"
        bad.write_text("kind matrix\nn 2\n0 1\nx 0\n")
        scenario = tmp_path / "s.txt"
        scenario.write_text(line.format(bad=bad) + "\n")
        assert main(["simulate", str(scenario)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(bad=bad)}\n"


class TestVerify:
    def test_structure(self, capsys):
        rc = main(["verify", "structure", "--n", "3", "--trials", "800",
                   "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "structure: ok" in out
        assert "k=1" in out and "k=2" in out

    def test_replacement(self, capsys):
        rc = main(["verify", "replacement", "--n", "4", "--kind", "line"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replacement: ok" in out
        assert "k=1 subsets=5/4 iid=5/4 ok" in out

    def test_decomposition(self, capsys):
        rc = main(["verify", "decomposition", "--n", "4", "--trials", "300",
                   "--seed", "2"])
        assert rc == 0
        assert "decomposition: ok" in capsys.readouterr().out

    def test_scaling(self, capsys):
        rc = main(["verify", "scaling", "--count", "3", "--seed", "1"])
        assert rc == 0
        assert "scaling:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["structure", "--trials", "0"],
            ["decomposition", "--trials", "0"],
            ["structure", "--n", "1"],
            ["decomposition", "--trials", "1"],
        ],
    )
    def test_empty_verification_is_an_error(self, args, capsys):
        # trials 0 ended in a ZeroDivisionError traceback; n 1 printed ok;
        # one decomposition trial gave stderr 0, a 0-wide band and FAIL
        assert main(["verify", *args]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and ": ok" not in captured.out

    @pytest.mark.parametrize("which", ["scaling", "match-to-self"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_instances_is_an_error(self, which, count, capsys):
        # printed "0 checks, ok" and exited 0
        assert main(["verify", which, "--count", count]) == 1
        captured = capsys.readouterr()
        assert "count must be >= 1" in captured.err
        assert "ok" not in captured.out

    @pytest.mark.parametrize("wrong", ["value", "diagonal"])
    def test_match_to_self_fails_on_a_wrong_plan(self, wrong, monkeypatch, capsys):
        # a plan off the optimum, or at the optimum with an empty diagonal
        def plan(instance, T):
            canon = canonical_plan(instance, T)
            if wrong == "value":
                return dataclasses.replace(canon, value=canon.value + 1)
            return dataclasses.replace(canon, entries=())

        monkeypatch.setattr(verify, "canonical_plan", plan)
        report = verify.verify_match_to_self(3, 1)
        assert len(report.rows) == 3 and not report.ok
        assert main(["verify", "match-to-self", "--count", "3", "--seed", "1"]) == 2
        out = capsys.readouterr().out.splitlines()
        for case, line in enumerate(out[:3]):
            assert line.startswith(f"case {case}: {wrong} ")
        assert out[-1] == "match-to-self: 3 checks, FAIL"

    def test_match_to_self_tells_the_full_plan_from_the_canonical(
        self, monkeypatch
    ):
        # on this metric both plans of T = (0, 1) are optimal, but only the
        # canonical one keeps point 1's mass on itself
        fixture = matrix_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        full, canon = solve_min_cost(fixture, [0, 1]), canonical_plan(fixture, [0, 1])
        assert full.value == canon.value == Fraction(1, 3)
        assert full.entry_map()[1, 1] == Fraction(1, 6)
        assert canon.entry_map()[1, 1] == Fraction(1, 3)
        # every case runs on the fixture plus its twin of point 0
        monkeypatch.setattr(verify, "random_metric", lambda n, rng: fixture)
        assert verify.verify_match_to_self(20, 7).ok
        monkeypatch.setattr(verify, "canonical_plan", solve_min_cost)
        report = verify.verify_match_to_self(20, 7)
        assert not report.ok
        assert report.rows[0] == "case 5: diagonal 1 is 0, expected 1/4"

    def test_default_match_to_self_fails_the_full_plan(self, monkeypatch, capsys):
        # the twin of point 0 gives the default random draw teeth: without
        # it, the full plan passed all 25 cases
        monkeypatch.setattr(verify, "canonical_plan", solve_min_cost)
        report = verify.verify_match_to_self(25, 7)
        assert report.checked == 25 and len(report.rows) == 6
        assert report.rows[0] == "case 0: diagonal 4 is 0, expected 1/5"
        assert main(["verify", "match-to-self", "--count", "25", "--seed", "7"]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "match-to-self: 25 checks, FAIL"
        )

    def test_scaling_fails_on_a_false_identity(self, monkeypatch, capsys):
        def false_identity(instance, T):
            return 1, 2, False

        monkeypatch.setattr(verify, "scaling_identity_check", false_identity)
        report = verify.verify_scaling(3, 1)
        assert len(report.rows) == report.checked and not report.ok
        assert main(["verify", "scaling", "--count", "3", "--seed", "1"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "case 0: T=(0,) gives 1 vs 2"
        assert out[-1] == f"scaling: {report.checked} checks, FAIL"

    @pytest.mark.parametrize("which", list(VERIFIERS))
    def test_every_verifier_runs(self, which, capsys):
        args = ["--n", "3", "--trials", "200", "--count", "2", "--seed", "1"]
        assert main(["verify", which, *args]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"{which}: ")

    @pytest.mark.parametrize("command", list(PINNED_VERIFY))
    def test_pinned_output(self, command, capsys):
        rc, out = PINNED_VERIFY[command]
        assert main(["verify", *command.split()]) == rc
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "which, name, kind",
        [
            pytest.param(
                "structure", "verify_structure_lemma", "star",
                id="structure-verify_structure_lemma",
            ),
            pytest.param(
                "decomposition", "verify_cost_decomposition", "star",
                id="decomposition-verify_cost_decomposition",
            ),
            # argparse refused --kind nonmetric, which build_instance builds
            pytest.param(
                "structure", "verify_structure_lemma", "nonmetric",
                id="structure-verify_structure_lemma-nonmetric",
            ),
            pytest.param(
                "decomposition", "verify_cost_decomposition", "nonmetric",
                id="decomposition-verify_cost_decomposition-nonmetric",
            ),
        ],
    )
    def test_kind_reaches_the_instance(
        self, which, name, kind, monkeypatch, capsys
    ):
        # --kind was read by replacement only; the others ran their fixture
        seen = []
        real = getattr(cli, name)

        def spy(instance, trials, seed):
            seen.append(instance)
            return real(instance, trials, seed)

        monkeypatch.setattr(cli, name, spy)
        args = ["--n", "4", "--kind", kind, "--trials", "300", "--seed", "3"]
        assert main(["verify", which, *args]) == 0
        expected = {
            "star": tree_metric(star_tree(4)),
            "nonmetric": gen_nonmetric_instance(4),
        }
        assert seen[0].matrix == expected[kind].matrix
        assert f"{which}: ok" in capsys.readouterr().out

    def test_match_to_self(self, capsys):
        rc = main(["verify", "match-to-self", "--count", "5", "--seed", "4"])
        assert rc == 0
        assert "match-to-self: 5 checks, ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "scaling", "--count", "3", "--seed", "-7"],
        ["verify", "match-to-self", "--count", "3", "--seed", "-7"],
        ["embed", "absent.metric", "--seed", "-3"],
        ["ballsbins", "10", "2", "50", "-3"],
    ],
    ids=["verify-scaling", "verify-match-to-self", "embed", "ballsbins"],
)
def test_negative_seed_is_refused(args, capsys):
    # Random(-s) seeds like Random(s): each printed its --seed s output;
    # the refusal comes before dispatch, so embed never reads its file
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0\n" and captured.out == ""


class TestOpt:
    def test_prints_value(self, line4_file, capsys):
        assert main(["opt", line4_file, "0", "0", "3", "3"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_matrix_route(self, tmp_path, capsys):
        path = str(tmp_path / "uni.txt")
        dump_metric(uniform_metric(3), path)
        assert main(["opt", path, "2", "2", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_wrong_request_count(self, line4_file, capsys):
        assert main(["opt", line4_file, "0", "1"]) == 1
        assert "need exactly 4 requests" in capsys.readouterr().err


class TestEmbed:
    def test_reports_dominance(self, line4_file, capsys):
        rc = main(["embed", line4_file, "--samples", "2", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("dominance ok") == 2
        assert "max-stretch" in out

    def test_dump_roundtrip(self, line4_file, tmp_path, capsys):
        dumped = tmp_path / "embedded.txt"
        rc = main(["embed", line4_file, "--dump", str(dumped)])
        assert rc == 0
        assert dumped.exists()
        assert f"wrote {dumped}" in capsys.readouterr().out

    def test_one_point_has_stretch_one(self, tmp_path, capsys):
        # printed "max-stretch 0.000 mean-stretch 1.000"
        path = tmp_path / "one.txt"
        path.write_text("kind line\nn 1\n")
        assert main(["embed", str(path)]) == 0
        assert capsys.readouterr().out == (
            "sample 0: dominance ok max-stretch 1.000 mean-stretch 1.000\n"
        )

    def test_dominance_failure_exits_2(self, line4_file, monkeypatch, capsys):
        # a zero-length star puts every pair at distance 0, below the line's
        monkeypatch.setattr(cli, "frt_embed", lambda inst, rng: star_tree(inst.n, 0))
        assert main(["embed", line4_file]) == 2
        assert "sample 0: dominance VIOLATED" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_no_samples_is_an_error(self, line4_file, samples, capsys):
        # printed nothing and exited 0
        assert main(["embed", line4_file, "--samples", samples]) == 1
        assert "samples must be >= 1" in capsys.readouterr().err


class TestBallsBins:
    def test_prints_estimates(self, capsys):
        assert main(["ballsbins", "2", "1", "4000", "9"]) == 0
        out = capsys.readouterr().out
        mean = float(out.splitlines()[0].split()[1])
        stderr = float(out.splitlines()[1].split()[1])
        assert abs(mean - 1.5) <= 4 * stderr

    def test_bad_k_is_an_error(self, capsys):
        assert main(["ballsbins", "2", "5", "100", "0"]) == 1
        assert "out of range" in capsys.readouterr().err
