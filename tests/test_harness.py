from __future__ import annotations

import csv
import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import stochmatch.harness as harness
import stochmatch.verify as verify
from stochmatch.harness import (
    ALGORITHMS,
    GENERATED_KINDS,
    Scenario,
    build_distribution,
    build_instance,
    parse_scenario,
    ratio_of_means,
    run_trials,
    summarize,
    write_csv,
)
from stochmatch.metrics import (
    check_matrix,
    dump_metric,
    gen_nonmetric_instance,
    line_metric,
    random_metric,
    random_recursive_tree,
    tree_metric,
    uniform_metric,
)
from stochmatch.verify import (
    verify_cost_decomposition,
    verify_match_to_self,
    verify_replacement,
    verify_scaling,
    verify_structure_lemma,
)

F = Fraction


def _count_trial_generators(monkeypatch) -> list[int]:
    """Patch ``harness.random``; the returned list collects the seed of
    every generator made through it from then on."""
    seeds = []

    class CountingRandom:
        @staticmethod
        def Random(seed):
            seeds.append(seed)
            return random.Random(seed)

    monkeypatch.setattr(harness, "random", CountingRandom)
    return seeds


def _scenario_file(tmp_path, text):
    p = tmp_path / "scenario.txt"
    p.write_text(text)
    return str(p)


class TestParseScenario:
    def test_full_file(self, tmp_path):
        path = _scenario_file(
            tmp_path,
            """
            # a tree run
            metric = random 16
            distribution = geometric
            algorithm = fair-bias
            trials = 50
            seed = 9
            spacing = 2
            output = out.csv
            """,
        )
        sc = parse_scenario(path)
        assert sc.metric_kind == "random" and sc.metric_arg == "16"
        assert sc.distribution == "geometric"
        assert (sc.trials, sc.seed, sc.spacing) == (50, 9, 2)
        assert sc.output == "out.csv"

    def test_defaults(self, tmp_path):
        sc = parse_scenario(_scenario_file(tmp_path, "metric = line 4\n"))
        assert sc.algorithm == "fair-bias"
        assert sc.distribution == "uniform"
        assert (sc.trials, sc.seed, sc.spacing) == (100, 0, 1)
        assert sc.frt_mode == "per-trial"
        assert sc.output is None

    def test_metric_required(self, tmp_path):
        with pytest.raises(ValueError, match="needs a metric"):
            parse_scenario(_scenario_file(tmp_path, "trials = 5\n"))

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            parse_scenario(
                _scenario_file(tmp_path, "metric = line 4\ncolour = red\n")
            )

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ValueError, match="bad scenario line"):
            parse_scenario(_scenario_file(tmp_path, "metric line 4\n"))

    def test_bad_algorithm_caught(self, tmp_path):
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_scenario(
                _scenario_file(
                    tmp_path, "metric = line 4\nalgorithm = greedy\n"
                )
            )

    @pytest.mark.parametrize("key", ["trials", "seed", "spacing"])
    def test_bad_integer_names_its_key(self, tmp_path, key):
        # raised "invalid literal for int() with base 10" with no context
        text = f"metric = line 4\n{key} = abc\n"
        with pytest.raises(ValueError) as err:
            parse_scenario(_scenario_file(tmp_path, text))
        assert str(err.value) == f"scenario key {key}: 'abc' is not an integer"

    def test_duplicate_key_rejected(self, tmp_path):
        text = "metric = line 4\ntrials = 5\ntrials = 6\n"
        with pytest.raises(ValueError, match="duplicate scenario key 'trials'"):
            parse_scenario(_scenario_file(tmp_path, text))

    def test_scenario_validation_direct(self):
        with pytest.raises(ValueError, match="trials"):
            Scenario("line", "4", trials=0)
        with pytest.raises(ValueError, match="frt_mode"):
            Scenario("line", "4", frt_mode="sometimes")
        with pytest.raises(ValueError, match="distribution"):
            Scenario("line", "4", distribution="zipf")

    @pytest.mark.parametrize("line", ["geometric 3", "uniform whatever"])
    def test_distribution_argument_refused_where_it_does_not_apply(
        self, tmp_path, line
    ):
        # the argument was silently ignored and the run went ahead
        kind = line.split()[0]
        message = f"^distribution {kind} takes no argument$"
        with pytest.raises(ValueError, match=message):
            parse_scenario(
                _scenario_file(tmp_path, f"metric = line 4\ndistribution = {line}\n")
            )
        with pytest.raises(ValueError, match=message):
            Scenario("line", "4", distribution=kind, dist_arg=line.split()[1])

    def test_weights_distribution_needs_a_path(self, tmp_path):
        # failed in open('') with "[Errno 2] No such file or directory: ''"
        message = "^distribution weights needs a path$"
        with pytest.raises(ValueError, match=message):
            parse_scenario(
                _scenario_file(tmp_path, "metric = line 4\ndistribution = weights\n")
            )
        with pytest.raises(ValueError, match=message):
            Scenario("line", "4", distribution="weights")

    @pytest.mark.parametrize("algorithm", ["fair-bias", "split-match", "max-weight"])
    def test_frt_mode_once_refused_where_it_does_not_apply(self, tmp_path, algorithm):
        # frt_mode = once beside plain fair-bias ran it and printed a summary
        text = f"metric = line 4\nalgorithm = {algorithm}\nfrt_mode = once\n"
        with pytest.raises(ValueError, match=f"fair-bias-on-frt, not {algorithm}$"):
            parse_scenario(_scenario_file(tmp_path, text))
        Scenario("line", "4", algorithm=algorithm, frt_mode="per-trial")


class TestBuildInstance:
    @pytest.mark.parametrize("kind", ["line", "star", "uniform", "random", "nonmetric"])
    def test_generator_needs_a_size(self, tmp_path, kind):
        # "metric = line" with no size failed in int('')
        sc = parse_scenario(_scenario_file(tmp_path, f"metric = {kind}\n"))
        with pytest.raises(ValueError, match=f"^metric {kind} needs a size$"):
            build_instance(sc)

    @pytest.mark.parametrize("kind", ["line", "star", "uniform", "random", "nonmetric"])
    @pytest.mark.parametrize("arg", ["abc", "4 extra"])
    def test_generator_size_must_be_an_integer(self, kind, arg):
        # reported as int()'s own parse error, which names no metric line
        message = f"^metric {kind} {arg}: the size must be an integer$"
        with pytest.raises(ValueError, match=message):
            build_instance(Scenario(kind, arg))

    def test_line_with_spacing(self):
        inst = build_instance(Scenario("line", "3", spacing=4))
        assert inst.matrix[0][2] == 8

    def test_star(self):
        inst = build_instance(Scenario("star", "5", spacing=2))
        assert inst.tree is not None
        assert inst.matrix[1][2] == 4

    @pytest.mark.parametrize("kind", ["line", "star", "uniform"])
    def test_zero_spacing_is_passed_through(self, kind):
        inst = build_instance(Scenario(kind, "4", spacing=0))
        assert all(d == 0 for row in inst.matrix for d in row)

    @pytest.mark.parametrize("kind, arg", [("random", "6"), ("nonmetric", "6")])
    def test_spacing_refused_where_it_does_not_apply(self, kind, arg):
        # spacing = 7 on a random tree printed the same run as without it
        with pytest.raises(ValueError, match=f"spacing .* not {kind}"):
            build_instance(Scenario(kind, arg, spacing=7))
        assert build_instance(Scenario(kind, arg)).n == 6

    def test_spacing_refused_on_a_file_metric(self, tmp_path):
        path = tmp_path / "m.txt"
        dump_metric(line_metric(3), str(path))
        with pytest.raises(ValueError, match="not file"):
            build_instance(Scenario("file", str(path), spacing=2))

    def test_negative_spacing_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="spacing"):
            Scenario("star", "4", spacing=-3)
        text = "metric = uniform 4\nspacing = -3\n"
        with pytest.raises(ValueError, match="spacing"):
            parse_scenario(_scenario_file(tmp_path, text))

    def test_negative_seed_rejected(self, tmp_path):
        # ran every trial, then failed in the bootstrap's numpy generator
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            Scenario("line", "4", seed=-1)
        text = "metric = line 4\ntrials = 3\nseed = -1\n"
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            parse_scenario(_scenario_file(tmp_path, text))

    def test_uniform(self):
        inst = build_instance(Scenario("uniform", "4"))
        assert inst.matrix[0][1] == 1 and inst.tree is None

    def test_random_tree_is_seed_stable(self):
        a = build_instance(Scenario("random", "9", seed=4))
        b = build_instance(Scenario("random", "9", seed=4))
        c = build_instance(Scenario("random", "9", seed=5))
        assert a.matrix == b.matrix
        assert a.matrix != c.matrix

    def test_random_tree_comes_from_the_salted_seed(self):
        inst = build_instance(Scenario("random", "9", seed=4))
        tree = random_recursive_tree(9, random.Random(4 ^ harness._TREE_SALT))
        assert inst.matrix == tree_metric(tree).matrix

    def test_nonmetric(self):
        inst = build_instance(Scenario("nonmetric", "4"))
        assert not inst.verified_metric

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "metric.txt")
        dump_metric(line_metric(3), path)
        inst = build_instance(Scenario("file", path))
        assert inst.matrix == line_metric(3).matrix

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            build_instance(Scenario("grid", "4"))

    def test_listed_kind_without_a_builder_is_unknown(self, monkeypatch):
        # a kind listed with no branch of its own built the non-metric demo
        monkeypatch.setattr(harness, "GENERATED_KINDS", (*GENERATED_KINDS, "grid"))
        with pytest.raises(ValueError, match="unknown metric kind 'grid'"):
            build_instance(Scenario("grid", "4"))

    def test_file_metric_needs_a_path(self, tmp_path):
        # failed in open('') with "[Errno 2] No such file or directory: ''"
        sc = parse_scenario(_scenario_file(tmp_path, "metric = file\n"))
        with pytest.raises(ValueError, match="^metric file needs a path$"):
            build_instance(sc)
        with pytest.raises(ValueError, match="^metric file needs a path$"):
            build_instance(Scenario("file", ""))

    def test_distributions(self, tmp_path):
        sc = Scenario("line", "3")
        assert build_distribution(sc, 3).weights == (1, 1, 1)
        geometric = dataclasses.replace(sc, distribution="geometric")
        assert build_distribution(geometric, 3).weights == (1, 2, 4)
        wpath = tmp_path / "w.txt"
        wpath.write_text("0 2\n1 1\n2 1\n")
        weights = dataclasses.replace(sc, distribution="weights", dist_arg=str(wpath))
        assert build_distribution(weights, 3).weights == (2, 1, 1)

    def test_scenario_is_frozen_so_its_checks_hold(self, tmp_path):
        # a field set after construction would skip __post_init__, and an
        # empty weights path would then fail later in open('')
        sc = Scenario("line", "3", distribution="weights", dist_arg=str(tmp_path / "w"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.dist_arg = ""
        with pytest.raises(ValueError, match="^distribution weights needs a path$"):
            dataclasses.replace(sc, dist_arg="")


class TestRatioOfMeans:
    def test_plain_ratio(self):
        ratio, lo, hi, flag = ratio_of_means([2.0, 4.0], [1.0, 3.0], seed=1)
        assert ratio == pytest.approx(1.5)
        assert lo <= ratio <= hi
        assert not flag

    def test_zero_over_zero(self):
        assert ratio_of_means([0.0, 0.0], [0.0, 0.0], seed=1) == (
            1.0,
            1.0,
            1.0,
            True,
        )

    def test_positive_over_zero(self):
        ratio, lo, hi, flag = ratio_of_means([1.0, 2.0], [0.0, 0.0], seed=1)
        assert ratio == math.inf and lo == math.inf and hi == math.inf
        assert not flag

    def test_deterministic(self):
        algs = [float(x) for x in range(1, 30)]
        opts = [float(x % 7 + 1) for x in range(29)]
        assert ratio_of_means(algs, opts, seed=5) == ratio_of_means(
            algs, opts, seed=5
        )

    def test_tight_interval_on_constant_data(self):
        ratio, lo, hi, _ = ratio_of_means([4.0] * 50, [2.0] * 50, seed=0)
        assert (ratio, lo, hi) == (2.0, 2.0, 2.0)

    @pytest.mark.parametrize(
        "algs, opts",
        [([1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 100.0]), ([], [])],
        ids=["unequal", "empty"],
    )
    def test_unpaired_or_empty_samples_refused(self, algs, opts):
        with pytest.raises(ValueError, match="need paired trials"):
            ratio_of_means(algs, opts, 0)

    def test_pinned_interval_on_many_trials(self):
        # figures of the one-array draw; drawing in blocks must not move them
        algs = [float((i * 37) % 50) for i in range(5000)]
        opts = [float((i * i) % 39 + 1) for i in range(5000)]
        assert ratio_of_means(algs, opts, seed=9) == (
            1.5641559303854846,
            1.5276126884420482,
            1.6031712880500966,
            False,
        )

    def test_infinite_neighbours_give_an_infinite_end(self):
        # both order statistics next to 97.5% are inf; numpy's percentile
        # interpolated inf - inf and reported the end as NaN, with a warning
        sc = Scenario("line", "2", distribution="geometric", trials=2, seed=18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, summary = run_trials(sc)
        assert (summary.ratio, summary.ci_low, summary.ci_high) == (3.0, 1.0, math.inf)

    def test_interval_ends_are_numpy_percentiles(self):
        rng = random.Random(4)
        for _ in range(300):
            values = [rng.choice([rng.random(), float(rng.randrange(3))])
                      for _ in range(rng.choice([1, 2, 7, 1000]))]
            for q in (2.5, 97.5, 100 * rng.random()):
                want = float(np.percentile(values, q))
                assert harness._percentile(sorted(values), q) == want

    @pytest.mark.parametrize(
        "algs, opts, bad",
        [
            ([math.nan, 1.0], [1.0, 1.0], "cost nan"),
            ([1.0, 1.0], [math.inf, 1.0], "optimum inf"),
            ([1.0, 1.0], [1.0, -math.inf], "optimum -inf"),
            ([math.inf], [1.0], "cost inf"),
            ([-1.0, 1.0], [1.0, -1.0], "cost -1.0"),
            ([1.0, 2.0], [-1.0, 5.0], "optimum -1.0"),
        ],
        ids=["nan-cost", "inf-optimum", "minus-inf-optimum", "inf-cost",
             "cancelling-negatives", "negative-optimum"],
    )
    def test_non_finite_or_negative_values_refused(self, algs, opts, bad):
        # unchecked, these gave NaN figures, a 0.0 ratio or the 0/0 flag;
        # every cost and optimum is a finite non-negative number
        with pytest.raises(ValueError, match=f"^{bad} is not finite and non-negative$"):
            ratio_of_means(algs, opts, 1)


class TestCsv:
    def test_header_and_millis_format(self, tmp_path):
        sc = Scenario("line", "4", trials=6, seed=2)
        records, _ = run_trials(sc)
        path = tmp_path / "rows.csv"
        write_csv(records, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "trial", "seed", "alg_cost", "opt_cost", "reloc_cost", "steps",
            "millis",
        ]
        assert len(rows) == 7
        for row in rows[1:]:
            assert len(row[-1].rsplit(".", 1)[1]) == 3

    def test_reruns_identical_apart_from_walltime(self, tmp_path):
        sc = Scenario("random", "6", trials=10, seed=3)
        a, _ = run_trials(sc)
        b, _ = run_trials(sc)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, str(pa))
        write_csv(b, str(pb))
        with open(pa, newline="") as fh:
            rows_a = [row[:-1] for row in csv.reader(fh)]
        with open(pb, newline="") as fh:
            rows_b = [row[:-1] for row in csv.reader(fh)]
        assert rows_a == rows_b

    def test_output_key_writes_the_file(self, tmp_path):
        out = tmp_path / "auto.csv"
        sc = Scenario("line", "3", trials=2, seed=0, output=str(out))
        run_trials(sc)
        assert out.exists()


class TestRunTrials:
    def test_single_point_flags_zero_over_zero(self):
        _, summary = run_trials(Scenario("line", "1", trials=5, seed=1))
        assert summary.ratio == 1.0
        assert summary.zero_over_zero
        assert "0/0" in summary.lines()[3]

    def test_online_never_beats_offline(self):
        records, summary = run_trials(Scenario("line", "5", trials=40, seed=7))
        for r in records:
            assert r.alg_cost >= r.opt_cost
            assert r.steps == 5
            assert r.reloc_cost == 0
        assert summary.ratio >= 1.0
        assert summary.trials == 40

    def test_wrapped_route_records_relocation(self):
        sc = Scenario(
            "line", "5", distribution="geometric", trials=30, seed=11
        )
        records, summary = run_trials(sc)
        assert any(r.reloc_cost > 0 for r in records)
        assert summary.ratio >= 1.0

    def test_max_weight_never_beats_offline(self):
        sc = Scenario("uniform", "4", algorithm="max-weight", trials=30, seed=5)
        records, summary = run_trials(sc)
        for r in records:
            assert r.alg_cost <= r.opt_cost
        assert summary.ratio <= 1.0

    def test_split_match_runs_on_trees(self):
        sc = Scenario("random", "8", algorithm="split-match", trials=20, seed=9)
        records, _ = run_trials(sc)
        assert all(r.alg_cost >= r.opt_cost for r in records)

    def test_embedding_variant_modes_agree_on_bookkeeping(self):
        for mode in ("per-trial", "once"):
            sc = Scenario(
                "line", "6", algorithm="fair-bias-on-frt",
                trials=10, seed=2, frt_mode=mode,
            )
            records, _ = run_trials(sc)
            assert all(r.alg_cost >= r.opt_cost for r in records)

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param(
                dict(metric_kind="uniform", metric_arg="4", algorithm="split-match"),
                "tree-backed", id="split-match-needs-a-tree",
            ),
            pytest.param(
                dict(metric_kind="random", metric_arg="4", algorithm="split-match",
                     distribution="geometric"),
                "uniform-arrival", id="split-match-uniform-only",
            ),
            pytest.param(
                dict(metric_kind="nonmetric", metric_arg="4",
                     algorithm="fair-bias-on-frt"),
                "checked metric", id="embedding-needs-a-checked-metric",
            ),
            pytest.param(
                dict(metric_kind="line", metric_arg="4", algorithm="fair-bias-on-frt",
                     distribution="geometric"),
                "uniform-arrival only", id="embedding-uniform-only",
            ),
            pytest.param(
                dict(metric_kind="nonmetric", metric_arg="6", distribution="geometric"),
                "checked metric", id="wrapper-needs-a-checked-metric",
            ),
        ],
    )
    def test_refused_at_set_up(self, monkeypatch, fields, message):
        # the refusal comes before the first trial's generator is made
        seeds = _count_trial_generators(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_trials(Scenario(trials=2, **fields))
        assert seeds == []

    def test_deterministic_costs(self):
        sc = Scenario("random", "7", trials=15, seed=13)
        a, _ = run_trials(sc)
        b, _ = run_trials(sc)
        assert [r.alg_cost for r in a] == [r.alg_cost for r in b]
        assert [r.opt_cost for r in a] == [r.opt_cost for r in b]

    def test_summarize_matches_records(self):
        records, summary = run_trials(Scenario("line", "4", trials=25, seed=3))
        again = summarize(records, 3)
        assert again == summary

    def test_pinned_summary_on_line_8(self):
        # the bootstrap interval end to end, so that a change to how or when
        # the summary runs cannot move it unnoticed
        _, summary = run_trials(Scenario("line", "8", trials=200, seed=3))
        assert (summary.ratio, summary.ci_low, summary.ci_high) == (
            1.2693813625685202,
            1.2085703251259625,
            1.3327748786465505,
        )


class TestNonmetric:
    def test_four_point_shape(self):
        inst = gen_nonmetric_instance(4)
        assert inst.matrix == [
            [0, 1, 1, 4],
            [1, 0, 1, 4],
            [1, 1, 0, 4],
            [4, 4, 4, 0],
        ]

    def test_six_points_break_the_triangle(self):
        inst = gen_nonmetric_instance(6)
        assert check_matrix(inst.matrix)

    def test_size_validation(self):
        for bad in (2, 5):
            with pytest.raises(ValueError, match="even n >= 4"):
                gen_nonmetric_instance(bad)

    def test_cost_ratio_grows_with_size(self):
        small = run_trials(Scenario("nonmetric", "6", trials=250, seed=3))[1]
        large = run_trials(Scenario("nonmetric", "10", trials=250, seed=3))[1]
        assert small.ratio > 1.0
        assert large.ratio > small.ratio


class TestVerifiers:
    def test_structure_small(self):
        report = verify_structure_lemma(uniform_metric(2), 600, seed=5)
        assert report.ok
        assert [r.k for r in report.rows] == [1]
        assert report.rows[0].categories == 2

    def test_structure_size_cap(self):
        with pytest.raises(ValueError, match="n=8"):
            verify_structure_lemma(uniform_metric(9), 10, seed=0)

    def test_replacement_first_moment_matches(self):
        report = verify_replacement(line_metric(4))
        assert report.ok
        k1 = report.rows[0]
        assert k1.k == 1
        assert k1.e_subsets == k1.e_iid == F(5, 4)

    @pytest.mark.parametrize("n", [1])
    def test_structure_needs_two_points(self, n):
        # n < 2 tabulated no free set and reported ok
        with pytest.raises(ValueError, match=f"n={n} < 2"):
            verify_structure_lemma(uniform_metric(n), 10, seed=0)

    def test_verifiers_need_a_trial(self):
        # trials=0 divided by zero in both
        with pytest.raises(ValueError, match="trials"):
            verify_structure_lemma(uniform_metric(3), 0, seed=0)
        with pytest.raises(ValueError, match="trials"):
            verify_cost_decomposition(line_metric(3), trials=0, seed=0)

    def test_replacement_size_cap(self):
        with pytest.raises(ValueError, match="n=6"):
            verify_replacement(line_metric(7))

    def test_decomposition_two_point_exact(self):
        # E[episode cost] on a 2-point line with gap D is D/2, and the
        # per-size decomposition gives D/2 + 0 on every sample
        report = verify_cost_decomposition(
            line_metric(2, spacing=6), trials=400, seed=8
        )
        assert report.ok
        episodes, summed = report.rows[:2]
        assert abs(episodes.mean - 3.0) <= 4 * episodes.stderr + 1e-9
        assert summed.mean == 3.0

    def test_decomposition_memo_holds_one_size(self, monkeypatch):
        # one memo served every size k, and a key is never looked up past
        # its k, so the memo grew to about n * trials entries
        real = verify._matching_value
        sizes = []

        def spy(instance, T, memo):
            sizes.append({len(key) for key in memo} | {len(T)})
            return real(instance, T, memo)

        monkeypatch.setattr(verify, "_matching_value", spy)
        instance = tree_metric(random_recursive_tree(6, random.Random(2)))
        assert verify_cost_decomposition(instance, trials=50, seed=1).ok
        assert len(sizes) == 6 * 50
        assert all(len(seen) == 1 for seen in sizes)

    def test_match_to_self_random_instances(self):
        report = verify_match_to_self(10, seed=3)
        assert report.ok
        assert report.checked == 10

    def test_scaling_random_instances(self):
        report = verify_scaling(5, seed=2)
        assert report.ok
        assert report.checked >= 5

    def test_random_metric_is_verified(self):
        rng = random.Random(0)
        for _ in range(5):
            inst = random_metric(rng.randint(2, 8), rng)
            assert inst.verified_metric


# per-trial (alg_cost, opt_cost, reloc_cost, step_costs) of four trials
# from seed 41, one route of each runner; the four tree-backed fair-bias
# routes (fair-bias-tree, wrapped-geometric, frt-*) draw servers with the
# tree flow walk, and their optima are those of the plan-column draw.
# The *-warm routes run past the plan memo's size, so every plan they
# draw from is a warm-started solve
GOLDEN_ROUTES = {
    "fair-bias-tree": (
        dict(metric_kind="random", metric_arg="7"),
        [(60, 60, 0, [0, 0, 0, 30, 30, 0, 0]),
         (334, 334, 0, [0, 0, 136, 31, 0, 76, 91]),
         (96, 96, 0, [0, 0, 0, 0, 0, 0, 96]),
         (158, 96, 0, [0, 0, 122, 1, 0, 35, 0])],
    ),
    "fair-bias-unchecked": (
        dict(metric_kind="nonmetric", metric_arg="6"),
        [(2, 2, 0, [0, 0, 0, 1, 1, 0]),
         (4, 2, 0, [0, 0, 1, 1, 1, 1]),
         (1, 1, 0, [0, 0, 0, 0, 0, 1]),
         (1, 1, 0, [0, 0, 1, 0, 0, 0])],
    ),
    "wrapped-geometric": (
        dict(metric_kind="random", metric_arg="6", distribution="geometric"),
        [(233, 173, 1, [0, 91, 0, 106, 0, 36]),
         (157, 97, 31, [31, 0, 5, 0, 0, 121]),
         (37, 37, 36, [0, 0, 0, 1, 0, 36]),
         (402, 68, 260, [167, 31, 0, 36, 1, 167])],
    ),
    "split-match": (
        dict(metric_kind="random", metric_arg="7", algorithm="split-match"),
        [(244, 60, 0, [0, 0, 0, 91, 30, 122, 1]),
         (344, 334, 0, [0, 0, 35, 122, 5, 106, 76]),
         (96, 96, 0, [0, 0, 0, 0, 0, 0, 96]),
         (96, 96, 0, [0, 0, 91, 0, 0, 0, 5])],
    ),
    "frt-per-trial": (
        dict(metric_kind="line", metric_arg="7", spacing=3,
             algorithm="fair-bias-on-frt"),
        [(12, 12, 0, [0, 0, 0, 3, 3, 3, 3]),
         (27, 21, 0, [0, 0, 6, 3, 3, 0, 15]),
         (6, 6, 0, [0, 0, 0, 0, 0, 0, 6]),
         (24, 6, 0, [0, 0, 3, 3, 15, 0, 3])],
    ),
    "frt-once": (
        dict(metric_kind="line", metric_arg="6", algorithm="fair-bias-on-frt",
             frt_mode="once"),
        [(3, 3, 0, [0, 0, 0, 1, 2, 0]),
         (4, 4, 0, [0, 0, 1, 1, 0, 2]),
         (2, 2, 0, [0, 0, 0, 0, 0, 2]),
         (2, 2, 0, [0, 0, 2, 0, 0, 0])],
    ),
    "max-weight": (
        dict(metric_kind="line", metric_arg="5", distribution="geometric",
             algorithm="max-weight"),
        [(7, 9, 0, [0, 1, 1, 1, 4]),
         (13, 13, 0, [3, 2, 3, 4, 1]),
         (12, 12, 0, [3, 1, 3, 4, 1]),
         (9, 11, 0, [1, 4, 3, 1, 0])],
    ),
    "matrix-warm": (
        dict(metric_kind="uniform", metric_arg="24"),
        [(11, 10, 0, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1,
                      1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1]),
         (11, 8, 0, [0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1,
                     0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1]),
         (13, 7, 0, [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1,
                     1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1]),
         (13, 12, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                      0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])],
    ),
    "unchecked-warm": (
        dict(metric_kind="nonmetric", metric_arg="22"),
        [(2058, 9, 0, [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1,
                       1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 2048]),
         (9, 7, 0, [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0,
                    1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1]),
         (9, 6, 0, [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1,
                    0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1]),
         (2058, 10, 0, [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                        0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 2048])],
    ),
    "max-weight-warm": (
        dict(metric_kind="line", metric_arg="14", distribution="geometric",
             algorithm="max-weight"),
        [(86, 88, 0, [8, 7, 2, 7, 11, 6, 2, 10, 5, 4, 10, 11, 3, 0]),
         (89, 89, 0, [12, 2, 5, 8, 10, 11, 8, 7, 3, 1, 6, 4, 5, 7]),
         (90, 90, 0, [4, 8, 8, 3, 11, 4, 9, 10, 6, 12, 7, 2, 4, 2]),
         (85, 87, 0, [12, 7, 6, 3, 5, 2, 10, 8, 2, 9, 3, 9, 5, 4])],
    ),
}


class TestTrialLoop:
    @pytest.mark.parametrize("route", sorted(GOLDEN_ROUTES))
    def test_golden_records(self, route):
        fields, expected = GOLDEN_ROUTES[route]
        records, _ = run_trials(Scenario(trials=4, seed=41, **fields))
        got = [(r.alg_cost, r.opt_cost, r.reloc_cost, r.step_costs) for r in records]
        assert got == expected

    @pytest.mark.parametrize(
        "metric, algorithm",
        [("line", a) for a in ALGORITHMS]
        + [("uniform", a) for a in ALGORITHMS if a != "split-match"],
    )
    def test_one_generator_per_trial(self, monkeypatch, metric, algorithm):
        seeds = _count_trial_generators(monkeypatch)
        sc = Scenario(metric, "5", algorithm=algorithm, trials=6, seed=30)
        records, _ = run_trials(sc)
        assert len(records) == 6
        assert seeds == list(range(30, 36))

    @pytest.mark.parametrize(
        "fields",
        [
            dict(metric_kind="random", metric_arg="6"),
            dict(metric_kind="random", metric_arg="6", algorithm="fair-bias-on-frt",
                 frt_mode="once"),
            dict(metric_kind="line", metric_arg="5", algorithm="fair-bias-on-frt",
                 frt_mode="once"),
        ],
    )
    def test_set_up_generators_are_not_trial_generators(self, monkeypatch, fields):
        # the generated tree and the one embedding keep their own generators,
        # with the same seeds, so a hook on harness.random sees one per trial
        expected, _ = run_trials(Scenario(trials=6, seed=30, **fields))
        seeds = _count_trial_generators(monkeypatch)
        records, _ = run_trials(Scenario(trials=6, seed=30, **fields))
        assert seeds == list(range(30, 36))
        assert [r.step_costs for r in records] == [r.step_costs for r in expected]
