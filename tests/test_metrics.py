import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from selqa import EvalPoint, ScoredPrediction, build_report
from selqa._columns import Columns
from selqa.metrics import (
    accuracy_at_trigger,
    coverage_at_accuracy,
    ece,
    rank_methods,
    ranked_curve,
    ranked_sweep,
    report_from_rankings,
    risk_coverage_curve,
    roc_auc,
    threshold_sweep,
)

from oracles import (
    binned_ece,
    cut_sweep,
    pairwise_auc,
    prefix_coverage,
    prefix_curve,
    random_points,
)


def pts(*pairs):
    return [EvalPoint(s, c, f"id{i:03d}") for i, (s, c) in enumerate(pairs)]


point_lists = st.lists(
    st.tuples(st.sampled_from([i / 8 for i in range(9)]), st.booleans()),
    min_size=1,
    max_size=40,
).map(lambda raw: pts(*raw))


class TestEce:
    def test_perfectly_confident_and_correct(self):
        assert ece(pts(*[(1.0, True)] * 6)) == 0.0

    def test_two_bin_hand_case(self):
        points = pts((0.9, True), (0.8, True), (0.6, False), (0.4, False))
        assert ece(points, n_bins=2) == pytest.approx(0.325, abs=1e-12)

    def test_fewer_points_than_bins(self):
        points = pts((0.9, True), (0.5, False), (0.2, False))
        expected = (abs(0.9 - 1) + abs(0.5 - 0) + abs(0.2 - 0)) / 3
        assert ece(points, n_bins=10) == pytest.approx(expected, abs=1e-12)

    def test_single_bin_is_mean_gap(self):
        rng = random.Random(3)
        for _ in range(20):
            points = random_points(rng, max_n=50)
            mean_score = sum(p.score for p in points) / len(points)
            accuracy = sum(p.correct for p in points) / len(points)
            assert ece(points, 1) == pytest.approx(abs(mean_score - accuracy), abs=1e-12)

    def test_remainder_goes_to_top_bins(self):
        # 5 points, 2 bins: top bin takes 3, bottom takes 2
        points = pts((0.9, True), (0.8, True), (0.7, False), (0.2, False), (0.1, False))
        top = abs((0.9 + 0.8 + 0.7) / 3 - 2 / 3)
        bottom = abs((0.2 + 0.1) / 2 - 0.0)
        assert ece(points, n_bins=2) == pytest.approx((top + bottom) / 2, abs=1e-12)

    @pytest.mark.parametrize("grid", [None, [i / 10 for i in range(11)]])
    @pytest.mark.parametrize("n_bins", [1, 3, 10, 1000])
    def test_matches_binned_oracle_bitwise(self, n_bins, grid):
        rng = random.Random(23 + n_bins)
        for _ in range(60):
            points = random_points(rng, max_n=120, grid=grid)
            assert ece(points, n_bins) == binned_ece(points, n_bins)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ece([])
        with pytest.raises(ValueError):
            ece(pts((0.5, True)), n_bins=0)

    @given(point_lists, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, points, rng):
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert ece(shuffled) == ece(points)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(pts((0.9, True), (0.8, True), (0.2, False))) == 1.0

    def test_all_ties(self):
        assert roc_auc(pts((0.5, True), (0.5, False), (0.5, True))) == 0.5

    def test_hand_case_with_tie(self):
        points = pts((0.9, True), (0.7, False), (0.7, True), (0.2, False))
        assert roc_auc(points) == 3.5 / 4

    def test_degenerate_returns_none(self):
        assert roc_auc(pts((0.5, True), (0.9, True))) is None
        assert roc_auc(pts((0.5, False))) is None
        assert roc_auc([]) is None

    def test_matches_pairwise_oracle_bitwise(self):
        rng = random.Random(17)
        for _ in range(60):
            points = random_points(rng, max_n=80)
            assert roc_auc(points) == pairwise_auc(points)

    @given(point_lists)
    def test_invariant_under_monotone_transform(self, points):
        transformed = [EvalPoint(p.score**2, p.correct, p.record_id) for p in points]
        assert roc_auc(transformed) == roc_auc(points)

    @given(point_lists, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, points, rng):
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert roc_auc(shuffled) == roc_auc(points)


class TestCoverageAtAccuracy:
    def test_all_correct(self):
        assert coverage_at_accuracy(pts((0.9, True), (0.1, True)), 99.0) == 100.0

    def test_unreachable_target(self):
        assert coverage_at_accuracy(pts((0.9, False), (0.1, False)), 50.0) == 0.0

    def test_hand_case(self):
        # sorted correctness T T F T F, target 70 -> best prefix is m=4
        points = pts((0.9, True), (0.8, True), (0.7, False), (0.6, True), (0.5, False))
        assert coverage_at_accuracy(points, 70.0) == 80.0

    def test_matches_prefix_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            points = random_points(rng, max_n=80)
            for target in (50.0, 60.0, 70.0, 80.0, 90.0):
                assert coverage_at_accuracy(points, target) == prefix_coverage(points, target)

    @given(point_lists, st.sampled_from([40.0, 60.0, 80.0]), st.sampled_from([10.0, 20.0]))
    def test_monotone_in_target(self, points, target, bump):
        assert coverage_at_accuracy(points, target + bump) <= coverage_at_accuracy(points, target)

    @given(point_lists, st.sampled_from([50.0, 70.0, 90.0]))
    def test_prepending_best_correct_never_hurts(self, points, target):
        assume(all(p.score < 1.0 for p in points))
        top = EvalPoint(1.0, True, "zz-top")  # strictly outscores everything
        before = coverage_at_accuracy(points, target)
        after = coverage_at_accuracy([top] + points, target)
        assert after >= before

    def test_bad_target(self):
        for target in (0.0, -5.0, 101.0):
            with pytest.raises(ValueError):
                coverage_at_accuracy(pts((0.5, True)), target)
        with pytest.raises(ValueError):
            coverage_at_accuracy([], 50.0)


class TestRiskCoverageCurve:
    def test_single_correct(self):
        (point,) = risk_coverage_curve(pts((0.9, True)))
        assert (point.coverage, point.accuracy) == (100.0, 100.0)

    def test_two_points(self):
        curve = risk_coverage_curve(pts((0.9, True), (0.1, False)))
        assert [(p.coverage, p.accuracy) for p in curve] == [(50.0, 100.0), (100.0, 50.0)]

    def test_matches_prefix_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            points = random_points(rng, max_n=60)
            got = [(p.coverage, p.accuracy) for p in risk_coverage_curve(points)]
            assert got == prefix_curve(points)

    @given(point_lists)
    def test_last_point_is_overall_accuracy(self, points):
        curve = risk_coverage_curve(points)
        overall = 100.0 * sum(p.correct for p in points) / len(points)
        assert curve[-1].coverage == 100.0
        assert curve[-1].accuracy == pytest.approx(overall, abs=1e-12)

    @given(point_lists)
    def test_strictly_increasing_coverage(self, points):
        curve = risk_coverage_curve(points)
        coverages = [p.coverage for p in curve]
        assert all(a < b for a, b in zip(coverages, coverages[1:]))


class TestThresholdSweep:
    def test_identical_scores_single_row(self):
        rows = threshold_sweep(pts((0.5, True), (0.5, False), (0.5, True)))
        assert len(rows) == 1
        assert rows[0].coverage == 100.0
        assert rows[0].accuracy == pytest.approx(200 / 3)
        assert rows[0].tau < 0.5

    def test_two_distinct_scores_two_rows(self):
        rows = threshold_sweep(pts((0.8, True), (0.2, False)))
        assert len(rows) == 2
        assert [r.coverage for r in rows] == [50.0, 100.0]

    def test_matches_cut_oracle_bitwise(self):
        rng = random.Random(29)
        for _ in range(60):
            points = random_points(rng, max_n=120)
            rows = [(r.tau, r.coverage, r.accuracy) for r in threshold_sweep(points)]
            assert rows == cut_sweep(points)

    def test_tau_reproduces_retained_sets(self):
        rng = random.Random(41)
        for _ in range(30):
            points = random_points(rng, max_n=40)
            for row in threshold_sweep(points):
                retained = [p for p in points if p.score > row.tau]
                assert 100.0 * len(retained) / len(points) == pytest.approx(row.coverage)
                accuracy = 100.0 * sum(p.correct for p in retained) / len(retained)
                assert accuracy == pytest.approx(row.accuracy)

    def test_adjacent_float_scores(self):
        # the midpoint of adjacent doubles rounds to one of them; tau must
        # still reproduce the retained sets
        import math

        low = 0.5
        high = math.nextafter(low, 1.0)
        points = pts((high, True), (low, False))
        for row in threshold_sweep(points):
            retained = [p for p in points if p.score > row.tau]
            assert 100.0 * len(retained) / len(points) == row.coverage

    def test_rows_are_curve_samples_at_cuts(self):
        points = pts((0.9, True), (0.9, False), (0.5, True), (0.2, False), (0.2, True))
        curve = {p.coverage: p.accuracy for p in risk_coverage_curve(points)}
        for row in threshold_sweep(points):
            assert curve[row.coverage] == row.accuracy


def scored(qid, triggered, score=0.5, correct=True):
    return ScoredPrediction(
        question_id=qid,
        triggered=triggered,
        scores={"likelihood": score},
        correct={"em": correct} if triggered else {},
        answerable=True,
    )


class TestAccuracyAtTrigger:
    def test_ratios(self):
        rows = [scored("a", True, correct=True), scored("b", True, correct=False), scored("c", False)]
        accuracy, trigger_rate = accuracy_at_trigger(rows)
        assert accuracy == pytest.approx(50.0)
        assert trigger_rate == pytest.approx(200 / 3)

    def test_none_triggered(self):
        accuracy, trigger_rate = accuracy_at_trigger([scored("a", False), scored("b", False)])
        assert accuracy is None
        assert trigger_rate == 0.0

    def test_all_triggered_all_correct(self):
        accuracy, trigger_rate = accuracy_at_trigger([scored("a", True), scored("b", True)])
        assert (accuracy, trigger_rate) == (100.0, 100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy_at_trigger([])

    def test_unknown_classifier(self):
        with pytest.raises(ValueError, match="no verdict"):
            accuracy_at_trigger([scored("a", True)], classifier="bem")


class TestBuildReport:
    def test_composes_sub_metrics(self):
        rng = random.Random(7)
        rows = [
            scored(f"q{i:03d}", True, score=rng.choice([0.2, 0.5, 0.8]), correct=rng.random() < 0.6)
            for i in range(20)
        ]
        report = build_report(rows, methods=["likelihood"], acc_targets=[60.0, 80.0])
        points = [EvalPoint(r.scores["likelihood"], r.correct["em"], r.question_id) for r in rows]
        row = report.methods["likelihood"]
        assert row.auc == pairwise_auc(points)
        assert row.ece == ece(points, 10)
        assert row.coverage_at[60.0] == prefix_coverage(points, 60.0)
        assert row.coverage_at[80.0] == prefix_coverage(points, 80.0)
        assert report.n_total == 20 and report.n_triggered == 20

    def test_all_abstaining_dump(self):
        rows = [scored(f"q{i}", False) for i in range(4)]
        report = build_report(rows, methods=["likelihood"])
        assert report.trigger_rate == 0.0
        assert report.accuracy is None
        row = report.methods["likelihood"]
        assert row.auc is None and row.ece is None
        assert all(v is None for v in row.coverage_at.values())

    def test_single_method_projection(self):
        rows = [scored("a", True), scored("b", True, correct=False)]
        report = build_report(rows, methods=["likelihood"])
        assert list(report.methods) == ["likelihood"]

    def test_trigger_rate_identity(self):
        rows = [scored("a", True), scored("b", False), scored("c", True)]
        report = build_report(rows, methods=["likelihood"])
        assert report.trigger_rate == pytest.approx(100.0 * report.n_triggered / report.n_total)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_report([], methods=["likelihood"])


class TestSharedRanking:
    """The report and the curves of evaluate read one ranking per method."""

    def test_report_and_curve_from_one_ranking(self):
        rng = random.Random(11)
        rows = [
            scored(f"q{i:03d}", rng.random() < 0.8, score=rng.choice([0.1, 0.4, 0.9]),
                   correct=rng.random() < 0.5)
            for i in range(30)
        ]
        table = Columns.from_rows(rows, ["likelihood"], "em")
        rankings = rank_methods(table)
        report = report_from_rankings(table, rankings, [60.0], 10, {"k": "v"})
        assert report == build_report(rows, ["likelihood"], [60.0], meta={"k": "v"})
        points = [EvalPoint(r.scores["likelihood"], r.correct["em"], r.question_id)
                  for r in rows if r.triggered]
        assert ranked_curve(rankings["likelihood"]) == risk_coverage_curve(points)
        assert ranked_sweep(rankings["likelihood"]) == threshold_sweep(points)

    def test_nothing_triggered_gives_an_empty_curve(self):
        rankings = rank_methods(Columns.from_rows([scored("a", False)], ["likelihood"], "em"))
        assert ranked_curve(rankings["likelihood"]) == []
