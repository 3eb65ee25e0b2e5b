import numpy as np
import pytest

from masklog.calibrate import select_threshold
from masklog.corpus import LABEL_ANOMALOUS, LABEL_NORMAL
from masklog.detect import (
    assert_no_leakage,
    confusion_counts,
    metrics,
    metrics_from_counts,
    percentile_grid,
    verdict_label,
)
from masklog.errors import LeakageDetected, LengthMismatch, NoAnomaliesInTruth
from masklog.masking import MaskingStrategy
from masklog.score import ScoreReport


def make_report(score):
    return ScoreReport(
        raw_ref=("x", 0),
        score=score,
        masked_count=1,
        token_probs=[(0, float(np.exp(-score)))],
        strategy=MaskingStrategy(),
    )


class TestClassify:
    """`verdict_label`, the one classification rule: strictly above the threshold is anomalous."""

    def test_above_threshold_is_anomalous(self):
        assert verdict_label(1.2, 1.0) == LABEL_ANOMALOUS

    def test_exactly_at_threshold_is_normal(self):
        assert verdict_label(1.0, 1.0) == LABEL_NORMAL

    def test_verdict_vector_matches_brute_force(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(1, 0.5, 100)
        verdicts = [verdict_label(float(s), 1.3) for s in scores]
        brute = [LABEL_ANOMALOUS if s > 1.3 else LABEL_NORMAL for s in scores]
        assert verdicts == brute

    def test_raising_threshold_never_adds_positives(self):
        rng = np.random.default_rng(1)
        scores = [float(s) for s in rng.normal(1, 0.5, 200)]
        counts = [sum(verdict_label(s, tv) == LABEL_ANOMALOUS for s in scores) for tv in (0.5, 1.0, 1.5, 2.0)]
        assert counts == sorted(counts, reverse=True)


class TestMetrics:
    def test_textbook_counts(self):
        m = metrics_from_counts(tp=9, fp=1, fn=1, tn=0)
        assert m.precision == pytest.approx(0.9)
        assert m.recall == pytest.approx(0.9)
        assert m.f1 == pytest.approx(0.9)

    def test_all_correct(self):
        preds = [LABEL_ANOMALOUS, LABEL_NORMAL, LABEL_ANOMALOUS]
        m = metrics(preds, preds)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.tp + m.fp + m.fn + m.tn == 3

    def test_zero_division_flags(self):
        m = metrics_from_counts(tp=0, fp=0, fn=3, tn=5)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert set(m.zero_division) == {"precision", "f1"}

    def test_f1_zero_iff_no_true_positives(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp, fp, fn, tn = (int(x) for x in rng.integers(0, 10, 4))
            m = metrics_from_counts(tp, fp, fn, tn)
            assert (m.f1 == 0.0) == (tp == 0)

    def test_recount_oracle(self):
        rng = np.random.default_rng(3)
        preds = [LABEL_ANOMALOUS if x else LABEL_NORMAL for x in rng.integers(0, 2, 300)]
        truth = [LABEL_ANOMALOUS if x else LABEL_NORMAL for x in rng.integers(0, 2, 300)]
        m = metrics(preds, truth)
        tp = sum(1 for p, t in zip(preds, truth) if p == t == LABEL_ANOMALOUS)
        fp = sum(1 for p, t in zip(preds, truth) if p == LABEL_ANOMALOUS and t == LABEL_NORMAL)
        fn = sum(1 for p, t in zip(preds, truth) if p == LABEL_NORMAL and t == LABEL_ANOMALOUS)
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn)
        assert m.precision == pytest.approx(tp / (tp + fp))
        assert m.recall == pytest.approx(tp / (tp + fn))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_counts([LABEL_NORMAL], [LABEL_NORMAL, LABEL_NORMAL])

    def test_no_anomalies_warns(self):
        with pytest.warns(NoAnomaliesInTruth):
            metrics([LABEL_NORMAL, LABEL_NORMAL], [LABEL_NORMAL, LABEL_NORMAL])

    def test_numeric_labels_accepted(self):
        m = metrics(["1", "0"], [1, 0])
        assert m.tp == 1 and m.tn == 1


class TestPercentileGrid:
    @staticmethod
    def grid(normal_scores, labeled, percentiles):
        reports = [make_report(s) for s, _ in labeled]
        return percentile_grid(normal_scores, reports, [lab for _, lab in labeled], percentiles)

    def test_predicted_positive_monotone_and_consistent(self):
        rng = np.random.default_rng(8)
        normal_scores = rng.normal(1.0, 0.3, 200).tolist()
        labeled = [(float(s), "normal") for s in rng.normal(1.0, 0.3, 100)]
        labeled += [(float(s), "anomalous") for s in rng.normal(3.0, 0.5, 40)]
        cells = self.grid(normal_scores, labeled, [70, 80, 90, 95, 100])
        assert len(cells) == 5
        positives = [c.metrics.tp + c.metrics.fp for c in cells]
        assert positives == sorted(positives, reverse=True)

    def test_single_percentile_matches_standalone(self):
        rng = np.random.default_rng(9)
        normal_scores = rng.normal(1.0, 0.3, 50).tolist()
        labeled = [(2.5, "anomalous"), (0.9, "normal"), (1.4, "normal"), (3.0, "anomalous")]
        (cell,) = self.grid(normal_scores, labeled, [90])
        t = select_threshold(normal_scores, 90)
        assert cell.threshold == t.value
        expected_preds = [s > t.value for s, _ in labeled]
        assert cell.metrics.tp == sum(
            1 for flag, (_, lab) in zip(expected_preds, labeled) if flag and lab == "anomalous"
        )

    def test_percentile_100_uses_max(self):
        (cell,) = self.grid([1.0, 5.0, 2.0], [(6.0, "anomalous"), (4.9, "normal")], [100])
        assert cell.threshold == 5.0
        assert cell.metrics.tp == 1 and cell.metrics.fp == 0


class TestLeakageGuard:
    def test_clean_partitions_pass(self):
        assert_no_leakage(["c d"], ["a b"], ["e f"])

    def test_collision_with_train_detected(self):
        with pytest.raises(LeakageDetected) as err:
            assert_no_leakage(["a b", "x y"], ["a b"], [])
        assert "a b" in err.value.collisions

    def test_collision_with_calibration_detected(self):
        with pytest.raises(LeakageDetected):
            assert_no_leakage(["q r"], [], ["q r"])

    def test_collision_report_lists_all(self):
        with pytest.raises(LeakageDetected) as err:
            assert_no_leakage(["a", "b", "c"], ["a"], ["b"])
        assert err.value.collisions == ["a", "b"]
