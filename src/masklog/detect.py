"""The strict-inequality verdict rule, metrics, leakage guard, and ablations."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .calibrate import select_threshold
from .corpus import LABEL_ANOMALOUS, LABEL_NORMAL, canon_label
from .errors import LeakageDetected, LengthMismatch, NoAnomaliesInTruth
from .masking import MaskingStrategy
from .model import init_params
from .score import score_corpus
from .train import Checkpoint


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    zero_division: tuple = ()


def verdict_label(score: float, threshold: float) -> str:
    """Strict-inequality rule: a score exactly at the threshold is normal."""
    return LABEL_ANOMALOUS if score > threshold else LABEL_NORMAL


def confusion_counts(predicted, truth) -> tuple[int, int, int, int]:
    if len(predicted) != len(truth):
        raise LengthMismatch(f"{len(predicted)} predictions vs {len(truth)} truth labels")
    tp = fp = fn = tn = 0
    for pred, true in zip(predicted, truth):
        pred, true = canon_label(pred), canon_label(true)
        if true == LABEL_ANOMALOUS:
            if pred == LABEL_ANOMALOUS:
                tp += 1
            else:
                fn += 1
        else:
            if pred == LABEL_ANOMALOUS:
                fp += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> MetricsReport:
    flags = []
    if tp + fp:
        precision = tp / (tp + fp)
    else:
        precision, flags = 0.0, flags + ["precision"]
    if tp + fn:
        recall = tp / (tp + fn)
    else:
        recall, flags = 0.0, flags + ["recall"]
    if precision + recall:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1"]
    return MetricsReport(
        tp=tp, fp=fp, fn=fn, tn=tn,
        precision=precision, recall=recall, f1=f1,
        zero_division=tuple(flags),
    )


def metrics(predicted, truth) -> MetricsReport:
    """Confusion counts plus precision/recall/F1 for predicted labels against true labels."""
    truth = [canon_label(t) for t in truth]
    if LABEL_ANOMALOUS not in truth:
        warnings.warn("truth contains no anomalies; recall is vacuous", NoAnomaliesInTruth)
    return metrics_from_counts(*confusion_counts(predicted, truth))


def assert_no_leakage(test_texts, train_texts, calibration_texts=()) -> None:
    """Refuse evaluation when a test log's cleaned text exists in train/calibration data."""
    seen = set(train_texts) | set(calibration_texts)
    collisions = sorted({t for t in test_texts if t in seen})
    if collisions:
        raise LeakageDetected(collisions)


@dataclass(frozen=True)
class AblationCell:
    strategy: str
    percentile: float
    threshold: float
    metrics: MetricsReport


def percentile_grid(cal_scores, test_reports, truth, percentiles, strategy: str = "") -> list[AblationCell]:
    """Metrics of the test reports at each percentile threshold, calibrated on normal scores only."""
    cells = []
    for p in percentiles:
        t = select_threshold(cal_scores, p)
        predicted = [verdict_label(r.score, t.value) for r in test_reports]
        cells.append(AblationCell(strategy, float(p), t.value, metrics(predicted, truth)))
    return cells


def _score_partitions(ckpt, val_seqs, test_seqs, strategy, seed):
    """Calibration scores of the normal val logs, and the test reports, under one strategy."""
    val = score_corpus(ckpt, val_seqs, strategy, seed=seed)
    test = score_corpus(ckpt, test_seqs, strategy, seed=seed)
    return [r.score for r in val], test


def ablate_masking(
    ckpt: Checkpoint, val_seqs, test_seqs, test_labels, strategies, percentiles, seed: int = 0
) -> list[AblationCell]:
    """Full strategies x percentiles grid; every cell recalibrates its own threshold.

    Each `MaskingStrategy` carries its own repeats. Scores are computed once
    per strategy and reused across percentiles, which matches running each
    cell standalone because thresholding is downstream of scoring.
    """
    cells = []
    for strategy in strategies:
        val_scores, test_reports = _score_partitions(ckpt, val_seqs, test_seqs, strategy, seed)
        cells += percentile_grid(val_scores, test_reports, test_labels, percentiles, strategy.describe())
    return cells


@dataclass(eq=False)
class FinetuneAblation:
    trained: MetricsReport
    untrained: MetricsReport
    trained_mean_normal_score: float
    untrained_mean_normal_score: float


def _run_detection(ckpt, val_seqs, test_seqs, truth, strategy, percentile, seed):
    val_scores, reports = _score_partitions(ckpt, val_seqs, test_seqs, strategy, seed)
    (cell,) = percentile_grid(val_scores, reports, truth, [percentile], strategy.describe())
    return cell.metrics, sum(val_scores) / len(val_scores)


def ablate_finetune(
    ckpt: Checkpoint,
    val_seqs,
    test_seqs,
    test_labels,
    percentile: float = 90.0,
    strategy: MaskingStrategy = MaskingStrategy(),
    seed: int = 0,
) -> FinetuneAblation:
    """Same detection pipeline with the checkpoint's weights vs. the initial weights it trained from."""
    untrained = Checkpoint(
        params=init_params(ckpt.model_config, ckpt.train_config.seed),
        vocab_hash=ckpt.vocab_hash,
        train_config=ckpt.train_config,
        final_loss=float("nan"),
        history=[],
    )
    m_unt, mean_unt = _run_detection(untrained, val_seqs, test_seqs, test_labels, strategy, percentile, seed)
    m_tr, mean_tr = _run_detection(ckpt, val_seqs, test_seqs, test_labels, strategy, percentile, seed)
    return FinetuneAblation(
        trained=m_tr,
        untrained=m_unt,
        trained_mean_normal_score=mean_tr,
        untrained_mean_normal_score=mean_unt,
    )
