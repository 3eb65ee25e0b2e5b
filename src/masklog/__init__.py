"""Unsupervised log anomaly detection with a from-scratch masked-token encoder."""

__version__ = "0.1.0"

from .calibrate import Threshold, select_threshold
from .corpus import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    Split,
    dedupe,
    split_corpus,
    synthesize,
)
from .detect import (
    MetricsReport,
    Verdict,
    ablate_finetune,
    ablate_masking,
    assert_no_leakage,
    classify,
    metrics,
)
from .masking import MaskingStrategy, MaskPlan, plan_random, plan_token_by_token
from .model import (
    ForwardOutput,
    ModelConfig,
    Parameters,
    backward,
    forward,
    init_params,
    mlm_loss,
)
from .normalize import (
    CleanLog,
    NormalizationConfig,
    RawLog,
    normalize,
    replace_placeholders,
    split_compound,
    strip_timestamps,
)
from .score import HeatmapMatrix, ScoreReport, heatmap, score_corpus, score_log
from .train import Checkpoint, TrainConfig, evaluate_loss, load_checkpoint, save_checkpoint, train
from .vocab import TokenSequence, Vocabulary, build_vocab, decode, encode
