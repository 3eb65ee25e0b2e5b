"""Exception classes shared across the pipeline."""


class MasklogError(Exception):
    """Base class for all errors raised by this package."""


class EmptyAfterCleaning(MasklogError):
    """A log line was reduced to zero tokens by normalization."""


class EmptyCorpus(MasklogError):
    """An operation that needs at least one log received none."""


class UnknownId(MasklogError):
    """A token id is outside the vocabulary."""


class ShapeMismatch(MasklogError):
    """Tensor shapes are inconsistent with the model configuration."""


class NonFiniteActivation(MasklogError):
    """The forward pass produced NaN or infinity."""


class NonFiniteGradient(MasklogError):
    """The backward pass produced NaN or infinity."""


class NoMaskedPositions(MasklogError):
    """Loss requested for a batch with no masked positions."""


class DivergenceDetected(MasklogError):
    """Training loss became non-finite."""


class VocabMismatch(MasklogError):
    """A checkpoint was paired with a vocabulary it was not trained on."""


class EmptyScores(MasklogError):
    """Threshold selection needs at least one score."""


class NonFiniteScore(MasklogError):
    """A score list contains NaN or infinity."""


class CheckpointMismatch(MasklogError):
    """Scores and threshold derive from different checkpoints."""


class LengthMismatch(MasklogError):
    """Parallel sequences (predictions vs. truth) differ in length."""


class NoAnomaliesInTruth(UserWarning):
    """Warning: the evaluation truth contains no anomalous labels."""


class TooFewLogs(MasklogError):
    """Not enough unique logs to form the requested partitions."""


class LeakageDetected(MasklogError):
    """A test log's cleaned text also appears in training or calibration data."""

    def __init__(self, collisions):
        self.collisions = list(collisions)
        preview = ", ".join(repr(c) for c in self.collisions[:5])
        more = "" if len(self.collisions) <= 5 else f" (+{len(self.collisions) - 5} more)"
        super().__init__(
            f"{len(self.collisions)} test log(s) collide with train/calibration data: {preview}{more}"
        )


class MissingInput(MasklogError):
    """A required input file is absent."""


class DigestMismatch(MasklogError):
    """Artifact digests disagree along the checkpoint/vocab/threshold chain."""


class ConfigInvalid(MasklogError):
    """A configuration file or flag value is not acceptable."""


class MalformedInput(MasklogError, ValueError):
    """An input file is truncated, garbled or of the wrong kind (a ValueError too, for library callers)."""
