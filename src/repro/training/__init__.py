"""Training, evaluation and the calibrated accuracy proxy.

Names load on first use (PEP 562): the accuracy proxy does not pull in the
trainer, the evaluator or the :mod:`repro.nn` / :mod:`repro.data` substrate
they run on.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "trainer": ("Trainer", "TrainingHistory", "EpochStats"),
    "evaluate": ("evaluate_accuracy", "evaluate_topk", "predict_logits", "confusion_matrix"),
    "proxy": (
        "AccuracyProxy",
        "BASELINE_ACCURACY",
        "TABLE1_ACCURACY",
        "PATTERN_ACCURACY",
        "QUANTIZATION_ACCURACY",
    ),
    "seeds": ("seed_everything", "spawn_generator", "EXPERIMENT_SEEDS"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
