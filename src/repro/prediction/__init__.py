"""Job power prediction: features, regressors, evaluation."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".evaluate": (
        "PredictionScore", "chronological_split", "evaluate_model", "score_predictions",
    ),
    ".features": ("FeatureEncoder",),
    ".models": (
        "JobPowerModel", "KnnRegressor", "PerKeyMeanPredictor", "RidgeRegressor",
    ),
    ".online": ("OnlineJobPowerModel", "OnlineRidge"),
})
