"""Forecaster registry: every model behind one panel-level interface."""

from __future__ import annotations

from ..errors import UnknownModelError
from .arima import (
    ARIMAFit,
    ARIMAOrder,
    AutoARIMA,
    arima_fit,
    differencing_orders,
    forecast_arima,
)
from .base import Forecaster, gaussian_quantiles
from .baselines import SES, HistoricAverage, Naive, SeasonalNaive, SESState, ses_fit
from .croston import Adida, Croston
from .ets import AutoETS, ETSFit, ETSParams, ets_fit
from .theta import Theta

MODEL_REGISTRY: dict[str, type[Forecaster]] = {
    "naive": Naive,
    "seasonalnaive": SeasonalNaive,
    "historicaverage": HistoricAverage,
    "ses": SES,
    "theta": Theta,
    "autoets": AutoETS,
    "autoarima": AutoARIMA,
    "croston": Croston,
    "adida": Adida,
}


def available_models() -> list[str]:
    return list(MODEL_REGISTRY)


def get_model(alias: str) -> Forecaster:
    """Instantiate a registered forecaster by its alias."""
    try:
        return MODEL_REGISTRY[alias]()
    except KeyError:
        known = ", ".join(MODEL_REGISTRY)
        raise UnknownModelError(f"unknown model {alias!r} (known: {known})") from None


__all__ = [
    "ARIMAFit",
    "ARIMAOrder",
    "Adida",
    "AutoARIMA",
    "AutoETS",
    "Croston",
    "ETSFit",
    "ETSParams",
    "Forecaster",
    "HistoricAverage",
    "MODEL_REGISTRY",
    "Naive",
    "SES",
    "SESState",
    "SeasonalNaive",
    "Theta",
    "arima_fit",
    "available_models",
    "differencing_orders",
    "ets_fit",
    "forecast_arima",
    "gaussian_quantiles",
    "get_model",
    "ses_fit",
]
