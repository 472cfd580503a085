"""Forecasting agent: profile the data, shortlist models, cross-validate,
forecast with the winner, and explain the outcome in plain language.

The pipeline runs in two modes.  Deterministic mode is a pure function of
its inputs: candidates come from a fixed rule table, the explanation and
query answer are templated from computed numbers, and no network request
is ever issued.  LLM mode delegates candidate proposal and prose writing
to a chat model, but every alias it returns is validated against the
model registry and every number it is shown was computed locally first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .ensemble import monotonize_quantiles
from .errors import AgentError, ConfigError, ProtocolError
from .evaluation import EvalReport, aggregate_leaderboard, cross_validate
from .features import FeatureReport, compute_features
from .llm import LLMConfig, ToolCall, ToolSpec, llm_chat
from .models import arima, available_models, get_model
from .panel import DEFAULT_LEVELS, ForecastFrame, SeriesPanel, format_timestamp

__all__ = [
    "ASSUMPTION_NOTES",
    "Candidate",
    "AgentConfig",
    "AgentResult",
    "FeatureProfile",
    "profile_features",
    "propose_candidates",
    "run_agent",
    "answer_query",
]

ASSUMPTION_NOTES = {
    "naive": "the last observation persists; no trend or seasonality",
    "seasonalnaive": "the last seasonal cycle repeats unchanged",
    "historicaverage": "observations fluctuate around one fixed mean",
    "ses": "the level drifts slowly; no trend or seasonality",
    "theta": "a linear trend plus a slowly adapting level",
    "autoets": "level/trend/season evolve by exponential smoothing, additive errors",
    "autoarima": "autocorrelated errors remain after differencing away trend",
    "croston": "intermittent demand; sizes and intervals smoothed separately",
    "adida": "intermittent demand; forecast at an aggregated time scale",
}

SEASONAL_GATE = 0.6
TREND_GATE = 0.6
INTERMITTENCY_GATE = 0.3
MAX_QUERY_HORIZON_FACTOR = 4


def _num(value) -> str:
    return "n/a" if value is None else f"{value:.4g}"


@dataclass(frozen=True)
class Candidate:
    """A model alias plus the one-line assumption it stands on."""

    alias: str
    note: str


@dataclass(frozen=True)
class AgentConfig:
    """Pipeline knobs.  ``n_jobs`` changes nothing here, since the shortlist
    is builtin models only; it stays because ``bench/layers.py`` reads it."""

    mode: str = "deterministic"
    budget: int = 5
    n_windows: int = 1
    step: int | None = None
    levels: tuple[float, ...] | None = DEFAULT_LEVELS
    n_jobs: int = 1

    def __post_init__(self):
        if self.mode not in ("deterministic", "llm"):
            raise ConfigError(f"mode must be 'deterministic' or 'llm', got {self.mode!r}")
        if self.budget < 1:
            raise ConfigError(f"candidate budget must be >= 1, got {self.budget}")
        if self.n_windows < 1:
            raise ConfigError(f"n_windows must be >= 1, got {self.n_windows}")
        if self.step is not None and self.step < 1:
            raise ConfigError(f"step must be >= 1, got {self.step}")


@dataclass(frozen=True)
class FeatureProfile:
    """Panel-level summary the planner rules consume.

    Per-series diagnostics are averaged (ignoring series whose feature
    precondition failed), ``n`` is the shortest series, and one
    non-stationary series marks the whole panel non-stationary.
    """

    n: int
    season_length: int
    trend_strength: float
    seasonal_strength: float
    intermittency: float
    kpss_nonstationary: bool


def profile_features(features: FeatureReport) -> FeatureProfile:
    rows = [row for _, row in features.items()]
    if not rows:
        raise ConfigError("cannot profile an empty feature report")

    def mean_of(name):
        values = [getattr(r, name) for r in rows if getattr(r, name) is not None]
        return float(np.mean(values)) if values else 0.0

    nonstationary = any(r.kpss_level_stationary is False for r in rows)
    return FeatureProfile(
        n=min(r.n for r in rows),
        season_length=rows[0].season_length,
        trend_strength=mean_of("trend_strength"),
        seasonal_strength=mean_of("seasonal_strength"),
        intermittency=mean_of("intermittency"),
        kpss_nonstationary=nonstationary,
    )


def _rule_table(profile: FeatureProfile) -> list[str]:
    """Fixed-priority shortlist: seasonal, intermittent, trended, baseline."""
    m = profile.season_length
    picks: list[str] = []
    if profile.seasonal_strength >= SEASONAL_GATE and profile.n >= 2 * m:
        picks += ["seasonalnaive", "autoets", "theta"]
    intermittent = profile.intermittency >= INTERMITTENCY_GATE
    if intermittent:
        picks += ["croston", "adida"]
    if profile.kpss_nonstationary or profile.trend_strength >= TREND_GATE:
        picks += ["autoets", "autoarima", "theta"]
    picks.append("naive")
    if profile.n >= arima.MIN_OBS and not intermittent and "autoarima" not in picks:
        picks.append("autoarima")
    ordered = list(dict.fromkeys(picks))
    if ordered == ["naive"]:
        ordered.append("ses")
    return ordered


def _propose_tool(registry, budget) -> ToolSpec:
    return ToolSpec(
        name="propose_models",
        description=(
            f"Propose up to {budget} candidate forecasting model aliases from "
            "the allowed list, simplest plausible baselines first."
        ),
        parameters={
            "type": "object",
            "properties": {
                "candidates": {
                    "type": "array",
                    "items": {"type": "string", "enum": sorted(registry)},
                }
            },
            "required": ["candidates"],
        },
    )


def _profile_text(profile: FeatureProfile) -> str:
    return (
        f"n={profile.n}, season_length={profile.season_length}, "
        f"trend_strength={_num(profile.trend_strength)}, "
        f"seasonal_strength={_num(profile.seasonal_strength)}, "
        f"intermittency={_num(profile.intermittency)}, "
        f"kpss_nonstationary={str(profile.kpss_nonstationary).lower()}"
    )


def _ask(llm_config, transport, system, user, tools=()):
    """The reply to one system + user exchange: a ToolCall when ``tools``
    are offered, else the stripped text; None (the caller falls back to its
    deterministic result) for any other reply, empty text or a ProtocolError."""
    try:
        reply = llm_chat(llm_config, system, user, tools, transport)
    except ProtocolError:
        return None
    if tools:
        return reply if isinstance(reply, ToolCall) else None
    return (reply.strip() or None) if isinstance(reply, str) else None


def _llm_candidates(profile, budget, llm_config, transport):
    """Validated LLM shortlist, or None when the reply is unusable."""
    registry = available_models()
    reply = _ask(
        llm_config, transport,
        "You shortlist univariate forecasting models. Call the "
        "propose_models tool with aliases from the allowed list only, "
        "starting from simple statistical baselines.",
        f"Series diagnostics: {_profile_text(profile)}. "
        f"Allowed aliases: {', '.join(sorted(registry))}.",
        tools=(_propose_tool(registry, budget),),
    )
    if reply is None or reply.name != "propose_models":
        return None
    raw = reply.arguments.get("candidates")
    if not isinstance(raw, list):
        return None
    valid = [a for a in raw if isinstance(a, str) and a in registry]
    aliases = list(dict.fromkeys(valid))
    return aliases or None


def propose_candidates(features, config: AgentConfig | None = None) -> list[Candidate]:
    """The rule table's ordered model shortlist for the given diagnostics.

    ``features`` may be a FeatureReport or an already-built FeatureProfile.
    Always returns at least one candidate, truncated to the budget.
    """
    config = config or AgentConfig()
    profile = (
        features if isinstance(features, FeatureProfile) else profile_features(features)
    )
    return [Candidate(a, ASSUMPTION_NOTES[a]) for a in _rule_table(profile)[: config.budget]]


def _leaderboard_rows(leaderboard: EvalReport) -> list[dict]:
    """The leaderboard as JSON rows: model, rank, MASE and CRPS."""
    return [{"model": s.model, "rank": s.rank, "mase": s.mase, "crps": s.crps}
            for s in leaderboard.scores]


@dataclass(frozen=True)
class AgentResult:
    """Everything the pipeline produced, in the order it was produced."""

    features: FeatureReport
    candidates: tuple[Candidate, ...]
    leaderboard: EvalReport
    selected: str
    rationale: str
    frame: ForecastFrame
    explanation: str
    user_query_response: str
    trace: tuple[str, ...]
    h: int

    def __post_init__(self):
        if self.selected not in self.leaderboard.ranking():
            raise ValueError(f"selected model {self.selected!r} missing from leaderboard")
        if not self.trace:
            raise ValueError("trace must be non-empty")

    def to_json(self) -> str:
        payload = {
            "h": self.h,
            "selected": self.selected,
            "rationale": self.rationale,
            "explanation": self.explanation,
            "user_query_response": self.user_query_response,
            "candidates": [{"alias": c.alias, "note": c.note} for c in self.candidates],
            "leaderboard": _leaderboard_rows(self.leaderboard),
            "forecast": {
                key: {
                    "ds": [format_timestamp(ts) for ts in entry.timestamps],
                    "mean": [float(v) for v in entry.mean],
                }
                for key, entry in self.frame.items()
            },
            "trace": list(self.trace),
        }
        return json.dumps(payload, indent=2)


_NEXT_RE = re.compile(r"next\s+(\d+)")


def _horizon_from_query(query: str, season_length: int) -> int | None:
    match = _NEXT_RE.search(query.lower())
    if not match:
        return None
    value = int(match.group(1))
    if 1 <= value <= MAX_QUERY_HORIZON_FACTOR * season_length:
        return value
    return None


def _pooled_steps(frame: ForecastFrame, n: int):
    """Point forecasts of the first n steps, summed across series per step."""
    keys = frame.keys()
    stacked = np.stack([frame[key].mean[:n] for key in keys], axis=0)
    return stacked.sum(axis=0)


def _extreme(frame: ForecastFrame, take_max: bool):
    best = None
    for key, entry in frame.items():
        idx = int(np.argmax(entry.mean) if take_max else np.argmin(entry.mean))
        value = float(entry.mean[idx])
        if best is None or (value > best[0] if take_max else value < best[0]):
            best = (value, key, entry.timestamps[idx])
    return best


def _default_summary(frame: ForecastFrame) -> str:
    h = frame.horizon()
    total = float(_pooled_steps(frame, h).sum())
    mx = _extreme(frame, take_max=True)
    mn = _extreme(frame, take_max=False)
    multi = len(frame) > 1
    where_max = f" ({mx[1]})" if multi else ""
    where_min = f" ({mn[1]})" if multi else ""
    text = (
        f"Forecast summary for the next {h} periods: total {total:,.0f}, "
        f"minimum {mn[0]:,.2f} at {format_timestamp(mn[2])}{where_min}, "
        f"maximum {mx[0]:,.2f} at {format_timestamp(mx[2])}{where_max}."
    )
    if frame.levels is not None and len(frame.levels) >= 2:
        lo, hi = frame.levels[0], frame.levels[-1]
        band = round((hi - lo) * 100)
        widest = None
        for key, entry in frame.items():
            widths = entry.quantiles[:, -1] - entry.quantiles[:, 0]
            k = int(np.argmax(widths))
            if widest is None or widths[k] > widest[0]:
                widest = (float(widths[k]), k + 1, entry.timestamps[k])
        text += (
            f" The widest {band}% interval is {widest[0]:,.2f} at step {widest[1]} "
            f"({format_timestamp(widest[2])})."
        )
    return text


def _llm_answer(query, frame, llm_config, transport):
    table = [frame.csv_header()] + frame.to_csv_rows()
    return _ask(
        llm_config, transport,
        "Answer the user's question about the forecast table. Cite "
        "only numbers present in the table; do not invent values.",
        "Forecast table:\n" + "\n".join(table) + f"\n\nQuestion: {query}",
    )


def answer_query(
    query: str | None,
    frame: ForecastFrame,
    llm_config: LLMConfig | None = None,
    transport=None,
) -> str:
    """Natural-language answer about the forecast.

    Deterministic grammar: "how many"/"total" sums the first N point
    forecasts ("next N" in the query, defaulting to the full horizon),
    "average" takes their mean, "peak"/"max" reports the maximum and its
    timestamp; anything else gets the templated summary.
    """
    if frame is None:
        raise ValueError("a forecast is required before answering queries")
    text = (query or "").strip()
    if llm_config is not None and text:
        answered = _llm_answer(text, frame, llm_config, transport)
        if answered is not None:
            return answered
    if not text:
        return _default_summary(frame)
    q = text.lower()
    h = frame.horizon()
    n = _NEXT_RE.search(q)
    n = max(1, min(int(n.group(1)), h)) if n and int(n.group(1)) > 0 else h

    if "how many" in q or "total" in q or "sum" in q:
        total = float(_pooled_steps(frame, n).sum())
        return f"Approximately {total:,.0f} in total over the next {n} periods."
    if "average" in q or "mean" in q:
        average = float(np.mean([frame[key].mean[:n] for key in frame.keys()]))
        return f"An average of {average:,.2f} per period over the next {n} periods."
    if "peak" in q or "max" in q or "highest" in q:
        value, key, ts = _extreme(frame, take_max=True)
        where = f" (series {key})" if len(frame) > 1 else ""
        return f"The peak is {value:,.2f} at {format_timestamp(ts)}{where}."
    return _default_summary(frame)


def _interval_width(frame: ForecastFrame) -> float | None:
    if frame.levels is None or 0.1 not in frame.levels or 0.9 not in frame.levels:
        return None
    lo = frame.levels.index(0.1)
    hi = frame.levels.index(0.9)
    widths = [entry.quantiles[:, hi] - entry.quantiles[:, lo] for _, entry in frame.items()]
    return float(np.mean(np.concatenate(widths)))


def _rationale(leaderboard: EvalReport) -> str:
    metric = leaderboard.ranked_by
    winner = leaderboard.scores[0]
    value = winner.crps if metric == "crps" else winner.mase
    lead = f"{winner.model} ranked first by {metric} ({_num(value)})"
    if len(leaderboard.scores) > 1:
        runner = leaderboard.scores[1]
        rv = runner.crps if metric == "crps" else runner.mase
        if value is not None and rv is not None:
            return f"{lead}, ahead of {runner.model} ({_num(rv)}) by {_num(rv - value)}"
        return f"{lead}, ahead of {runner.model}"
    return f"{lead} as the only evaluated candidate"


def _deterministic_explanation(profile, leaderboard, frame, h, config, n_series):
    parts = [
        f"Analyzed {n_series} series with season length {profile.season_length}: "
        f"trend strength {_num(profile.trend_strength)}, seasonal strength "
        f"{_num(profile.seasonal_strength)}, intermittency {_num(profile.intermittency)}.",
        f"Cross-validated {len(leaderboard.scores)} candidate(s) over "
        f"{config.n_windows} fold(s) at horizon {h}.",
        f"{_rationale(leaderboard)}.",
    ]
    width = _interval_width(frame)
    if width is not None:
        parts.append(f"The central 80% interval averages {_num(width)} wide over the horizon.")
    return " ".join(parts)


def _llm_explanation(profile, leaderboard, frame, h, llm_config, transport):
    context = {
        "profile": _profile_text(profile),
        "horizon": h,
        "leaderboard": _leaderboard_rows(leaderboard),
        "interval_width_80pct": _interval_width(frame),
    }
    return _ask(
        llm_config, transport,
        "Write a short forecast explanation. Use only the numbers in "
        "the context block; never invent or recompute values.",
        json.dumps(context, indent=2),
    )


def run_agent(
    panel: SeriesPanel,
    query: str | None = None,
    h: int | None = None,
    config: AgentConfig | None = None,
    llm_config: LLMConfig | None = None,
    transport=None,
) -> AgentResult:
    """Profile, shortlist, cross-validate, select, forecast, answer.

    Deterministic mode performs zero network requests and is a pure
    function of (panel, query, h, config).  The horizon comes from the
    explicit argument, then (LLM mode) "next N" in the query capped at 4
    season lengths, then the season length itself.
    """
    config = config or AgentConfig()
    if config.mode == "llm" and llm_config is None:
        raise ConfigError("llm mode requires an LLM configuration")
    if config.mode != "llm":
        llm_config = None  # deterministic mode never calls the model
    if len(panel) == 0:
        raise ConfigError("cannot run the agent on an empty panel")

    m = panel.season_length
    if h is None and config.mode == "llm" and query:
        h = _horizon_from_query(query, m)
    if h is None:
        h = m
    if h < 1:
        raise ConfigError(f"horizon must be >= 1, got {h}")

    trace: list[str] = []
    features = compute_features(panel)
    profile = profile_features(features)
    trace.append(
        f"features: profiled {len(features)} series; "
        f"trend={_num(profile.trend_strength)} "
        f"seasonal={_num(profile.seasonal_strength)} "
        f"intermittency={_num(profile.intermittency)} "
        f"nonstationary={str(profile.kpss_nonstationary).lower()}"
    )

    aliases = llm_config and _llm_candidates(profile, config.budget, llm_config, transport)
    if aliases:
        candidates = [Candidate(a, ASSUMPTION_NOTES[a]) for a in aliases[: config.budget]]
    else:
        candidates = propose_candidates(profile, config)
    source = "llm" if aliases else "rule table"
    trace.append(f"candidates: {', '.join(c.alias for c in candidates)} [{source}]")

    cv = cross_validate(
        panel,
        [c.alias for c in candidates],
        h,
        n_windows=config.n_windows,
        step=config.step,
        levels=config.levels,
        n_jobs=config.n_jobs,
    )
    trace.append(
        f"cv: {len(cv)} rows, {config.n_windows} fold(s) at h={h}, "
        f"{int(cv.failed.sum())} failed fold(s)"
    )
    if cv.failed.all():
        raise AgentError(
            f"all {len(candidates)} candidate(s) failed cross-validation", trace
        )

    leaderboard = aggregate_leaderboard(cv, panel)
    selected = leaderboard.scores[0].model
    rationale = _rationale(leaderboard)
    trace.append(f"select: {rationale}")

    frame = get_model(selected).forecast(panel, h, config.levels)
    monotone = frame.levels is not None
    if monotone:
        frame = monotonize_quantiles(frame)
    trace.append(
        f"forecast: {selected} refit on full history, h={h}, "
        f"quantiles {'monotonized' if monotone else 'absent'}"
    )

    explanation = (
        llm_config is not None
        and _llm_explanation(profile, leaderboard, frame, h, llm_config, transport)
    ) or _deterministic_explanation(profile, leaderboard, frame, h, config, len(features))
    response = answer_query(query, frame, llm_config, transport)
    trace.append(f"answer: {'query answered' if query else 'default summary'}")

    return AgentResult(
        features=features,
        candidates=tuple(candidates),
        leaderboard=leaderboard,
        selected=selected,
        rationale=rationale,
        frame=frame,
        explanation=explanation,
        user_query_response=response,
        trace=tuple(trace),
        h=h,
    )
