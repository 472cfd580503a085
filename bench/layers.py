"""The traced run: every layer once, with spans around each call into it.

Sections run in this order, each under its own run id: ``setup``,
``models`` (which also warms every model's code paths), ``agent``,
``panel_cv`` and ``remote_cv``.  The agent replay and the remote_cv
pass run once with tracing off and once with it on; the difference of
their wall times is the tracing overhead.  (The 8 s panel_cv pass runs
traced only, to keep the run short.)  Per-layer metrics are read off
the spans afterwards.
"""

from __future__ import annotations

import io
import statistics
import time
import tracemalloc

import numpy as np

from agentcast import DEFAULT_LEVELS, Series, SeriesPanel, frames_to_csv, parse_panel
from agentcast.adapters import parse_model_alias, remote_forecast, resolve_model
from agentcast.agent import AgentConfig, answer_query, propose_candidates, run_agent
from agentcast.datasets import load_air_passengers
from agentcast.ensemble import median_ensemble, monotonize_quantiles
from agentcast.evaluation import aggregate_leaderboard, cross_validate, rolling_cutoffs
from agentcast.features import compute_features
from agentcast.models import available_models, get_model

import gen
from tracing import Tracer
from workloads import (
    AP_LABEL,
    H,
    PANEL_CV_MODELS,
    WINDOWS,
    Checks,
    CsvLedger,
    builtin_reference,
    check_panel_cv,
    check_remote,
    failed_folds,
    frame_is_sound,
    measure_setup,
    panel_cv_pass,
    remote_pass,
    start_stub,
)

ROUND_TRIPS = 40
ALLOC_SERIES = 50  # of the 500 panel_cv series
ENSEMBLE_MEMBERS = ("naive", "seasonalnaive", "historicaverage")


def wall(fn):
    """(result, seconds) of one call."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def agent_replay(panel, tracer: Tracer) -> dict:
    """run_agent's stages in its order, each through its public function."""
    config = AgentConfig()
    with tracer.span("agent.replay"):
        with tracer.span("features.compute_features"):
            features = compute_features(panel)
        with tracer.span("agent.propose_candidates"):
            candidates = propose_candidates(features, config)
        with tracer.span("evaluation.cross_validate"):
            cv = cross_validate(
                panel,
                [c.alias for c in candidates],
                H,
                n_windows=config.n_windows,
                step=config.step,
                levels=config.levels,
                n_jobs=config.n_jobs,
            )
        with tracer.span("evaluation.aggregate_leaderboard"):
            board = aggregate_leaderboard(cv, panel)
        selected = board.scores[0].model
        with tracer.span("models.forecast"):
            frame = get_model(selected).forecast(panel, H, config.levels)
        if frame.levels is not None:
            with tracer.span("ensemble.monotonize_quantiles"):
                frame = monotonize_quantiles(frame)
        with tracer.span("agent.answer_query"):
            answer = answer_query(None, frame)
    return {
        "candidates": candidates,
        "cv": cv,
        "selected": selected,
        "frame": frame,
        "answer": answer,
    }


class Sweep:
    def __init__(self, src, seed: int, checks: Checks):
        self.src = src
        self.seed = seed
        self.checks = checks
        self.ledger = CsvLedger(checks)
        self.tracer = Tracer()
        self.metrics: dict[str, float] = {}
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.folds = 0
        self.failed = 0
        self.ap = load_air_passengers()

    def compare(self, run, fn):
        """Run ``fn(tracer)`` untraced, then traced; returns the traced result."""
        _, off = wall(lambda: fn(Tracer(enabled=False)))
        with self.tracer.run(run):
            result, on = wall(lambda: fn(self.tracer))
        self.untraced_s += off
        self.traced_s += on
        return result

    def count_folds(self, cv, folds: int) -> None:
        self.folds += folds
        self.failed += failed_folds(cv)

    def run(self) -> dict[str, float]:
        self.setup()
        self.models()
        self.agent()
        self.panel_cv()
        self.remote_cv()
        m = self.metrics
        m["evaluation.folds"] = self.folds
        m["evaluation.failed_folds"] = self.failed
        m["evaluation.fold_success_ratio"] = (self.folds - self.failed) / self.folds
        m["trace.overhead_ms"] = (self.traced_s - self.untraced_s) * 1000.0
        m["trace.spans"] = len(self.tracer.spans)
        m["error_rate"] = self.checks.error_rate
        return m

    def setup(self) -> None:
        with self.tracer.run("setup"), self.tracer.span("setup.probe"):
            _, reports = measure_setup("remote_cv", self.src, samples=1)
        self.metrics["setup.import_s"] = statistics.median(r["import_s"] for r in reports)
        self.metrics["setup.stub_start_ms"] = statistics.median(
            r["stub_start_ms"] for r in reports
        )

    def models(self) -> None:
        synthetic = parse_panel(io.StringIO(gen.model_series_csv(self.seed)))
        fallbacks = 0
        with self.tracer.run("models"):
            for alias in available_models():
                for label, panel, metric in (
                    (AP_LABEL, self.ap, "forecast_ms"),
                    ("synthetic", synthetic, "synthetic_forecast_ms"),
                ):
                    with self.tracer.span(f"models.{alias}.forecast"):
                        frame = get_model(alias).forecast(panel, H, DEFAULT_LEVELS)
                    span = self.tracer.spans[-1]
                    self.metrics[f"models.{alias}.{metric}"] = span.duration * 1000.0
                    fallbacks += sum(entry.fallback for _, entry in frame.items())
                    finite, _ = frame_is_sound(frame)
                    self.checks.check(finite, f"models: {alias} on {label} not finite")
        self.metrics["models.fallbacks"] = fallbacks

    def agent(self) -> None:
        ap = self.ap
        result, run_agent_s = wall(lambda: run_agent(ap, h=H))
        replay = self.compare("agent", lambda tracer: agent_replay(ap, tracer))
        top = self.tracer.find("agent.replay", "agent")[0]
        stages = sum(child.duration for child in self.tracer.children(top))
        csv = frames_to_csv([result.frame])
        with self.tracer.run("agent"), self.tracer.span("panel.frames_to_csv"):
            replay_csv = frames_to_csv([replay["frame"]])
        c = self.checks
        c.check(replay["selected"] == result.selected, "agent replay selected another model")
        c.check(replay_csv == csv, "agent replay frame differs from run_agent's")
        c.check(replay["answer"] == result.user_query_response, "agent replay answer differs")
        finite, monotone = frame_is_sound(replay["frame"])
        c.check(finite and monotone, "agent replay frame not finite and monotone")
        self.ledger.record(f"agent/{AP_LABEL}", csv)
        self.count_folds(replay["cv"], len(replay["candidates"]) * len(ap))
        self.metrics["models.fallbacks"] += sum(e.fallback for _, e in replay["frame"].items())

        m, t = self.metrics, self.tracer.seconds
        m["agent.untraced_ms"] = (run_agent_s - stages) * 1000.0
        m["agent.propose_candidates_ms"] = t("agent.propose_candidates", "agent") * 1000.0
        m["agent.answer_query_ms"] = t("agent.answer_query", "agent") * 1000.0
        m["agent.candidates"] = len(replay["candidates"])
        m["panel.frames_to_csv_ms"] = t("panel.frames_to_csv", "agent") * 1000.0
        m["evaluation.cross_validate_s.agent"] = t("evaluation.cross_validate", "agent")
        config = AgentConfig()
        for alias in available_models():
            run = f"agent.cv.{alias}"
            with self.tracer.run(run), self.tracer.span("evaluation.cross_validate"):
                cross_validate(ap, [alias], H, n_windows=config.n_windows, levels=config.levels)
            m[f"evaluation.agent_cv_s.{alias}"] = t("evaluation.cross_validate", run)

    def panel_cv(self) -> None:
        text = gen.cv_panel_csv(self.seed)
        with self.tracer.run("panel_cv"):
            out = panel_cv_pass(text, self.tracer)
        check_panel_cv(out, self.checks, self.ledger, full=True)
        panel = out["panel"]
        self.count_folds(out["cv"], len(PANEL_CV_MODELS) * len(panel) * WINDOWS)
        del out

        m, t = self.metrics, self.tracer.seconds
        cv_s = t("evaluation.cross_validate", "panel_cv")
        m["panel.parse_panel_s"] = t("panel.parse_panel", "panel_cv")
        m["features.compute_features_s"] = t("features.compute_features", "panel_cv")
        m["evaluation.cross_validate_s.panel_cv"] = cv_s
        m["evaluation.aggregate_leaderboard_s"] = t("evaluation.aggregate_leaderboard", "panel_cv")
        m["evaluation.cv_to_csv_s"] = t("evaluation.cv_to_csv", "panel_cv")
        m["evaluation.leaderboard_to_csv_ms"] = (
            t("evaluation.leaderboard_to_csv", "panel_cv") * 1000.0
        )

        # The same forecasts made directly on training panels built up front:
        # what CV spends beyond them is its per-fold overhead.
        training = []
        for key, series in panel.items():
            for cutoff in rolling_cutoffs(len(series), H, WINDOWS).cutoffs:
                part = Series(series.timestamps[:cutoff], series.values[:cutoff])
                training.append(SeriesPanel({key: part}, panel.freq))
        forecasters = [resolve_model(spec) for spec in PANEL_CV_MODELS]
        with self.tracer.run("panel_cv.direct"), self.tracer.span("models.forecast"):
            for forecaster in forecasters:
                for part in training:
                    forecaster.forecast(part, H, DEFAULT_LEVELS)
        direct_s = t("models.forecast", "panel_cv.direct")
        folds = len(forecasters) * len(training)
        m["evaluation.fold_overhead_ms"] = (cv_s - direct_s) / folds * 1000.0
        del training

        # tracemalloc slows CV about sixfold, so it watches a slice of the panel.
        keys = panel.keys()[:ALLOC_SERIES]
        subset = SeriesPanel({key: panel[key] for key in keys}, panel.freq)
        tracemalloc.start()
        try:
            with self.tracer.run("panel_cv.tracemalloc"), self.tracer.span(
                "evaluation.cross_validate"
            ):
                cross_validate(subset, list(PANEL_CV_MODELS), H, n_windows=WINDOWS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m["evaluation.cv_alloc_peak_mb"] = peak / 2**20

        with self.tracer.run("panel_cv.n_jobs2"), self.tracer.span("evaluation.cross_validate"):
            pooled = cross_validate(
                panel, list(PANEL_CV_MODELS), H, n_windows=WINDOWS, n_jobs=2
            )
        self.ledger.record("panel_cv/crossval", pooled.to_csv())
        del pooled
        m["evaluation.pool_speedup.panel_cv"] = cv_s / t(
            "evaluation.cross_validate", "panel_cv.n_jobs2"
        )

        with self.tracer.run("ensemble"):
            members = [get_model(a).forecast(panel, H, DEFAULT_LEVELS) for a in ENSEMBLE_MEMBERS]
            with self.tracer.span("ensemble.median_ensemble"):
                combined = median_ensemble(members)
            with self.tracer.span("ensemble.monotonize_quantiles"):
                monotone = monotonize_quantiles(combined)
        changed = rows = 0
        for key, entry in combined.items():
            changed += int(np.any(entry.quantiles != monotone[key].quantiles, axis=1).sum())
            rows += entry.quantiles.shape[0]
        finite, ordered = frame_is_sound(monotone)
        self.checks.check(finite and ordered, "ensemble output not finite and monotone")
        m["ensemble.median_ensemble_ms"] = t("ensemble.median_ensemble", "ensemble") * 1000.0
        m["ensemble.monotonize_quantiles_ms"] = (
            t("ensemble.monotonize_quantiles", "ensemble") * 1000.0
        )
        m["ensemble.pava_rows_changed_ratio"] = changed / rows

    def remote_cv(self) -> None:
        panel = parse_panel(io.StringIO(gen.remote_panel_csv(self.seed)))
        reference = builtin_reference(panel)
        with self.tracer.run("remote_cv"), self.tracer.span("adapters.serve_stub"):
            stub = start_stub()
        try:
            self._remote(panel, stub, reference)
        finally:
            stub.close()

    def _remote(self, panel, stub, reference) -> None:
        m, t = self.metrics, self.tracer.seconds
        out = self.compare("remote_cv", lambda tracer: remote_pass(panel, stub, tracer))
        check_remote(out, panel, stub, reference, self.checks, self.ledger)
        forecasts = len(panel) * WINDOWS
        self.count_folds(out["cv"], forecasts)
        m["adapters.requests"] = out["requests"]
        m["adapters.requests_per_forecast"] = out["requests"] / forecasts
        cv_s = t("evaluation.cross_validate", "remote_cv")
        m["evaluation.cross_validate_s.remote_cv"] = cv_s

        with self.tracer.run("remote_cv.n_jobs1"):
            serial = remote_pass(panel, stub, self.tracer, n_jobs=1)
        check_remote(serial, panel, stub, reference, self.checks, self.ledger)
        serial_s = t("evaluation.cross_validate", "remote_cv.n_jobs1")
        m["evaluation.pool_speedup.remote_cv"] = serial_s / cv_s

        spec = parse_model_alias(f"adapter:{stub.url}")
        singles = [SeriesPanel({k: panel[k]}, panel.freq) for k in panel.keys()[:ROUND_TRIPS]]
        before = stub.request_count
        with self.tracer.run("remote_cv.round_trip"):
            for single in singles:
                with self.tracer.span("adapters.remote_forecast"):
                    remote_forecast(spec, single, H, DEFAULT_LEVELS)
        self.checks.check(
            stub.request_count - before == len(singles), "round trips: retries or lost requests"
        )
        trips = self.tracer.find("adapters.remote_forecast", "remote_cv.round_trip")
        m["adapters.round_trip_ms_p50"] = statistics.median(s.duration for s in trips) * 1000.0
