"""The three workloads: their passes, their output checks and their timed runs.

Every call into the package goes through the public API.  A pass takes
a ``Tracer``; timed runs pass a disabled one, so the timed and the traced
runs execute the same code.  All load is closed-loop from this one
process: the next call starts when the previous one returned.

``latency_p50_s`` is scaled to a nominal host speed (see ``HostSpeed``);
the wall times are printed next to it.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from agentcast import frames_to_csv, parse_panel
from agentcast.adapters import serve_stub
from agentcast.agent import run_agent
from agentcast.datasets import load_air_passengers
from agentcast.evaluation import aggregate_leaderboard, cross_validate
from agentcast.features import compute_features

import gen
from tracing import Tracer

H = 12
WINDOWS = 3
AP_LABEL = "AirPassengers"
AP_TOTAL = 5919.0  # acceptance criterion 01: 12-step total within 10 %
AP_TOLERANCE = 0.10
AP_REPEATS = 4  # AirPassengers calls before each seeded panel
PANEL_CV_MODELS = (
    "naive",
    "seasonalnaive",
    "historicaverage",
    "croston",
    "median_ensemble:naive+seasonalnaive+historicaverage",
)
REMOTE_ALIAS = "seasonalnaive"
REMOTE_DELAY_S = 0.005  # stands in for remote inference
REMOTE_JOBS = 2  # nproc on the reference machine
SETUP_SAMPLES = 3

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Other tenants of the shared host change this machine's speed by up to
# 1.8x over seconds to minutes (identical run_agent calls take 1.4-2.6 s,
# with no steal time), so the median of a run follows the host, not the
# program.  ``HostSpeed`` reads the host speed during a measured interval
# by timing a fixed reference kernel a few times at each end and, from a
# SIGALRM timer, every SAMPLE_EVERY_S inside it; a time scaled by
# REF_NOMINAL_S over the kernel's mean is the time the work would take at
# a host speed where the kernel takes REF_NOMINAL_S.  On repeated panel_cv
# passes the spread of the pass times fell from 0.14 of their median to
# 0.04 (0.12 with samples at the ends only).  The kernel mixes interpreter
# work and small numpy operations like the package's models, and calls
# nothing from the package, so a change to the package moves the scaled
# times as it moves the wall times.
REF_NOMINAL_S = 0.0025  # one kernel run, about its median on the baseline host
SAMPLE_EVERY_S = 0.1
EDGE_SAMPLES = 8  # kernel runs before and after an interval
_REF_SERIES = np.random.default_rng(0).normal(size=144)


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    started = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    x = _REF_SERIES
    for _ in range(100):
        y = np.cumsum(x) * 0.5 + x[::-1]
        y.sum()
        np.diff(y)
    return time.perf_counter() - started


class HostSpeed:
    """Samples the reference kernel around and, if ``during``, inside a ``with`` block.

    The samples inside the block run on this process's main thread, so
    work done in this process is delayed by their sum, ``inside``.  Where
    other threads of this process do the work, a sample also waits for
    them to let go of the interpreter lock and reads their load, not the
    host's: sample at the ends only.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: list[float] = []
        self.inside = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(reference_s())

    def __enter__(self):
        self.samples = [reference_s() for _ in range(EDGE_SAMPLES)]
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.inside = sum(self.samples[EDGE_SAMPLES:])
        self.samples += [reference_s() for _ in range(EDGE_SAMPLES)]

    def scale(self, seconds: float) -> float:
        """``seconds`` at nominal host speed."""
        return seconds * REF_NOMINAL_S / statistics.fmean(self.samples)


def timed(fn, during: bool = True):
    """(result, seconds, its ``HostSpeed``) of one call of ``fn``.

    The seconds leave out the reference samples taken during the call.
    """
    with HostSpeed(during) as speed:
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
    return result, elapsed - speed.inside, speed


class Checks:
    """Operations attempted and failed; a failed fold or check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed += 1
            print(f"CHECK FAILED: {what}", flush=True)

    def crashed(self, what: str) -> None:
        traceback.print_exc()
        self.check(False, f"{what} raised")

    @property
    def correct(self) -> bool:
        return self.checks_failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


def frame_is_sound(frame) -> tuple[bool, bool]:
    """(every number finite, every quantile row nondecreasing)."""
    finite = monotone = True
    for _, entry in frame.items():
        finite &= bool(np.all(np.isfinite(entry.mean)))
        if entry.quantiles is not None:
            finite &= bool(np.all(np.isfinite(entry.quantiles)))
            monotone &= bool(np.all(np.diff(entry.quantiles, axis=1) >= 0.0))
    return finite, monotone


def failed_folds(cv) -> int:
    return len({(r.model, r.key, r.cutoff) for r in cv.rows if r.failed})


class CsvLedger:
    """Prints the SHA-256 of each emitted CSV once and checks repeats are identical."""

    def __init__(self, checks: Checks):
        self.checks = checks
        self.first: dict[str, str] = {}

    def record(self, name: str, text: str) -> None:
        digest = sha256(text)
        if name not in self.first:
            self.first[name] = digest
            print(f"csv {name} sha256={digest} bytes={len(text)}", flush=True)
        else:
            self.checks.check(
                digest == self.first[name], f"{name}: repeated pass emitted different CSV"
            )


# --------------------------------------------------------------------- set-up


def measure_setup(
    workload: str, src: Path, input_path: Path | None = None, samples: int = SETUP_SAMPLES
):
    """Median seconds from interpreter start to the end of workload set-up.

    Each sample is a fresh interpreter (``setup_probe.py``); input
    generation happened before, in this process, and is not counted.
    Returns (median seconds, the probe reports).  These are wall times:
    scaling them by host speed (see ``HostSpeed``) widened their spread,
    as a start-up in another process does not follow the speed that
    samples taken in this one read.
    """
    args = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src), workload]
    if input_path is not None:
        args.append(str(input_path))
    times, reports = [], []
    for _ in range(samples):
        started = time.perf_counter()
        with subprocess.Popen(args, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - started)
            child.stdout.read()
            if child.wait(timeout=120) != 0 or not line:
                raise RuntimeError(f"set-up probe for {workload} failed")
        reports.append(json.loads(line))
    return statistics.median(times), reports


def write_input(name: str, text: str) -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"{name}-{os.getpid()}.csv"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------- agent


def agent_sequence(ap, seeded):
    """AirPassengers four times, then the next seeded panel, forever.

    Scaled AirPassengers calls still vary by about 15 % from call to call
    on a shared 2-core machine, so a run needs several of them for a
    steady p50; a seasonal or trended panel takes 2-3 times as long.
    """
    for k in itertools.count():
        for _ in range(AP_REPEATS):
            yield AP_LABEL, "airpassengers", ap
        profile, label, panel = seeded[k % len(seeded)]
        yield label, profile, panel


def check_agent_result(label, panel, result, checks: Checks, ledger: CsvLedger):
    checks.ops(
        len(result.candidates) * len(panel),
        sum(score.failures for score in result.leaderboard.scores),
    )
    finite, monotone = frame_is_sound(result.frame)
    checks.check(finite, f"{label}: non-finite forecast")
    checks.check(monotone, f"{label}: quantile row not monotone")
    if label == AP_LABEL:
        total = float(sum(entry.mean.sum() for _, entry in result.frame.items()))
        checks.check(
            abs(total - AP_TOTAL) <= AP_TOLERANCE * AP_TOTAL,
            f"{label}: 12-step total {total:.1f} not within 10 % of {AP_TOTAL:.0f}",
        )
    ledger.record(f"agent/{label}", frames_to_csv([result.frame]))


def timed_agent(inputs, seconds: float, checks: Checks) -> dict:
    seeded = [
        (profile, f"{profile}-{k:02d}", parse_panel(io.StringIO(text)))
        for k, (profile, text) in enumerate(inputs)
    ]
    ap = load_air_passengers()
    try:  # warm-up: the first call in a process pays one-off costs
        run_agent(ap, h=H)
    except Exception:
        pass  # the timed calls below fail the same way and are counted
    ledger = CsvLedger(checks)
    latencies: list[float] = []
    by_profile: dict[str, list[float]] = {}
    ap_scaled: list[float] = []
    deadline = time.perf_counter() + seconds
    for label, profile, panel in agent_sequence(ap, seeded):
        if time.perf_counter() >= deadline:
            break
        try:
            result, elapsed, speed = timed(lambda: run_agent(panel, h=H))
        except Exception:
            checks.crashed(f"run_agent on {label}")
            continue
        latencies.append(elapsed)
        by_profile.setdefault(profile, []).append(elapsed)
        if label == AP_LABEL:
            ap_scaled.append(speed.scale(elapsed))
        checks.ops(1)
        check_agent_result(label, panel, result, checks, ledger)
    print(f"agent call latencies (s): {[round(v, 4) for v in latencies]}")
    print(f"agent AirPassengers scaled latencies (s): {[round(v, 4) for v in ap_scaled]}")
    for profile, values in sorted(by_profile.items()):
        print(
            f"agent {profile}: p50 {statistics.median(values):.4f} s wall over "
            f"{len(values)} call(s)"
        )
    # The bounded metric is the p50 of the AirPassengers calls: their input
    # is the same for every seed, while a seeded panel's latency changes up
    # to tenfold with the seed (autoarima's search path follows the data).
    return {
        "latency_p50_s": statistics.median(ap_scaled or [float("nan")]),
        "headline": (
            "agent_latency_p50_s",
            statistics.median(latencies or [float("nan")]),
            "s",
            len(latencies),
        ),
    }


# ------------------------------------------------------------------- panel_cv


def panel_cv_pass(text: str, tracer: Tracer) -> dict:
    """CSV text in, both CSVs out: the pass that ``cv_evals_per_s`` times."""
    with tracer.span("panel.parse_panel"):
        panel = parse_panel(io.StringIO(text))
    with tracer.span("features.compute_features"):
        features = compute_features(panel)
    with tracer.span("evaluation.cross_validate"):
        cv = cross_validate(panel, list(PANEL_CV_MODELS), H, n_windows=WINDOWS)
    with tracer.span("evaluation.aggregate_leaderboard"):
        board = aggregate_leaderboard(cv, panel)
    with tracer.span("evaluation.cv_to_csv"):
        cv_buffer = io.StringIO()
        cv.to_csv(cv_buffer)
    with tracer.span("evaluation.leaderboard_to_csv"):
        board_buffer = io.StringIO()
        board.to_csv(board_buffer)
    return {
        "panel": panel,
        "features": features,
        "cv": cv,
        "board": board,
        "cv_csv": cv_buffer.getvalue(),
        "board_csv": board_buffer.getvalue(),
    }


def panel_cv_evals(panel) -> int:
    return len(PANEL_CV_MODELS) * len(panel) * WINDOWS


def check_panel_cv(out: dict, checks: Checks, ledger: CsvLedger, full: bool) -> None:
    """Row count, model coverage and identical bytes on every pass;
    finiteness and monotone quantiles row by row when ``full``."""
    panel, cv, board = out["panel"], out["cv"], out["board"]
    checks.ops(panel_cv_evals(panel), failed_folds(cv))
    checks.check(len(panel) == gen.PANEL_CV_SERIES, f"panel_cv: {len(panel)} series parsed")
    checks.check(len(out["features"]) == len(panel), "panel_cv: feature rows != series")
    want = panel_cv_evals(panel) * H
    checks.check(len(cv.rows) == want, f"panel_cv: {len(cv.rows)} CV rows, want {want}")
    checks.check(
        sorted(board.ranking()) == sorted(cv.model_names)
        and len(board.ranking()) == len(PANEL_CV_MODELS),
        "panel_cv: leaderboard does not list every model",
    )
    ledger.record("panel_cv/crossval", out["cv_csv"])
    ledger.record("panel_cv/leaderboard", out["board_csv"])
    if not full:
        return  # identical bytes to the fully checked first pass
    yhat = np.array([row.yhat for row in cv.rows])
    checks.check(bool(np.all(np.isfinite(yhat))), "panel_cv: non-finite point forecast")
    q = np.array([row.quantiles for row in cv.rows if row.quantiles is not None])
    checks.check(q.size > 0 and bool(np.all(np.isfinite(q))), "panel_cv: bad quantiles")
    checks.check(bool(np.all(np.diff(q, axis=1) >= 0.0)), "panel_cv: quantile row not monotone")


def timed_panel_cv(text: str, seconds: float, checks: Checks) -> dict:
    tracer = Tracer(enabled=False)
    ledger = CsvLedger(checks)
    durations, scaled_durations, rates = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        try:
            out, elapsed, speed = timed(lambda: panel_cv_pass(text, tracer))
        except Exception:
            checks.crashed("panel_cv pass")
            continue
        durations.append(elapsed)
        scaled_durations.append(speed.scale(elapsed))
        rates.append((panel_cv_evals(out["panel"]) - failed_folds(out["cv"])) / elapsed)
        check_panel_cv(out, checks, ledger, full=len(rates) == 1)
        del out
    evals_per_s = statistics.median(rates) if rates else 0.0
    print(f"panel_cv pass times (s): {[round(v, 4) for v in durations]}")
    print(f"panel_cv scaled pass times (s): {[round(v, 4) for v in scaled_durations]}")
    print(f"panel_cv: {len(durations)} pass(es), {evals_per_s:.1f} evaluations/s (p50)")
    return {
        "latency_p50_s": statistics.median(scaled_durations or [float("nan")]),
        "headline": ("cv_evals_per_s", evals_per_s, "1/s", len(rates)),
    }


# ------------------------------------------------------------------ remote_cv


def start_stub():
    stub = serve_stub(alias=REMOTE_ALIAS)
    stub.set_delay(REMOTE_DELAY_S)
    return stub


def remote_pass(panel, stub, tracer: Tracer, n_jobs: int = REMOTE_JOBS) -> dict:
    before = stub.request_count
    with tracer.span("evaluation.cross_validate"):
        cv = cross_validate(
            panel, [f"adapter:{stub.url}"], H, n_windows=WINDOWS, n_jobs=n_jobs
        )
    return {"cv": cv, "requests": stub.request_count - before}


def builtin_reference(panel) -> str:
    """Builtin seasonalnaive CV, the CSV every remote pass must reproduce."""
    return cross_validate(panel, [REMOTE_ALIAS], H, n_windows=WINDOWS).to_csv()


def check_remote(out, panel, stub, reference_csv, checks: Checks, ledger: CsvLedger) -> int:
    """Checks one remote pass; returns its successful forecasts."""
    cv = out["cv"]
    forecasts = len(panel) * WINDOWS
    failed = failed_folds(cv)
    checks.ops(forecasts, failed)
    checks.check(failed == 0, f"remote_cv: {failed} failed fold(s)")
    checks.check(
        out["requests"] == forecasts,
        f"remote_cv: {out['requests']} requests for {forecasts} forecasts",
    )
    text = cv.to_csv()
    ledger.record("remote_cv/crossval", text)
    checks.check(
        text.replace(f"adapter:{stub.url}", REMOTE_ALIAS) == reference_csv,
        "remote_cv: forecasts differ from builtin seasonalnaive at 12 digits",
    )
    return forecasts - failed


def timed_remote_cv(text: str, seconds: float, checks: Checks, stub) -> dict:
    panel = parse_panel(io.StringIO(text))
    reference = builtin_reference(panel)
    tracer = Tracer(enabled=False)
    ledger = CsvLedger(checks)
    durations, scaled_durations, rates = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        try:
            # The stub's worker threads hold the interpreter lock, so
            # sample host speed at the ends of the pass only.
            out, elapsed, speed = timed(lambda: remote_pass(panel, stub, tracer), during=False)
        except Exception:
            checks.crashed("remote_cv pass")
            continue
        durations.append(elapsed)
        # The injected delay takes the same time on any host: only the
        # rest of the pass is scaled.  With REMOTE_JOBS requests in
        # flight, delays run side by side.
        delay = out["requests"] * REMOTE_DELAY_S / REMOTE_JOBS
        scaled_durations.append(delay + speed.scale(elapsed - delay))
        rates.append(check_remote(out, panel, stub, reference, checks, ledger) / elapsed)
    per_s = statistics.median(rates) if rates else 0.0
    print(f"remote_cv pass times (s): {[round(v, 4) for v in durations]}")
    print(f"remote_cv scaled pass times (s): {[round(v, 4) for v in scaled_durations]}")
    print(f"remote_cv: {len(durations)} pass(es), {per_s:.1f} remote forecasts/s (p50)")
    return {
        "latency_p50_s": statistics.median(scaled_durations or [float("nan")]),
        "headline": ("remote_forecasts_per_s", per_s, "1/s", len(rates)),
    }
