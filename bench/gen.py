"""Seeded inputs for the benchmark workloads.

Every input is drawn from numpy's PCG64 generator and written as
long-format CSV text with two decimals, so one seed gives the same bytes
on every machine.  The package only ever sees these texts (parsed with
``parse_panel``) and its own bundled AirPassengers data.

Profiles, chosen because they steer the agent to different shortlists:

- ``seasonal``: a level plus a yearly sine wave -> seasonalnaive,
  autoets, theta, naive, autoarima.
- ``trended``: a linear trend plus random-walk noise -> autoets,
  autoarima, theta, naive.
- ``intermittent``: mostly zeros with Poisson-sized demands -> croston,
  adida, naive, in milliseconds; about one panel in ten is also flagged
  non-stationary by KPSS and adds autoets, autoarima and theta.
"""

from __future__ import annotations

import hashlib

import numpy as np

PROFILES = ("intermittent", "seasonal", "trended")

AGENT_PANELS = 24  # the sequence wraps around if a run gets through all of them
AGENT_POINTS = 60
PANEL_CV_SERIES = 500
PANEL_CV_POINTS = 144
REMOTE_SERIES = 100
REMOTE_POINTS = 96
MODEL_POINTS = 144

# Independent streams per input, so that resizing one input leaves the
# others unchanged for the same seed.
_STREAMS = {"agent": 1, "panel_cv": 2, "remote_cv": 3, "model": 4}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[stream]])


def month_starts(n: int) -> list[str]:
    return [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}-01" for i in range(n)]


def profile_values(profile: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """One series of the given profile, rounded to two decimals."""
    t = np.arange(n)
    if profile == "seasonal":
        level = rng.uniform(50.0, 200.0)
        amplitude = level * rng.uniform(0.15, 0.3)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        noise = rng.normal(0.0, 0.1 * amplitude, n)
        y = level + amplitude * np.sin(2.0 * np.pi * t / 12.0 + phase) + noise
    elif profile == "trended":
        level = rng.uniform(50.0, 200.0)
        slope = level * rng.uniform(0.01, 0.03)
        y = level + slope * t + np.cumsum(rng.normal(0.0, 0.02 * level, n))
    elif profile == "intermittent":
        p = rng.uniform(0.2, 0.4)
        sizes = rng.poisson(4.0, n) + 1.0
        y = np.where(rng.random(n) < p, sizes, 0.0)
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return np.round(y, 2)


def panel_csv(series: dict[str, np.ndarray]) -> str:
    lines = ["unique_id,ds,y"]
    for key, values in series.items():
        for ds, v in zip(month_starts(len(values)), values):
            lines.append(f"{key},{ds},{v:.2f}")
    return "\n".join(lines) + "\n"


def agent_panels(seed: int) -> list[tuple[str, str]]:
    """(profile, csv) for the seeded 1-3-series panels of the agent sequence.

    Profiles cycle intermittent, seasonal, trended.
    """
    rng = _rng(seed, "agent")
    panels = []
    for k in range(AGENT_PANELS):
        profile = PROFILES[k % len(PROFILES)]
        n_series = int(rng.integers(1, 4))
        series = {
            f"p{k:02d}_{j}": profile_values(profile, rng, AGENT_POINTS)
            for j in range(n_series)
        }
        panels.append((profile, panel_csv(series)))
    return panels


def cv_panel_csv(seed: int) -> str:
    """500 monthly series x 144 points (72k rows), profiles in rotation."""
    rng = _rng(seed, "panel_cv")
    series = {
        f"s{i:03d}": profile_values(PROFILES[i % len(PROFILES)], rng, PANEL_CV_POINTS)
        for i in range(PANEL_CV_SERIES)
    }
    return panel_csv(series)


def remote_panel_csv(seed: int) -> str:
    """100 seasonal monthly series for the remote adapter workload."""
    rng = _rng(seed, "remote_cv")
    series = {
        f"r{i:03d}": profile_values("seasonal", rng, REMOTE_POINTS)
        for i in range(REMOTE_SERIES)
    }
    return panel_csv(series)


def model_series_csv(seed: int) -> str:
    """One seasonal 144-point series for the per-model timings."""
    rng = _rng(seed, "model")
    return panel_csv({"synthetic": profile_values("seasonal", rng, MODEL_POINTS)})


def workload_inputs(workload: str, seed: int):
    if workload == "agent":
        return agent_panels(seed)
    if workload == "panel_cv":
        return cv_panel_csv(seed)
    if workload == "remote_cv":
        return remote_panel_csv(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs) -> str:
    """SHA-256 over an input as generated (a text or a list of (profile, text))."""
    h = hashlib.sha256()
    if isinstance(inputs, str):
        h.update(inputs.encode("utf-8"))
    else:
        for profile, text in inputs:
            h.update(profile.encode("utf-8") + b"\0" + text.encode("utf-8") + b"\0")
    return h.hexdigest()
