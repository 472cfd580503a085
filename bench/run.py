"""agentcast benchmark harness.

One timed run (tracing off, a fresh process per workload):

    python3 bench/run.py --workload agent --seed 1 --seconds 25 --trace 0

The traced run (``--trace 1``) times every layer once with spans, for any
workload name, and reports the per-layer metrics and the tracing
overhead; it ignores ``--seconds``.  ``--all`` runs the three workloads,
each in its own process, then the traced run, and prints a summary.

Workloads (see BENCHMARK.json for why each is there):

- ``agent``: ``run_agent`` (deterministic, h=12) on AirPassengers four times,
  then one of the seeded 1-3-series monthly panels, and so on.  ``latency_p50_s``
  is the median of the AirPassengers calls; the median over all calls
  (``agent_latency_p50_s``) and per profile are printed too.
- ``panel_cv``: parse, features, 3-window CV of five cheap models,
  leaderboard and both CSV writers on a seeded 500 x 144 panel.
- ``remote_cv``: 3-window CV through ``adapter:`` against an in-process
  stub that sleeps 5 ms per request, with ``n_jobs=2``.

``latency_p50_s`` is scaled to a nominal host speed by a reference kernel
timed around and during each measured call (see ``workloads.HostSpeed``);
the wall times are printed above the result.

Inputs come from ``--seed`` (see ``gen.py``).  The package is imported
from ``src/`` next to this directory, never from an installed copy.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The spans of a traced run are written to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("agent", "panel_cv", "remote_cv")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def result_line(spec, trace, values, checks) -> str:
    """The closing JSON line; the metric set and units come from BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    return json.dumps(
        {
            "correct": checks.correct,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def timed_run(workload: str, seed: int, seconds: float):
    import gen
    import workloads as w

    checks = w.Checks()
    inputs = gen.workload_inputs(workload, seed)
    checks.check(
        gen.digest(inputs) == gen.digest(gen.workload_inputs(workload, seed)),
        f"{workload}: generator gave different bytes for the same seed",
    )
    print(f"inputs {workload} seed={seed} sha256={gen.digest(inputs)}")
    input_path = None
    if workload == "panel_cv":
        input_path = w.write_input("panel_cv", inputs)
    try:
        setup_s, _ = w.measure_setup(workload, SRC, input_path)
    finally:
        if input_path is not None:
            input_path.unlink()

    if workload == "agent":
        out = w.timed_agent(inputs, seconds, checks)
    elif workload == "panel_cv":
        out = w.timed_panel_cv(inputs, seconds, checks)
    else:
        stub = w.start_stub()
        try:
            out = w.timed_remote_cv(inputs, seconds, checks, stub)
        finally:
            stub.close()
    name, value, unit, samples = out["headline"]
    print(f"headline {name} = {value!r} {unit} (n={samples})")
    print(f"headline error_rate = {checks.error_rate!r} ratio")
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": w.peak_rss_mb(),
        "latency_p50_s": out["latency_p50_s"],
    }
    return values, checks


def traced_run(workload: str, seed: int):
    import layers
    import workloads as w

    checks = w.Checks()
    sweep = layers.Sweep(SRC, seed, checks)
    values = sweep.run()
    w.WORK_DIR.mkdir(exist_ok=True)
    path = w.WORK_DIR / f"spans-{workload}-seed{seed}.json"
    sweep.tracer.dump(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    spans = len(sweep.tracer.spans)
    print(
        f"tracing overhead {values['trace.overhead_ms']:.3f} ms: traced "
        f"{sweep.traced_s:.3f} s minus untraced {sweep.untraced_s:.3f} s; by "
        f"microbenchmark {spans} spans cost {spans * sweep.tracer.span_cost_s() * 1000.0:.3f} ms"
    )
    return values, checks


def run_all(args) -> int:
    """Each workload in its own process, then the traced run; a summary at the end."""
    rows = []
    status = 0
    for workload, trace in [(w, 0) for w in WORKLOADS] + [("agent", 1)]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        ]
        print(f"$ {' '.join(cmd[1:])}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] and result["failed"] == 0 else 1
        label = f"{workload} (traced)" if trace else workload
        for line in lines:
            if line.startswith(("metric ", "headline ")):
                rows.append(f"{label:18s} {line.split(' ', 1)[1]}")
    print("\nsummary")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="agent")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and the traced run")
    args = parser.parse_args(argv)

    if not (SRC / "agentcast" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)

    spec = load_spec()
    print(f"env {json.dumps(environment(args.seed))}")
    started = time.perf_counter()
    if args.trace:
        values, checks = traced_run(args.workload, args.seed)
    else:
        values, checks = timed_run(args.workload, args.seed, args.seconds)
    print(f"run took {time.perf_counter() - started:.1f} s", flush=True)
    print(result_line(spec, bool(args.trace), values, checks), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
