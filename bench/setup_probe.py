"""Child process that measures one workload set-up from a cold interpreter.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD [INPUT_CSV]

It imports ``agentcast.cli`` (which pulls in every module), does the
workload's set-up (load AirPassengers, read the panel CSV, or start the
stub server), prints one JSON line and exits.  The parent times the
interval from spawning this process to reading that line.
"""

import json
import sys
import time


def main(argv):
    started = time.perf_counter()
    src, workload = argv[1], argv[2]
    sys.path.insert(0, src)
    import agentcast.cli  # noqa: F401  (the import is what is measured)

    report = {"import_s": time.perf_counter() - started}
    if workload == "agent":
        from agentcast.datasets import load_air_passengers

        load_air_passengers()
    elif workload == "panel_cv":
        with open(argv[3]) as fp:
            fp.read()
    elif workload == "remote_cv":
        from agentcast.adapters import serve_stub

        before = time.perf_counter()
        stub = serve_stub(alias="seasonalnaive")
        stub.set_delay(0.005)  # workloads.REMOTE_DELAY_S
        report["stub_start_ms"] = (time.perf_counter() - before) * 1000.0
        print(json.dumps(report), flush=True)
        stub.close()
        return 0
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
