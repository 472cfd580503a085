import io
import socketserver
import threading

import numpy as np
import pytest
from hypothesis import settings

from agentcast.datasets import load_air_passengers
from agentcast.models import Forecaster
from agentcast.panel import Frequency, Series, SeriesPanel, parse_panel

# Property tests replay one fixed example sequence and set no per-example
# deadline: the same examples on every run, whatever the machine's speed.
settings.register_profile("agentcast", derandomize=True, deadline=None)
settings.load_profile("agentcast")


@pytest.fixture(scope="session")
def air_passengers():
    return load_air_passengers()


@pytest.fixture(scope="session")
def air_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "air.csv"
    load_air_passengers().to_csv(str(path))
    return str(path)


@pytest.fixture()
def monthly_panel_csv():
    return (
        "unique_id,ds,y\n"
        "a,2020-01-01,1.0\n"
        "b,2020-01-01,10.0\n"
        "a,2020-02-01,2.0\n"
        "b,2020-02-01,20.0\n"
        "a,2020-03-01,3.0\n"
        "b,2020-03-01,30.0\n"
        "a,2020-04-01,4.0\n"
        "b,2020-04-01,40.0\n"
    )


def make_panel(values_by_key, unit="M", start=(2015, 1, 1)):
    """Build a panel from plain value lists on a regular grid."""
    from datetime import datetime

    from agentcast.panel import future_grid

    freq = Frequency(unit)
    anchor = datetime(*start)
    series = {}
    for key, values in values_by_key.items():
        ts = [anchor] + future_grid(anchor, freq, len(values) - 1) if len(values) > 1 else [anchor]
        series[key] = Series(tuple(ts), np.asarray(values, dtype=float))
    return SeriesPanel(series, freq)


@pytest.fixture()
def make_monthly_panel():
    return make_panel


def parse_csv_text(text, **kwargs):
    return parse_panel(io.StringIO(text), **kwargs)


def parse_monthly(values, key="s"):
    """A one-series monthly panel parsed from CSV text, starting 2000-01."""
    rows = ["unique_id,ds,y"] + [
        f"{key},{2000 + i // 12}-{i % 12 + 1:02d}-01,{float(v)!r}" for i, v in enumerate(values)
    ]
    return parse_csv_text("\n".join(rows) + "\n")


class TypeErrorForecaster(Forecaster):
    """Test double with a programming error: every fit raises TypeError."""

    name = "typeerror"
    fallback_to_naive = True

    def _forecast_series(self, y, m, h, levels):
        raise TypeError("unsupported operand type(s)")


# Headers promise 100 bytes and 11 follow before the connection closes, so
# http.client raises IncompleteRead while reading the body.
TRUNCATED_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b'{"mean": [1'


class RawReplyServer:
    """Reads each HTTP request in full, then writes ``reply`` to the raw
    socket as it is and closes, so a reply can be truncated or malformed."""

    def __init__(self, reply: bytes):
        self.requests = 0
        owner = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                length = 0
                while (line := self.rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                self.rfile.read(length)
                owner.requests += 1
                self.wfile.write(reply)

        self.server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)
