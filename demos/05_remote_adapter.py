"""
Remote models over the forecast microservice protocol
======================================================

Any HTTP service that answers POST /forecast and GET /health can act as a
model. The bundled stub server mirrors a builtin, which makes the wire
protocol, the retry policy and the error taxonomy easy to watch.
"""

import json
import urllib.request

import numpy as np

from agentcast.adapters import parse_model_alias, remote_forecast, serve_stub
from agentcast.datasets import load_air_passengers
from agentcast.errors import RequestError
from agentcast.models import get_model

panel = load_air_passengers()
stub = serve_stub(alias="seasonalnaive")
print(f"stub listening on {stub.url}")

try:
    # GET /health reports the wrapped model.
    with urllib.request.urlopen(f"{stub.url}/health", timeout=5) as resp:
        print(f"health: {json.loads(resp.read())}")

    # A remote model is addressed by an adapter alias. The frame it returns
    # is indistinguishable from the local one (values round to 12
    # significant digits on the wire).
    spec = parse_model_alias(f"adapter:{stub.url}", timeout=10, max_retries=2)
    remote = remote_forecast(spec, panel, h=6)
    local = get_model("seasonalnaive").forecast(panel, 6)
    drift = np.max(np.abs(remote["AirPassengers"].mean - local["AirPassengers"].mean))
    print(f"remote mirrors local within {drift:.2e}")

    # Server hiccups (5xx) are retried with exponential backoff; the two
    # injected failures below are absorbed without surfacing.
    before = stub.request_count
    stub.inject_failures([500, 503])
    remote_forecast(spec, panel, h=6)
    print(f"two 5xx responses absorbed in {stub.request_count - before} requests")

    # Client errors (4xx other than 429) are never retried: the request
    # itself is wrong.
    stub.inject_failures([400])
    try:
        remote_forecast(spec, panel, h=6)
    except RequestError as exc:
        print(f"4xx surfaces immediately: {exc}")
finally:
    stub.close()
    print("stub closed")
