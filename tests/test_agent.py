import hashlib
import json
import re
from datetime import datetime

import numpy as np
import pytest

from agentcast.agent import (
    ASSUMPTION_NOTES,
    AgentConfig,
    Candidate,
    FeatureProfile,
    answer_query,
    profile_features,
    propose_candidates,
    run_agent,
)
from agentcast.errors import AgentError, ConfigError, RequestError
from agentcast.features import compute_features
from agentcast.llm import LLMConfig
from agentcast.models import arima, available_models
from agentcast.panel import ForecastEntry, ForecastFrame, Frequency, frames_to_csv, future_grid

from conftest import make_panel
from test_llm import StubTransport, completion, tool_completion


def frame_of(values_by_key, levels=None, widths=None):
    """Hand-built monthly forecast frame starting 2020-01."""
    entries = {}
    for key, values in values_by_key.items():
        mean = np.asarray(values, dtype=float)
        ts = tuple(future_grid(datetime(2019, 12, 1), Frequency("M"), len(mean)))
        q = None
        if levels is not None:
            w = np.asarray(widths if widths is not None else [1.0] * len(mean), dtype=float)
            q = np.stack([mean - w / 2.0, mean, mean + w / 2.0], axis=1)
        entries[key] = ForecastEntry(ts, mean, q)
    return ForecastFrame("fixed", entries, levels)


THREE_LEVELS = (0.1, 0.5, 0.9)


def seasonal_profile(**overrides):
    base = dict(
        n=144,
        season_length=12,
        trend_strength=0.95,
        seasonal_strength=0.8,
        intermittency=0.0,
        kpss_nonstationary=True,
    )
    base.update(overrides)
    return FeatureProfile(**base)


class TestProfileFeatures:
    def test_single_series_profile_mirrors_the_row(self, air_passengers):
        report = compute_features(air_passengers)
        profile = profile_features(report)
        row = report["AirPassengers"]
        assert profile.n == 144
        assert profile.season_length == 12
        assert profile.trend_strength == pytest.approx(row.trend_strength)
        assert profile.seasonal_strength == pytest.approx(row.seasonal_strength)
        assert profile.kpss_nonstationary == (row.kpss_level_stationary is False)

    def test_multi_series_averaging(self):
        panel = make_panel(
            {"dense": [float(v) for v in range(1, 31)], "sparse": [0.0, 0.0, 5.0] * 10}
        )
        report = compute_features(panel)
        profile = profile_features(report)
        want = np.mean([report["dense"].intermittency, report["sparse"].intermittency])
        assert profile.intermittency == pytest.approx(want)
        assert profile.n == 30

    def test_empty_report_rejected(self):
        from agentcast.features import FeatureReport

        with pytest.raises(ConfigError):
            profile_features(FeatureReport({}))


class TestProposeCandidates:
    def test_strong_seasonal_trended_series(self):
        aliases = [c.alias for c in propose_candidates(seasonal_profile())]
        assert aliases == ["seasonalnaive", "autoets", "theta", "autoarima", "naive"]

    def test_intermittent_series(self):
        profile = seasonal_profile(
            seasonal_strength=0.1, trend_strength=0.1, intermittency=0.7,
            kpss_nonstationary=False,
        )
        aliases = [c.alias for c in propose_candidates(profile)]
        assert "croston" in aliases and "adida" in aliases
        assert "autoarima" not in aliases

    def test_short_series_drops_seasonal_candidates(self):
        profile = seasonal_profile(
            n=18, seasonal_strength=0.9, trend_strength=0.1, kpss_nonstationary=False
        )
        aliases = [c.alias for c in propose_candidates(profile)]
        assert aliases == ["naive", "ses"]

    @pytest.mark.parametrize(
        "n, want", [(arima.MIN_OBS, ["naive", "autoarima"]), (arima.MIN_OBS - 1, ["naive", "ses"])]
    )
    def test_stationary_series_adds_autoarima_from_its_minimum_length(self, n, want):
        # autoarima's own minimum length gates the rule table's last pick
        profile = seasonal_profile(
            n=n, seasonal_strength=0.1, trend_strength=0.1, kpss_nonstationary=False
        )
        assert [c.alias for c in propose_candidates(profile)] == want

    def test_budget_truncation(self):
        candidates = propose_candidates(seasonal_profile(), AgentConfig(budget=2))
        assert [c.alias for c in candidates] == ["seasonalnaive", "autoets"]

    def test_never_empty(self):
        profile = seasonal_profile(
            n=5, seasonal_strength=0.0, trend_strength=0.0, kpss_nonstationary=False
        )
        candidates = propose_candidates(profile)
        assert [c.alias for c in candidates] == ["naive", "ses"]

    def test_candidates_carry_assumption_notes(self):
        for candidate in propose_candidates(seasonal_profile()):
            assert candidate.note
        notes = {c.alias: c.note for c in propose_candidates(seasonal_profile())}
        assert "cycle" in notes["seasonalnaive"]

    def test_every_registry_alias_has_a_note(self):
        assert set(ASSUMPTION_NOTES) == set(available_models())

    def test_feature_report_input(self, air_passengers):
        report = compute_features(air_passengers)
        aliases = [c.alias for c in propose_candidates(report)]
        assert aliases == ["seasonalnaive", "autoets", "theta", "autoarima", "naive"]


class TestAnswerQuery:
    def test_total_query(self):
        frame = frame_of({"s": [float(v) for v in range(1, 13)]})
        response = answer_query("total next 12 months", frame)
        assert "78" in response

    def test_how_many_phrasing(self):
        frame = frame_of({"s": [10.0, 20.0, 30.0]})
        response = answer_query("how many widgets in the next 2 weeks?", frame)
        assert "30" in response

    def test_average_query(self):
        frame = frame_of({"s": [2.0, 4.0, 6.0]})
        response = answer_query("average demand for the next 2 months", frame)
        assert "3.00" in response

    def test_peak_query_names_the_timestamp(self):
        frame = frame_of({"s": [5.0, 9.0, 7.0]})
        response = answer_query("when is the peak?", frame)
        assert "9.00" in response
        assert "2020-02-01" in response

    def test_window_clamped_to_horizon(self):
        frame = frame_of({"s": [1.0, 2.0, 3.0]})
        response = answer_query("total next 50 months", frame)
        assert "6" in response and "next 3" in response

    def test_multi_series_totals_pool_across_series(self):
        frame = frame_of({"a": [1.0, 2.0, 3.0], "b": [10.0, 20.0, 30.0]})
        response = answer_query("total next 3 months", frame)
        assert "66" in response

    def test_no_query_summary_has_the_key_numbers(self):
        frame = frame_of({"s": [1.0, 2.0, 3.0]}, levels=THREE_LEVELS, widths=[1.0, 4.0, 2.0])
        response = answer_query(None, frame)
        assert "total 6" in response
        assert "1.00" in response and "3.00" in response
        assert "step 2" in response

    def test_unrecognized_query_falls_back_to_summary(self):
        frame = frame_of({"s": [1.0, 2.0, 3.0]})
        response = answer_query("tell me a story", frame)
        assert "total 6" in response

    def test_forecast_required(self):
        with pytest.raises(ValueError):
            answer_query("total", None)


def llm_setup(monkeypatch, replies):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    return LLMConfig("openai:gpt-4o", backoff_ms=0.1), StubTransport(replies)


def linear_panel(n=36):
    return make_panel({"s": [round(10.0 + 1.5 * v, 3) for v in range(n)]})


@pytest.fixture(scope="module")
def ap_result(air_passengers):
    return run_agent(
        air_passengers,
        query="how many air passengers are expected in the next 12 months?",
        h=12,
    )


class TestRunAgent:
    def test_pipeline_contract(self, ap_result):
        assert ap_result.frame.horizon() == 12
        assert ap_result.selected == ap_result.leaderboard.ranking()[0]
        assert ap_result.frame.model == ap_result.selected
        steps = [entry.split(":")[0] for entry in ap_result.trace]
        assert steps == ["features", "candidates", "cv", "select", "forecast", "answer"]

    def test_annual_total_matches_the_known_answer(self, ap_result):
        total = float(ap_result.frame["AirPassengers"].mean.sum())
        assert abs(total - 5919.0) / 5919.0 < 0.10
        quoted = re.search(r"([\d,]+)", ap_result.user_query_response).group(1)
        assert abs(float(quoted.replace(",", "")) - total) < 1.0

    def test_selected_model_is_in_the_candidate_list(self, ap_result):
        assert ap_result.selected in [c.alias for c in ap_result.candidates]

    def test_quantiles_are_monotone(self, ap_result):
        q = ap_result.frame["AirPassengers"].quantiles
        assert np.all(np.diff(q, axis=1) >= 0.0)

    def test_deterministic_reruns_are_identical(self):
        panel = linear_panel()
        first = run_agent(panel, query="total next 6 months", h=6)
        second = run_agent(panel, query="total next 6 months", h=6)
        assert first.to_json() == second.to_json()
        assert first.trace == second.trace
        assert first.explanation == second.explanation

    def test_every_explanation_number_is_derivable(self, ap_result):
        fmt = lambda v: f"{v:.4g}"
        profile = profile_features(ap_result.features)
        scores = ap_result.leaderboard.scores
        metric = ap_result.leaderboard.ranked_by
        winner = getattr(scores[0], metric)
        allowed = {
            str(len(ap_result.features.keys())),
            str(profile.season_length),
            fmt(profile.trend_strength),
            fmt(profile.seasonal_strength),
            fmt(profile.intermittency),
            str(len(scores)),
            "1",
            str(ap_result.h),
            "80",
            fmt(winner),
        }
        if len(scores) > 1:
            runner = getattr(scores[1], metric)
            allowed |= {fmt(runner), fmt(runner - winner)}
        frame = ap_result.frame
        lo, hi = frame.levels.index(0.1), frame.levels.index(0.9)
        widths = np.concatenate(
            [e.quantiles[:, hi] - e.quantiles[:, lo] for _, e in frame.items()]
        )
        allowed.add(fmt(float(np.mean(widths))))
        tokens = re.findall(r"\d+(?:\.\d+)?(?:e[+-]?\d+)?", ap_result.explanation)
        for token in tokens:
            assert token in allowed, f"number {token} not derivable from artifacts"

    def test_empty_panel_fails_before_any_llm_call(self, monkeypatch):
        from agentcast.panel import SeriesPanel

        config, transport = llm_setup(monkeypatch, [])
        with pytest.raises(ConfigError):
            run_agent(
                SeriesPanel({}, None),
                config=AgentConfig(mode="llm"),
                llm_config=config,
                transport=transport,
            )
        assert transport.calls == []

    def test_deterministic_mode_is_offline(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("network request attempted in deterministic mode")

        monkeypatch.setattr("agentcast.agent.llm_chat", explode)
        result = run_agent(linear_panel(), h=4)
        assert result.frame.horizon() == 4

    def test_llm_mode_requires_config(self):
        with pytest.raises(ConfigError):
            run_agent(linear_panel(), config=AgentConfig(mode="llm"))

    @pytest.mark.parametrize("step", [0, -3])
    def test_step_below_one_is_rejected_at_construction(self, step):
        with pytest.raises(ConfigError, match=f"step must be >= 1, got {step}"):
            AgentConfig(n_windows=2, step=step)

    def test_all_candidates_failing_raises_with_trace(self, monkeypatch):
        import agentcast.agent as agent_module

        monkeypatch.setattr(
            agent_module,
            "propose_candidates",
            lambda *a, **k: [Candidate("seasonalnaive", "cycle repeats")],
        )
        panel = make_panel({"s": [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]})
        with pytest.raises(AgentError) as err:
            run_agent(panel, h=1)
        assert err.value.trace
        assert err.value.category == "agent"

    def test_default_horizon_is_the_season_length(self):
        result = run_agent(linear_panel())
        assert result.h == 12

    def test_llm_mode_end_to_end(self, monkeypatch):
        replies = [
            (200, tool_completion("propose_models", {"candidates": ["theta", "naive"]})),
            (200, completion("chose theta for its trend handling")),
            (200, completion("roughly forty-two in total")),
        ]
        config, transport = llm_setup(monkeypatch, replies)
        result = run_agent(
            linear_panel(),
            query="total next 6 months",
            config=AgentConfig(mode="llm"),
            llm_config=config,
            transport=transport,
        )
        assert [c.alias for c in result.candidates] == ["theta", "naive"]
        assert "[llm]" in result.trace[1]
        assert result.explanation == "chose theta for its trend handling"
        assert result.user_query_response == "roughly forty-two in total"
        assert result.h == 6
        assert len(transport.calls) == 3

    def test_adversarial_aliases_never_reach_the_forecaster(self, monkeypatch):
        replies = [
            (200, tool_completion("propose_models", {"candidates": ["prophet", "skynet", 7]})),
            (200, completion("explanation")),
            (200, completion("answer")),
        ]
        config, transport = llm_setup(monkeypatch, replies)
        result = run_agent(
            linear_panel(),
            query="total next 4 months",
            config=AgentConfig(mode="llm"),
            llm_config=config,
            transport=transport,
        )
        registry = set(available_models())
        assert all(c.alias in registry for c in result.candidates)
        assert result.selected in registry
        assert "[rule table]" in result.trace[1]

    def test_partially_valid_llm_proposals_are_filtered(self, monkeypatch):
        replies = [
            (200, tool_completion("propose_models", {"candidates": ["prophet", "theta", "theta"]})),
            (200, completion("explanation")),
            (200, completion("answer")),
        ]
        config, transport = llm_setup(monkeypatch, replies)
        result = run_agent(
            linear_panel(),
            query="total next 4 months",
            config=AgentConfig(mode="llm"),
            llm_config=config,
            transport=transport,
        )
        assert [c.alias for c in result.candidates] == ["theta"]

    def test_malformed_tool_call_falls_back_to_rules(self, monkeypatch):
        malformed = [
            tool_completion("propose_models", "][ not json"),
            {"choices": [{"message": {"tool_calls": ["propose_models"]}}]},
        ]
        for reply in malformed:
            replies = [
                (200, reply),
                (200, completion("explanation")),
                (200, completion("answer")),
            ]
            config, transport = llm_setup(monkeypatch, replies)
            result = run_agent(
                linear_panel(),
                query="total next 4 months",
                config=AgentConfig(mode="llm"),
                llm_config=config,
                transport=transport,
            )
            assert "[rule table]" in result.trace[1]
            assert result.selected in set(available_models())

    @pytest.mark.parametrize("site", [1, 2], ids=["explanation", "answer"])
    def test_malformed_text_reply_falls_back(self, monkeypatch, site):
        replies = [
            (200, tool_completion("propose_models", {"candidates": ["theta", "naive"]})),
            (200, completion("explanation")),
            (200, completion("answer")),
        ]
        replies[site] = (200, {"choices": [{"message": "hi"}]})
        config, transport = llm_setup(monkeypatch, replies)
        query = "total next 4 months"
        result = run_agent(
            linear_panel(),
            query=query,
            config=AgentConfig(mode="llm"),
            llm_config=config,
            transport=transport,
        )
        assert len(transport.calls) == 3
        if site == 1:
            assert result.explanation.startswith("Analyzed 1 series")
            assert result.user_query_response == "answer"
        else:
            assert result.explanation == "explanation"
            assert result.user_query_response == answer_query(query, result.frame)

    @pytest.mark.parametrize("site", [1, 2], ids=["explanation", "answer"])
    def test_rejected_text_request_propagates(self, monkeypatch, site):
        replies = [
            (200, tool_completion("propose_models", {"candidates": ["theta", "naive"]})),
            (200, completion("explanation")),
            (200, completion("answer")),
        ]
        replies[site] = (400, {"error": "bad request"})
        config, transport = llm_setup(monkeypatch, replies)
        with pytest.raises(RequestError):
            run_agent(
                linear_panel(),
                query="total next 4 months",
                config=AgentConfig(mode="llm"),
                llm_config=config,
                transport=transport,
            )

    def test_query_horizon_out_of_range_uses_the_default(self, monkeypatch):
        replies = [
            (200, tool_completion("propose_models", {"candidates": ["naive"]})),
            (200, completion("explanation")),
            (200, completion("answer")),
        ]
        config, transport = llm_setup(monkeypatch, replies)
        result = run_agent(
            linear_panel(),
            query="total next 999 months",
            config=AgentConfig(mode="llm"),
            llm_config=config,
            transport=transport,
        )
        assert result.h == 12

    def test_result_serializes_to_json(self, ap_result):
        import json

        payload = json.loads(ap_result.to_json())
        assert payload["selected"] == ap_result.selected
        assert payload["h"] == 12
        assert len(payload["forecast"]["AirPassengers"]["mean"]) == 12
        assert payload["trace"] == list(ap_result.trace)

    def test_air_passengers_forecast_bytes_are_frozen(self, air_passengers):
        # autoets wins the leaderboard's CRPS by a thin margin over autoarima
        # (0.022532 against 0.022746), so an ARIMA fit change can flip it.
        result = run_agent(air_passengers, h=12)
        csv = frames_to_csv([result.frame]).encode()
        assert (result.selected, hashlib.sha256(csv).hexdigest()) == (
            "autoets",
            "8c6dbbccd6cc3aab2fc22cc14e563423d672e66c7e4becf9268d99802706df63",
        )

    def test_llm_wire_bytes_are_frozen(self, monkeypatch, air_passengers):
        # Two llm-mode runs: one valid tool reply, one with only unknown
        # aliases (rule-table fallback). The digest covers the URL, the raw
        # body and the sorted headers of all six requests, then both
        # results' JSON.  Re-frozen when the ARIMA fit moved to
        # Levenberg-Marquardt, when its Jacobian became analytic and when its
        # forecast mean moved to the integrated AR polynomial: the fallback
        # run's autoarima MASE and CRPS.
        digest = hashlib.sha256()

        def transport(url, body, headers, timeout):
            digest.update(url.encode() + b"\0" + body + b"\0")
            for name, value in sorted(headers.items()):
                digest.update(f"{name}: {value}\n".encode())
            return 200, json.dumps(replies.pop(0)).encode()

        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        for proposed in (["theta", "naive", "ses"], ["prophet", "chronos"]):
            replies = [
                tool_completion("propose_models", {"candidates": proposed}),
                completion("explanation text"),
                completion("answer text"),
            ]
            result = run_agent(
                air_passengers,
                query="how many air passengers in the next 12 months?",
                config=AgentConfig(mode="llm"),
                llm_config=LLMConfig("openai:gpt-4o", backoff_ms=0.1),
                transport=transport,
            )
            assert replies == []
            digest.update(result.to_json().encode())
        assert digest.hexdigest() == (
            "43cad07ab58921da75bafaf58fd22ae987ad4644002a56b5192fd67ebcb0ebd5"
        )
