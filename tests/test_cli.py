import json
import subprocess
import sys
import urllib.request

import pytest

from agentcast.cli import build_parser, main

from conftest import TRUNCATED_REPLY, RawReplyServer, src_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestForecastCommand:
    def test_two_models_twelve_steps(self, capsys, air_csv):
        code, out, err = run_cli(
            capsys, "forecast", "--input", air_csv, "--models", "seasonalnaive,theta",
            "--h", "12",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 25
        assert lines[0].startswith("unique_id,ds,model,mean,q10")
        assert sum(1 for l in lines if ",seasonalnaive," in l) == 12
        assert sum(1 for l in lines if ",theta," in l) == 12

    @pytest.mark.parametrize("models", ["naive,croston", "croston,naive"])
    def test_quantile_free_model_gets_nan_quantile_cells(self, capsys, air_csv, models):
        code, out, err = run_cli(
            capsys, "forecast", "--input", air_csv, "--models", models, "--h", "2"
        )
        assert code == 0, err
        lines = [line.split(",") for line in out.splitlines()]
        assert lines[0][:5] == ["unique_id", "ds", "model", "mean", "q10"]
        assert len(lines) == 5 and all(len(cells) == len(lines[0]) for cells in lines)
        for cells in lines[1:]:
            nan_cells = [c == "nan" for c in cells[4:]]
            assert all(nan_cells) if cells[2] == "croston" else not any(nan_cells)

    def test_levels_none_drops_quantile_columns(self, capsys, air_csv):
        code, out, _ = run_cli(
            capsys, "forecast", "--input", air_csv, "--models", "naive",
            "--h", "3", "--levels", "none",
        )
        assert code == 0
        assert out.splitlines()[0] == "unique_id,ds,model,mean"

    def test_output_flag_writes_a_file(self, capsys, air_csv, tmp_path):
        target = tmp_path / "fc.csv"
        code, out, _ = run_cli(
            capsys, "forecast", "--input", air_csv, "--models", "naive",
            "--h", "2", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 3

    def test_reruns_are_byte_identical(self, capsys, air_csv):
        args = ("forecast", "--input", air_csv, "--models", "theta", "--h", "6")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_unknown_model_is_a_single_line_error(self, capsys, air_csv):
        code, out, err = run_cli(
            capsys, "forecast", "--input", air_csv, "--models", "prophet", "--h", "3"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: unknown-model: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["forecast", "crossval"])
    def test_duplicate_model_is_a_config_error(self, capsys, air_csv, command):
        code, out, err = run_cli(
            capsys, command, "--input", air_csv, "--models", "naive,theta,naive", "--h", "2",
            "--levels", "none",
        )
        assert code == 1
        assert out == ""
        assert err == "error: config: duplicate model name(s) in list: naive\n"

    def test_non_finite_input_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unique_id,ds,y\n"
            "s,2020-01-01,1.0\ns,2020-02-01,nan\ns,2020-03-01,inf\ns,2020-04-01,2.0\n"
        )
        code, out, err = run_cli(
            capsys, "forecast", "--input", str(path), "--models", "naive,historicaverage",
            "--h", "2", "--levels", "none",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: parse: row 3: ")
        assert err.count("\n") == 1

    def test_utc_offset_is_a_one_line_parse_error(self, capsys, tmp_path):
        path = tmp_path / "offset.csv"
        path.write_text(
            "unique_id,ds,y\n"
            "s,2020-01-01,1.0\ns,2020-02-01T00:00:00+00:00,2.0\ns,2020-03-01,3.0\n"
        )
        code, out, err = run_cli(
            capsys, "forecast", "--input", str(path), "--models", "naive", "--h", "2",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: parse: row 3: timestamp '2020-02-01T00:00:00+00:00' carries a UTC offset\n"
        )

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "forecast", "--input", str(tmp_path / "nope.csv"),
            "--models", "naive", "--h", "3",
        )
        assert code == 1
        assert err.startswith("error: io: ")


class TestCrossvalCommand:
    def test_example_row_count(self, capsys, air_csv):
        code, out, _ = run_cli(
            capsys, "crossval", "--input", air_csv, "--models", "naive",
            "--h", "12", "--windows", "2",
        )
        assert code == 0
        assert len(out.splitlines()) == 25

    def test_jobs_flag_does_not_change_output(self, capsys, air_csv):
        base = ("crossval", "--input", air_csv, "--models", "naive,ses", "--h", "6")
        _, seq, _ = run_cli(capsys, *base, "--jobs", "1")
        _, par, _ = run_cli(capsys, *base, "--jobs", "4")
        assert seq == par

    def test_jobs_defaults_to_one(self, capsys):
        parser = build_parser()
        for argv in (
            ["crossval", "--models", "naive", "--h", "12"],
            ["evaluate", "--models", "naive", "--h", "12"],
        ):
            assert parser.parse_args([*argv, "--input", "data.csv"]).jobs == 1
        # The agent shortlists builtin models only, whose folds never use the pool.
        code, out, err = run_cli(capsys, "agent", "--input", "data.csv", "--jobs", "2")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: usage: unrecognized arguments: --jobs 2"


class TestEvaluateCommand:
    def test_leaderboard_shape_and_order(self, capsys, air_csv):
        code, out, _ = run_cli(
            capsys, "evaluate", "--input", air_csv, "--models", "seasonalnaive,naive",
            "--h", "12", "--windows", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("model,rank,mase,crps,coverage")
        assert lines[1].startswith("seasonalnaive,1,")
        assert lines[2].startswith("naive,2,")


class TestFeaturesCommand:
    def test_diagnostics_csv(self, capsys, air_csv):
        code, out, _ = run_cli(capsys, "features", "--input", air_csv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("key,n,season_length")
        assert lines[1].startswith("AirPassengers,144,12,")

    def test_custom_column_names(self, capsys, tmp_path):
        path = tmp_path / "renamed.csv"
        path.write_text(
            "item,when,amount\n"
            + "".join(f"x,2021-{m:02d}-01,{float(m)}\n" for m in range(1, 13))
        )
        code, out, _ = run_cli(
            capsys, "features", "--input", str(path),
            "--id-col", "item", "--time-col", "when", "--value-col", "amount",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("x,12,12,")


class TestAgentCommand:
    def test_end_to_end_with_query(self, capsys, air_csv, tmp_path):
        report = tmp_path / "report.txt"
        code, out, err = run_cli(
            capsys, "agent", "--input", air_csv, "--mode", "deterministic",
            "--h", "12", "--query", "total next 12 months",
            "--report", str(report),
        )
        assert code == 0
        assert len(out.splitlines()) == 13
        text = report.read_text()
        assert text.startswith("selected: ")
        assert "answer: Approximately" in text
        total = float(
            text.split("Approximately ")[1].split(" ")[0].replace(",", "")
        )
        assert abs(total - 5919.0) / 5919.0 < 0.10
        assert err == ""

    def test_report_defaults_to_stderr(self, capsys, air_csv):
        code, out, err = run_cli(
            capsys, "agent", "--input", air_csv, "--h", "6", "--budget", "2"
        )
        assert code == 0
        assert "explanation: " in err
        assert "answer: " in err

    def test_deterministic_reruns_identical(self, capsys, air_csv):
        args = ("agent", "--input", air_csv, "--h", "6", "--budget", "2",
                "--query", "average next 6 months")
        code1, out1, err1 = run_cli(capsys, *args)
        code2, out2, err2 = run_cli(capsys, *args)
        assert (code1, out1, err1) == (code2, out2, err2)

    def test_llm_mode_without_spec_fails_cleanly(self, capsys, air_csv):
        code, _, err = run_cli(
            capsys, "agent", "--input", air_csv, "--h", "6", "--mode", "llm"
        )
        assert code == 1
        assert err.startswith("error: runtime: ")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 2
        assert "error: usage: " in err

    def test_missing_required_flag(self, capsys, air_csv):
        code, _, err = run_cli(capsys, "forecast", "--input", air_csv, "--h", "3")
        assert code == 2
        assert "error: usage: " in err

    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["forecast", "crossval", "evaluate", "agent"])
    def test_non_numeric_levels_rejected_before_reading_input(self, capsys, tmp_path, command):
        missing = str(tmp_path / "never-read.csv")
        for levels, detail in (
            ("0.1,abc", "not a comma list of numbers: '0.1,abc'"),
            ("0.5,0.2", "quantile levels must be strictly increasing, got (0.5, 0.2)"),
            ("1.5", "quantile level 1.5 outside open interval (0, 1)"),
            ("0", "quantile level 0.0 outside open interval (0, 1)"),
            (",", "quantile levels must be non-empty"),
        ):
            argv = [command, "--input", missing, "--h", "3", "--levels", levels]
            if command != "agent":
                argv += ["--models", "naive"]
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.splitlines()[-1] == f"error: usage: argument --levels: {detail}"

    def test_invalid_mode_choice(self, capsys, air_csv):
        code, _, err = run_cli(
            capsys, "agent", "--input", air_csv, "--mode", "psychic"
        )
        assert code == 2
        assert "error: usage: " in err


class TestServeStubCommand:
    def test_serves_health_over_http(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "agentcast.cli", "serve-stub", "--model", "naive"],
            env=src_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            url = process.stdout.readline().strip()
            assert url.startswith("http://127.0.0.1:")
            with urllib.request.urlopen(f"{url}/health", timeout=5) as resp:
                payload = json.loads(resp.read())
            assert payload == {"status": "ok", "model": "naive"}
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestAdapterTransportFault:
    def test_truncated_reply_is_a_single_line_transport_error(self, capsys, air_csv):
        server = RawReplyServer(TRUNCATED_REPLY)
        try:
            code, out, err = run_cli(
                capsys, "forecast", "--input", air_csv, "--models", f"adapter:{server.url}",
                "--h", "3",
            )
        finally:
            server.close()
        assert code == 1
        assert out == ""
        assert err.startswith("error: transport: ")
        assert err.count("\n") == 1
        assert server.requests == 3
