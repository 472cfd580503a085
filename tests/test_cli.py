import hashlib
import json
import subprocess
import sys
import urllib.request

import numpy as np
import pytest

from agentcast.cli import build_parser, main
from agentcast.features import compute_features
from agentcast.panel import parse_panel

from conftest import TRUNCATED_REPLY, RawReplyServer, make_panel, src_env
from test_evaluation import seeded_month_end_panel


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

    def test_zero_step_is_a_config_error(self, capsys, air_csv):
        code, out, err = run_cli(
            capsys, "agent", "--input", air_csv, "--windows", "2", "--step", "0"
        )
        assert (code, out) == (1, "")
        assert err == "error: config: step must be >= 1, got 0\n"


class TestOverflowErrors:
    """A series at 1e200 overflows every Gaussian model's variance.  The
    failure is one error line: numpy's RuntimeWarnings are not printed.
    A child process runs the CLI, as pytest would capture the warnings."""

    @pytest.mark.parametrize("argv", [
        *(["forecast", "--models", m, "--h", "6"]
          for m in ("naive", "ses", "theta", "autoets", "autoarima")),
        ["agent"],
    ], ids=lambda argv: argv[2] if len(argv) > 1 else argv[0])
    def test_stderr_is_one_error_line(self, tmp_path, argv):
        path = tmp_path / "huge.csv"
        path.write_text("unique_id,ds,y\n" + "".join(
            f"s,{2000 + i // 12}-{i % 12 + 1:02d}-01,{float(1.0 + 0.5 * np.sin(i)) * 1e200!r}\n"
            for i in range(48)
        ))
        done = subprocess.run(
            [sys.executable, "-m", "agentcast.cli", *argv, "--input", str(path)],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ")


class TestUtf8Output:
    """Output paths are written as UTF-8, the encoding parse_panel reads,
    whatever the locale: the child runs in the C locale without UTF-8 mode."""

    def test_series_id_round_trips_under_c_locale(self, tmp_path):
        source, forecast, copy = (tmp_path / name for name in ("in.csv", "fc.csv", "copy.csv"))
        source.write_text("unique_id,ds,y\n" + "".join(
            f"caf\u00e9,2000-{month:02d}-01,{month}.0\n" for month in range(1, 7)
        ), encoding="utf-8")
        env = dict(src_env(), PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C")
        for argv in (
            ["-m", "agentcast.cli", "forecast", "--input", str(source), "--models", "naive",
             "--h", "2", "--levels", "none", "--output", str(forecast)],
            ["-c", "import sys; from agentcast.panel import parse_panel; "
             "parse_panel(sys.argv[1]).to_csv(sys.argv[2])", str(source), str(copy)],
        ):
            done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")
        assert parse_panel(str(forecast), value_column="mean", freq="M").keys() == ["caf\u00e9"]
        assert parse_panel(str(copy)).equals(parse_panel(str(source)))


class TestUsageErrors:
    @pytest.mark.parametrize("flags", [
        ["--llm", "openai:gpt-4o"],
        ["--endpoint", "http://127.0.0.1:9/v1"],
        ["--credential-var", "AGENTCAST_KEY"],
        ["--mode", "deterministic", "--llm", "openai:gpt-4o", "--endpoint",
         "http://127.0.0.1:9/v1", "--credential-var", "AGENTCAST_KEY"],
    ], ids=["llm", "endpoint", "credential-var", "all"])
    def test_llm_flags_need_llm_mode(self, capsys, tmp_path, flags):
        # a usage error before the input is read: the path does not exist
        code, out, err = run_cli(capsys, "agent", "--input", str(tmp_path / "absent.csv"), *flags)
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            "error: usage: --llm, --endpoint and --credential-var need --mode llm"
        ]

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
        # leaving the with block closes both pipes and waits for the exit
        with subprocess.Popen(
            [sys.executable, "-m", "agentcast.cli", "serve-stub", "--model", "naive"],
            env=src_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            try:
                url = process.stdout.readline().strip()
                assert url.startswith("http://127.0.0.1:")
                with urllib.request.urlopen(f"{url}/health", timeout=5) as resp:
                    payload = json.loads(resp.read())
                assert payload == {"status": "ok", "model": "naive"}
            finally:
                process.terminate()


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


def mixed_features_panel():
    """Short, constant, all-zero and trended series: the features CSV then
    holds empty cells and both ``true`` and ``false``."""
    t = np.arange(40, dtype=float)
    return make_panel({
        "short": [3.0, 1.0, 4.0, 1.0, 5.0],
        "constant": [7.25] * 30,
        "zero": [0.0] * 30,
        "trended": list(20.0 + 1.7 * t + 4.0 * np.sin(t)),
    })


# SHA-256 of the features CSV and of a CLI run's stdout then stderr,
# frozen before the three CSV writers shared one cell rule.
FEATURES_CSV_DIGESTS = {
    "air_passengers": "f796c06ceebb2087e6283882c4f4430f6c756a518f67976d566ae4d7b691a7df",
    "month_end": "a63aedafcf54bf1ec1f86f38400d59975285df9387fc8fc30f690169fdfdd97a",
    "mixed": "d5f55044431bd9477a3a898d9c091388934a1b7d92aec31b9bcf0084bc91da22",
}
CLI_OUTPUT_DIGESTS = {
    "features": "e7a1ff6360d6251d5984ad0b56b8e04d0b244ce099f4a1e47e8698ae5b981385",
    "agent": "708a8e7d4e5fb7be2f96f711543d47641e2b390e4c8b1d43fd344a29896469a7",
}


class TestWriterBytes:
    @pytest.mark.parametrize("case", sorted(FEATURES_CSV_DIGESTS))
    def test_features_csv_bytes_unchanged(self, case, air_passengers):
        panel = {
            "air_passengers": lambda: air_passengers,
            "month_end": seeded_month_end_panel,
            "mixed": mixed_features_panel,
        }[case]()
        text = compute_features(panel).to_csv()
        if case == "mixed":
            assert ",," in text and ",true," in text and ",false," in text
        assert hashlib.sha256(text.encode()).hexdigest() == FEATURES_CSV_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(CLI_OUTPUT_DIGESTS))
    def test_cli_output_bytes_unchanged(self, case, capsys, air_csv):
        extra = ("--query", "peak") if case == "agent" else ()
        code, out, err = run_cli(capsys, case, "--input", air_csv, *extra)
        assert code == 0
        digest = hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()
        assert digest == CLI_OUTPUT_DIGESTS[case]
