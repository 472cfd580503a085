"""Command-line interface.

Subcommands: features, forecast, crossval, evaluate, agent, serve-stub.
Primary output is CSV on stdout (or --output); the agent's explanation
and query answer go to stderr (or --report).  Exit codes: 0 success,
1 runtime error, 2 usage error.  Every failure prints one line of the
form "error: <category>: <detail>" to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .adapters import resolve_models, serve_stub
from .agent import AgentConfig, run_agent
from .errors import AgentcastError
from .evaluation import aggregate_leaderboard, cross_validate
from .features import compute_features
from .llm import LLMConfig
from .models import available_models
from .panel import (
    DEFAULT_ID_COLUMN,
    DEFAULT_LEVELS,
    DEFAULT_TIME_COLUMN,
    DEFAULT_VALUE_COLUMN,
    _emit_csv,
    frames_to_csv,
    parse_panel,
    validate_levels,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argparse with the machine-parsable single-line error contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_levels(text: str):
    """The ``--levels`` type: 'none', or levels that pass validate_levels."""
    if text.strip().lower() == "none":
        return None
    try:
        levels = tuple(float(cell) for cell in text.split(",") if cell.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from None
    try:
        return validate_levels(levels)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_panel(args):
    source = sys.stdin if args.input == "-" else args.input
    return parse_panel(
        source,
        id_column=args.id_col,
        time_column=args.time_col,
        value_column=args.value_col,
        freq=args.freq,
    )


def _cmd_features(args) -> int:
    panel = _load_panel(args)
    _emit_csv(compute_features(panel).to_csv(), args.output or sys.stdout)
    return 0


def _cmd_forecast(args) -> int:
    panel = _load_panel(args)
    forecasters = resolve_models([spec.strip() for spec in args.models.split(",")])
    frames = [f.forecast(panel, args.h, args.levels) for f in forecasters]
    _emit_csv(frames_to_csv(frames), args.output or sys.stdout)
    return 0


def _run_cv(args):
    panel = _load_panel(args)
    models = [spec.strip() for spec in args.models.split(",")]
    cv = cross_validate(
        panel,
        models,
        args.h,
        n_windows=args.windows,
        step=args.step,
        levels=args.levels,
        n_jobs=args.jobs,
    )
    return panel, cv


def _cmd_crossval(args) -> int:
    _, cv = _run_cv(args)
    cv.to_csv(args.output or sys.stdout)
    return 0


def _cmd_evaluate(args) -> int:
    panel, cv = _run_cv(args)
    aggregate_leaderboard(cv, panel).to_csv(args.output or sys.stdout)
    return 0


def _cmd_agent(args) -> int:
    panel = _load_panel(args)
    llm_config = None
    if args.mode == "llm":
        if not args.llm:
            raise AgentcastError("llm mode needs --llm provider:model")
        llm_config = LLMConfig(
            args.llm, endpoint=args.endpoint, credential_var=args.credential_var
        )
    config = AgentConfig(
        mode=args.mode,
        budget=args.budget,
        n_windows=args.windows,
        step=args.step,
        levels=args.levels,
    )
    result = run_agent(panel, query=args.query, h=args.h, config=config, llm_config=llm_config)
    _emit_csv(frames_to_csv([result.frame]), args.output or sys.stdout)
    report = (
        f"selected: {result.selected}\n"
        f"rationale: {result.rationale}\n"
        f"explanation: {result.explanation}\n"
        f"answer: {result.user_query_response}\n"
    )
    _emit_csv(report, args.report or sys.stderr)
    return 0


def _cmd_serve_stub(args) -> int:
    server = serve_stub(host=args.host, port=args.port, alias=args.model)
    print(server.url, flush=True)
    try:
        server.thread.join()
    except KeyboardInterrupt:
        server.close()
    return 0


def _add_io_flags(parser):
    parser.add_argument("--input", required=True, help="long-format CSV path, or - for stdin")
    parser.add_argument("--output", default=None, help="write primary CSV here instead of stdout")
    parser.add_argument("--id-col", default=DEFAULT_ID_COLUMN, help="series id column name")
    parser.add_argument("--time-col", default=DEFAULT_TIME_COLUMN, help="timestamp column name")
    parser.add_argument("--value-col", default=DEFAULT_VALUE_COLUMN, help="value column name")
    parser.add_argument(
        "--freq", default=None, choices=["Y", "Q", "M", "W", "D", "H"],
        help="frequency override (default: infer from timestamps)",
    )


def _add_levels_flag(parser):
    parser.add_argument(
        "--levels", type=_parse_levels, default=DEFAULT_LEVELS,
        help="comma list of quantile levels, or 'none'",
    )


def _add_cv_flags(parser):
    parser.add_argument("--windows", type=int, default=1, help="number of rolling folds")
    parser.add_argument("--step", type=int, default=None, help="spacing between folds (default h)")
    _add_levels_flag(parser)


def build_parser() -> _Parser:
    parser = _Parser(prog="agentcast", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    p = commands.add_parser("features", help="per-series diagnostics as CSV")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_features)

    p = commands.add_parser("forecast", help="forecast with one or more models")
    _add_io_flags(p)
    p.add_argument(
        "--models", required=True,
        help=f"comma list of model specs; builtins: {', '.join(available_models())}",
    )
    p.add_argument("--h", type=int, required=True, help="forecast horizon")
    _add_levels_flag(p)
    p.set_defaults(func=_cmd_forecast)

    for name, func, help_text in (
        ("crossval", _cmd_crossval, "rolling-origin cross-validation rows as CSV"),
        ("evaluate", _cmd_evaluate, "cross-validate and emit the model leaderboard"),
    ):
        p = commands.add_parser(name, help=help_text)
        _add_io_flags(p)
        p.add_argument("--models", required=True, help="comma list of model specs")
        p.add_argument("--h", type=int, required=True, help="forecast horizon")
        _add_cv_flags(p)
        p.add_argument("--jobs", type=int, default=1, help="concurrent requests of adapter: models")
        p.set_defaults(func=func)

    p = commands.add_parser("agent", help="run the full agent pipeline")
    _add_io_flags(p)
    p.add_argument("--query", default=None, help="natural-language question about the forecast")
    p.add_argument("--h", type=int, default=None, help="horizon (default: season length)")
    p.add_argument("--mode", default="deterministic", choices=["deterministic", "llm"])
    p.add_argument("--budget", type=int, default=5, help="max candidate models to evaluate")
    p.add_argument("--llm", default=None, help="provider:model for llm mode")
    p.add_argument("--endpoint", default=None, help="chat endpoint override")
    p.add_argument(
        "--credential-var", default=None,
        help="environment variable holding the API key (never pass the key itself)",
    )
    p.add_argument("--report", default=None, help="write explanation/answer here instead of stderr")
    _add_cv_flags(p)
    p.set_defaults(func=_cmd_agent)

    p = commands.add_parser("serve-stub", help="serve builtin models over the adapter protocol")
    p.add_argument("--model", default="seasonalnaive", help="builtin alias to serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.set_defaults(func=_cmd_serve_stub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "agent" and args.mode != "llm" and (
            (args.llm, args.endpoint, args.credential_var) != (None, None, None)
        ):
            parser.error("--llm, --endpoint and --credential-var need --mode llm")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Overflow and invalid operations already end as typed errors or
        # the naive fallback, so numpy's warnings would only add lines.
        with np.errstate(all="ignore"):
            return args.func(args)
    except AgentcastError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
