"""
Rolling-origin cross-validation and the leaderboard
====================================================

Backtesting replays history: at each cutoff a model sees only the past,
forecasts h steps, and is scored against what actually happened. The
leaderboard aggregates those scores into MASE, CRPS, pinball losses and
interval coverage, then ranks the models.
"""

from agentcast.datasets import load_air_passengers
from agentcast.evaluation import aggregate_leaderboard, cross_validate, rolling_cutoffs

panel = load_air_passengers()

# Three evaluation windows, one year each, stepping a year at a time.
plan = rolling_cutoffs(n=144, h=12, n_windows=3, step=12)
print(f"cutoffs for n=144, h=12: {plan.cutoffs}")

cv = cross_validate(
    panel,
    ["naive", "seasonalnaive", "theta", "autoets",
     "median_ensemble:seasonalnaive+theta+autoets"],
    h=12,
    n_windows=3,
)
print(f"cv forecasts: {len(cv)} "
      f"({len(cv.model_names)} models x 3 folds x 12 steps)")

# MASE scales the error by the in-sample seasonal-naive error, so 1.0
# means "no better than repeating last year". CRPS averages the pinball
# losses over the quantile grid and normalizes by the series scale.
report = aggregate_leaderboard(cv, panel)
print()
print(f"ranked by {report.ranked_by}")
print(f"{'model':46}{'mase':>8}{'crps':>8}{'cover':>7}")
for score in report.scores:
    print(f"{score.model:46}{score.mase:8.3f}{score.crps:8.4f}"
          f"{score.coverage:7.2f}")

# Both reports serialize to CSV for golden-file comparisons.
print()
print(report.to_csv().splitlines()[0])
