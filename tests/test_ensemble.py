import ast
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcast.ensemble import median_ensemble, monotonize_quantiles, pava_isotonic
from agentcast.adapters import EnsembleForecaster, resolve_model
from agentcast.errors import AlignmentError, ConfigError, NonFiniteForecastError
from agentcast.evaluation import cross_validate
from agentcast.models import get_model
from agentcast.panel import ForecastEntry, ForecastFrame

from conftest import SRC, make_panel, parse_monthly, src_env


def pava_oracle(values, weights):
    """Enumerate all contiguous block partitions (n <= 10) and return the
    fitted values of the feasible partition with minimal weighted SSE."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(v)
    best_sse, best_fit = np.inf, None
    for boundaries in itertools.product([0, 1], repeat=n - 1):
        cuts = [0] + [i + 1 for i, b in enumerate(boundaries) if b] + [n]
        fit = np.empty(n)
        means = []
        for a, b in zip(cuts, cuts[1:]):
            mean = np.average(v[a:b], weights=w[a:b])
            means.append(mean)
            fit[a:b] = mean
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        sse = float(np.sum(w * (fit - v) ** 2))
        if sse < best_sse:
            best_sse, best_fit = sse, fit
    return best_fit


def frame_from(values_by_key, model="m", levels=None, quantiles_by_key=None):
    panel = make_panel({k: [0.0] * 3 for k in values_by_key})
    from agentcast.panel import future_grid

    entries = {}
    for key, mean in values_by_key.items():
        ts = tuple(future_grid(panel[key].timestamps[-1], panel.freq, len(mean)))
        q = None if quantiles_by_key is None else quantiles_by_key[key]
        entries[key] = ForecastEntry(ts, np.asarray(mean, dtype=float), q, False)
    return ForecastFrame(model, entries, levels)


class TestPavaIsotonic:
    def test_simple_violation_pools_everything(self):
        np.testing.assert_allclose(pava_isotonic([3.0, 1.0, 2.0]), [2.0, 2.0, 2.0])

    def test_monotone_input_unchanged(self):
        np.testing.assert_allclose(pava_isotonic([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_single_pooled_pair(self):
        np.testing.assert_allclose(pava_isotonic([2.0, 1.0]), [1.5, 1.5])

    def test_single_value(self):
        np.testing.assert_allclose(pava_isotonic([4.0]), [4.0])

    def test_weights_shift_the_pool(self):
        out = pava_isotonic([2.0, 1.0], weights=[3.0, 1.0])
        np.testing.assert_allclose(out, [1.75, 1.75])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            pava_isotonic([1.0, 2.0], weights=[1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pava_isotonic([1.0, 2.0], weights=[1.0])

    def test_output_nondecreasing_and_mean_preserving(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(1, 12)
            v = rng.normal(0.0, 3.0, n)
            w = rng.uniform(0.1, 5.0, n)
            out = pava_isotonic(v, w)
            assert np.all(np.diff(out) >= 0.0)
            assert np.sum(w * out) == pytest.approx(np.sum(w * v), abs=1e-9)

    def test_identity_exactly_when_input_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.normal(0.0, 1.0, rng.integers(2, 10))
            out = pava_isotonic(v)
            if np.all(np.diff(v) >= 0.0):
                np.testing.assert_array_equal(out, v)
            else:
                assert not np.array_equal(out, v)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            v = np.round(rng.normal(0.0, 2.0, n), 3)
            w = np.round(rng.uniform(0.5, 3.0, n), 3)
            expected = pava_oracle(v, w)
            np.testing.assert_allclose(pava_isotonic(v, w), expected, atol=1e-9)


class TestMedianEnsemble:
    def test_odd_count_is_robust_to_outliers(self):
        frames = [frame_from({"s": [x, x]}, model=f"m{x}") for x in (1.0, 3.0, 100.0)]
        out = median_ensemble(frames)
        np.testing.assert_allclose(out["s"].mean, [3.0, 3.0])

    def test_even_count_takes_midpoint(self):
        frames = [frame_from({"s": [2.0]}, "a"), frame_from({"s": [4.0]}, "b")]
        np.testing.assert_allclose(median_ensemble(frames)["s"].mean, [3.0])

    def test_identical_members_reproduce_member(self):
        base = frame_from({"s": [5.0, 6.0, 7.0]})
        out = median_ensemble([base, base, base])
        np.testing.assert_array_equal(out["s"].mean, base["s"].mean)

    def test_name_lists_members(self):
        frames = [frame_from({"s": [1.0]}, "naive"), frame_from({"s": [2.0]}, "theta")]
        assert median_ensemble(frames).model == "median_ensemble[naive+theta]"

    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError):
            median_ensemble([])

    def test_point_output_within_member_envelope(self):
        rng = np.random.default_rng(3)
        frames = [
            frame_from({"s": rng.normal(0.0, 5.0, 6)}, model=f"m{i}")
            for i in range(4)
        ]
        out = median_ensemble(frames)["s"].mean
        stacked = np.stack([f["s"].mean for f in frames])
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        frames = [
            frame_from({"s": rng.normal(0.0, 5.0, 5)}, model=f"m{i}")
            for i in range(3)
        ]
        a = median_ensemble(frames)["s"].mean
        b = median_ensemble(frames[::-1])["s"].mean
        np.testing.assert_array_equal(a, b)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(AlignmentError):
            median_ensemble([frame_from({"a": [1.0]}), frame_from({"b": [1.0]})])

    def test_mismatched_levels_rejected(self):
        qa = {"s": np.array([[1.0, 2.0]])}
        fa = frame_from({"s": [1.5]}, "a", levels=(0.1, 0.9), quantiles_by_key=qa)
        fb = frame_from({"s": [1.5]}, "b", levels=(0.2, 0.8), quantiles_by_key=qa)
        with pytest.raises(AlignmentError):
            median_ensemble([fa, fb])

    def test_quantile_free_member_votes_on_points_only(self):
        q = {"s": np.array([[10.0, 20.0], [10.0, 20.0]])}
        fa = frame_from({"s": [1.0, 1.0]}, "a", levels=(0.1, 0.9), quantiles_by_key=q)
        fb = frame_from({"s": [3.0, 3.0]}, "b")
        out = median_ensemble([fa, fb])
        np.testing.assert_allclose(out["s"].mean, [2.0, 2.0])
        np.testing.assert_allclose(out["s"].quantiles, q["s"])
        assert out.levels == (0.1, 0.9)


class TestMonotonizeQuantiles:
    def test_violating_row_is_pooled(self):
        q = {"s": np.array([[10.0, 8.0, 12.0]])}
        frame = frame_from({"s": [9.0]}, levels=(0.1, 0.5, 0.9), quantiles_by_key=q)
        out = monotonize_quantiles(frame)
        np.testing.assert_allclose(out["s"].quantiles, [[9.0, 9.0, 12.0]])
        np.testing.assert_array_equal(out["s"].mean, frame["s"].mean)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        q = {"s": rng.normal(0.0, 2.0, (4, 5))}
        frame = frame_from(
            {"s": np.zeros(4)}, levels=(0.1, 0.3, 0.5, 0.7, 0.9), quantiles_by_key=q
        )
        once = monotonize_quantiles(frame)
        twice = monotonize_quantiles(once)
        np.testing.assert_array_equal(once["s"].quantiles, twice["s"].quantiles)

    def test_constant_row_unchanged(self):
        q = {"s": np.full((2, 3), 4.0)}
        frame = frame_from({"s": [4.0, 4.0]}, levels=(0.1, 0.5, 0.9), quantiles_by_key=q)
        out = monotonize_quantiles(frame)
        np.testing.assert_array_equal(out["s"].quantiles, q["s"])

    def test_frame_without_quantiles_rejected(self):
        with pytest.raises(ValueError):
            monotonize_quantiles(frame_from({"s": [1.0]}))


def quantile_rows(n_levels):
    """Rows that are nondecreasing, have a decreasing step, or hold NaN."""
    cell = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    plain = st.lists(cell, min_size=n_levels, max_size=n_levels)
    return st.one_of(
        plain.map(sorted),
        plain.filter(lambda r: any(b < a for a, b in zip(r, r[1:]))),
        st.tuples(plain, st.integers(0, n_levels - 1)).map(
            lambda t: t[0][: t[1]] + [float("nan")] + t[0][t[1] + 1 :]
        ),
    )


@st.composite
def quantile_matrices(draw):
    n_levels = draw(st.integers(1, 9))
    rows = draw(st.lists(quantile_rows(n_levels), min_size=1, max_size=12))
    return np.array(rows, dtype=float)


class TestMonotonizeMatchesRowwisePava:
    @settings(max_examples=300)
    @given(quantile_matrices())
    def test_bitwise_equal_to_pava_on_every_row(self, q):
        levels = tuple(np.linspace(0.05, 0.95, q.shape[1]))
        frame = frame_from(
            {"s": np.zeros(q.shape[0])}, levels=levels, quantiles_by_key={"s": q.copy()}
        )
        out = monotonize_quantiles(frame)["s"].quantiles
        expected = np.vstack([pava_isotonic(row) for row in q])
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(frame["s"].quantiles, q)  # input untouched


COLD_IMPORTS = {
    # Importing the models package from ensemble.py shifted scipy's import
    # order and made a cold `import agentcast.cli` measurably slower.
    "ensemble": ("agentcast.ensemble", ["agentcast.models"]),
    # scipy is most of a cold import: no module of it loads before the
    # first ARIMA fit, and the Gaussian quantiles use a port of its ndtri.
    "cli": ("agentcast.cli", ["scipy"]),
}


@pytest.mark.parametrize("module, unloaded", COLD_IMPORTS.values(), ids=COLD_IMPORTS)
def test_cold_import_leaves_modules_unloaded(module, unloaded):
    # No listed package nor any of its submodules is loaded.  After the
    # import, one AutoARIMA forecast with quantiles must still work.
    code = (
        f"import sys, {module}\n"
        f"print([m for m in sys.modules for p in {unloaded!r}"
        " if m == p or m.startswith(p + '.')])\n"
        "from agentcast.datasets import load_air_passengers\n"
        "from agentcast.models import get_model\n"
        "from agentcast.panel import Series, SeriesPanel\n"
        "air = load_air_passengers()\n"
        "s = air['AirPassengers']\n"
        "prefix = Series(s.timestamps[:36], s.values[:36])\n"
        "prefix = SeriesPanel({'AirPassengers': prefix}, air.freq)\n"
        "entry = get_model('autoarima').forecast(prefix, 3)\n"
        "print(entry['AirPassengers'].fallback, entry['AirPassengers'].quantiles.shape)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "False (3, 9)"]


def scipy_imports():
    """(file:line, dotted name, inside a function body) per scipy module or
    name that an import statement under src/agentcast names."""
    found = []

    def visit(node, in_function, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, in_function or nested, where)
                continue
            found.extend(
                (f"{where}:{child.lineno}", name, in_function)
                for name in names
                if name.split(".")[0] == "scipy"
            )

    for path in sorted((SRC / "agentcast").rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), False, path.relative_to(SRC))
    return found


def test_scipy_is_imported_in_function_bodies_from_public_modules():
    # The cold-import test above sees one path through the package; this scan
    # sees every import statement.  A module-level scipy import would load it
    # with the package, and a private module (scipy.*._*) such as the C
    # filter behind lfilter may move or change between scipy releases.
    imports = scipy_imports()
    assert imports, "the ARIMA fit and forecast import scipy's filter"
    assert [where for where, _, in_function in imports if not in_function] == []
    private = [(where, name) for where, name, _ in imports
               if any(part.startswith("_") for part in name.split("."))]
    assert private == []


class TestEnsembleForecaster:
    def test_combines_builtin_models(self):
        panel = make_panel({"s": [float(t) for t in range(1, 25)]})
        members = [get_model("naive"), get_model("ses"), get_model("theta")]
        frame = EnsembleForecaster(members).forecast(panel, 4)
        assert frame.model == "median_ensemble[naive+ses+theta]"
        assert frame["s"].mean.shape == (4,)
        rows = frame["s"].quantiles
        assert np.all(np.diff(rows, axis=1) >= 0.0)

    def test_levels_without_quantile_members_rejected(self):
        panel = make_panel({"s": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]})
        with pytest.raises(ConfigError):
            EnsembleForecaster([get_model("croston")]).forecast(panel, 2)

    def test_point_only_when_levels_none(self):
        panel = make_panel({"s": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]})
        frame = EnsembleForecaster([get_model("croston")]).forecast(panel, 2, levels=None)
        assert frame.levels is None


finite_cells = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def finite_quantile_matrices(draw):
    n_levels = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(finite_cells, min_size=n_levels, max_size=n_levels),
                         min_size=1, max_size=12))
    return np.array(rows, dtype=float)


@st.composite
def member_frames(draw):
    """1-6 aligned members; some carry h x L quantiles, some only means."""
    h, n_levels = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    levels = tuple(np.linspace(0.1, 0.9, n_levels)) if n_levels > 1 else (0.5,)
    frames = []
    for i in range(draw(st.integers(1, 6))):
        mean = draw(st.lists(finite_cells, min_size=h, max_size=h))
        q = None
        if i == 0 or draw(st.booleans()):
            cells = draw(st.lists(finite_cells, min_size=h * n_levels, max_size=h * n_levels))
            q = {"s": np.array(cells).reshape(h, n_levels)}
        frames.append(frame_from({"s": mean}, f"m{i}", None if q is None else levels, q))
    return frames


class TestEnsembleProperties:
    @settings(max_examples=300)
    @given(finite_quantile_matrices())
    def test_monotonize_is_monotone_and_keeps_row_means(self, q):
        levels = tuple(np.linspace(0.05, 0.95, q.shape[1]))
        frame = frame_from({"s": np.arange(q.shape[0], dtype=float)}, levels=levels,
                           quantiles_by_key={"s": q.copy()})
        out = monotonize_quantiles(frame)["s"]
        assert (np.diff(out.quantiles, axis=1) >= 0).all()
        # PAVA pools into block means, so each row sum is kept up to rounding
        scale = max(1.0, float(np.abs(q).max()))
        np.testing.assert_allclose(out.quantiles.mean(axis=1), q.mean(axis=1),
                                   rtol=0, atol=1e-12 * scale)
        assert out.mean.tobytes() == frame["s"].mean.tobytes()

    @settings(max_examples=300)
    @given(member_frames())
    def test_median_stays_inside_member_envelope(self, frames):
        out = median_ensemble(frames)["s"]
        means = np.stack([f["s"].mean for f in frames])
        assert (means.min(axis=0) <= out.mean).all() and (out.mean <= means.max(axis=0)).all()
        cells = np.stack([f["s"].quantiles for f in frames if f.levels is not None])
        assert (cells.min(axis=0) <= out.quantiles).all()
        assert (out.quantiles <= cells.max(axis=0)).all()


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestEnsembleFiniteOutput:
    """A median of two members is their midpoint, whose sum can overflow."""

    SPEC = "median_ensemble:naive+seasonalnaive"

    def test_overflowing_median_is_a_forecasting_failure(self):
        panel = parse_monthly([1.5e308] * 36)
        with pytest.raises(NonFiniteForecastError, match="for series 's'"):
            resolve_model(self.SPEC).forecast(panel, 3)

    def test_cross_validation_fails_the_fold(self):
        panel = parse_monthly([1.5e308] * 36)
        cv = cross_validate(panel, [self.SPEC], 3)
        assert cv.failed.all()
        assert np.isnan(cv.yhat).all()

    def test_listed_members_do_not_hide_the_overflow(self):
        # the members' own fold results are finite; their median is not
        panel = parse_monthly([1.5e308] * 36)
        cv = cross_validate(panel, [self.SPEC, "naive", "seasonalnaive"], 3)
        assert cv.failed[0].all() and not cv.failed[1:].any()
        assert np.isnan(cv.yhat[0]).all()
