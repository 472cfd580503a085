"""Stepwise seasonal ARIMA fitted by conditional sum of squares.

Differencing orders come first: one seasonal difference when the
seasonal strength is high, then regular differences while the KPSS
test keeps rejecting level stationarity (d <= 2).  A stepwise search
over small (p,q)(P,Q) orders fits each candidate by Levenberg-Marquardt
on the conditional sum of squares residuals and scores it with AICc;
non-stationary or non-invertible fits are skipped.  The LM loop is
numpy, not scipy's MINPACK: the fit must repeat byte for byte, and
MINPACK's steps (scipy 1.17) on the ill-conditioned Jacobians of
near-cancelling AR and MA terms differ between calls with equal inputs.
The four start-set orders fit from zeros.  Each neighbour fits twice,
from zeros and from the fit that was best when its pass began (every lag
block, AR, MA, SAR and SMA, cut or zero-padded and the intercept copied),
and keeps the valid fit with the lower AICc: either start can settle in a
worse local minimum than the other.  Each residual evaluation is one
``convolve`` (the AR half) plus one IIR ``lfilter`` (the MA half, none
for a pure AR order).  The Jacobian is analytic, with no forward
differences: every column is minus a lagged base series (a lag factor
times the series or the residuals, or ones for the intercept) through
the inverse MA filter (Box, Jenkins, Reinsel & Ljung 2015, ch. 7), so all
columns take one 2-D ``lfilter`` pass.  An LM iteration costs that pass,
one SVD of the column-scaled Jacobian and one residual pass per damping
trial.  Forecast variance accumulates psi-weights of the fitted
(integrated) lag polynomials.

scipy's filter (most of a cold ``import agentcast``) is imported by each
candidate fit and by the forecast, not here; the residuals, evaluated
hundreds of times per fit, are handed the filter instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..features import decompose, kpss_statistic, seasonal_strength
from .base import SIGMA2_FLOOR, Forecaster, _aicc, gaussian_quantiles

MAX_PQ = 3
MAX_D = 2
SEASONAL_STRENGTH_D = 0.64
ROOT_MARGIN = 1e-6
_ONE = np.ones(1)
# Levenberg-Marquardt: relative tolerances on the sum of squares and on the
# step, iteration and damping limits
LM_FTOL = 1e-8
LM_XTOL = 1e-8
LM_MAX_ITER = 100
LM_MAX_DAMPING = 1e16


@dataclass(frozen=True)
class ARIMAOrder:
    p: int
    d: int
    q: int
    P: int
    D: int
    Q: int
    m: int
    ar: tuple[float, ...]
    ma: tuple[float, ...]
    seasonal_ar: tuple[float, ...]
    seasonal_ma: tuple[float, ...]
    intercept: float | None
    sigma2: float
    aicc: float

    def __post_init__(self):
        if not (0 <= self.p <= MAX_PQ and 0 <= self.q <= MAX_PQ):
            raise ValueError(f"p,q must lie in 0..{MAX_PQ}")
        if not 0 <= self.d <= MAX_D:
            raise ValueError(f"d must lie in 0..{MAX_D}")
        if not (self.P in (0, 1) and self.D in (0, 1) and self.Q in (0, 1)):
            raise ValueError("seasonal orders must be 0 or 1")

    @property
    def label(self) -> str:
        return _order_label(self.p, self.d, self.q, self.P, self.D, self.Q, self.m)


@dataclass(frozen=True)
class ARIMAFit:
    order: ARIMAOrder
    ar_poly: np.ndarray
    ma_poly: np.ndarray
    residuals: np.ndarray
    w: np.ndarray
    chain: tuple[np.ndarray, ...]
    history: np.ndarray
    candidates: tuple[tuple[str, float], ...]


def _order_label(p, d, q, P, D, Q, m) -> str:
    base = f"ARIMA({p},{d},{q})"
    if m > 1 and (P or D or Q):
        base += f"({P},{D},{Q})[{m}]"
    return base


def _lag_factors(p, q, P, Q, m):
    """params -> (ar, ma, sar, sma), rewriting one [1, 0, ...] array per
    factor in place; a seasonal factor holds -SAR (AR) or +SMA (MA) at lag m."""
    ar, ma, sar, sma = (np.r_[1.0, np.zeros(k)] for k in (p, q, P * m, Q * m))

    def factors(params):
        ar[1:] = -params[:p]
        ma[1:] = params[p : p + q]
        sar[m::m] = -params[p + q : p + q + P]
        sma[m::m] = params[p + q + P : p + q + P + Q]
        return ar, ma, sar, sma

    return factors


def _product(a, b):
    """a times b; a itself when b is the constant 1."""
    return np.convolve(a, b) if len(b) > 1 else a


def _lag_polys(p, q, P, Q, m):
    """params -> (ar_poly, ma_poly), each factor times its seasonal factor."""
    factors = _lag_factors(p, q, P, Q, m)

    def polys(params):
        ar, ma, sar, sma = factors(params)
        return _product(ar, sar), _product(ma, sma)

    return polys


def _css_residuals(w, ar_poly, ma_poly, c, lfilter):
    # lfilter(ar_poly, [1.0], w) is scipy's convolve(b, x)[:len(x)]; numpy swaps
    # operands only when the second is longer, so convolve(w, ar_poly) would sum
    # in another order when len(w) == len(ar_poly).  An identity MA filter would
    # only turn -0.0 into 0.0, and convolve never returns -0.0.
    z = np.convolve(ar_poly, w)[: len(w)]
    if c:
        z = z - c
    return z if len(ma_poly) == 1 else lfilter(_ONE, ma_poly, z)


def _css_least_squares(w, p, q, P, Q, m, use_intercept, lfilter):
    """params -> (the CSS residuals after the burn-in, a thunk for their
    Jacobian).  e = (1/ma_poly)(ar_poly w - c) from a zero state, so the
    derivative in an AR (MA) coefficient is minus sar * w (sma * e), in the
    SAR (SMA) one minus ar * w (ma * e), lagged by the coefficient's lag, and
    in the intercept minus ones, each filtered by 1/ma_poly: every column
    comes from one 2-D filter pass over at most five base series.  The MA
    bases reuse the residual pass's e."""
    burn = p + m * P
    factors = _lag_factors(p, q, P, Q, m)
    # column j is base series rows[j] lagged by lags[j]; the bases are padded
    # in front by the largest lag
    counts = [k for k in (p, q, P, Q, int(use_intercept)) if k]
    rows = np.repeat(np.arange(len(counts)), counts)
    lags = np.array([*range(1, p + 1), *range(1, q + 1), *[m] * (P + Q), *[0] * use_intercept],
                    dtype=int)
    pad = int(lags.max(initial=0))
    cols = (pad + burn - lags)[:, None] + np.arange(len(w) - burn)

    def residuals(params):
        ar, ma, sar, sma = factors(params)
        c = params[-1] if use_intercept else 0.0
        e = _css_residuals(w, _product(ar, sar), _product(ma, sma), c, lfilter)
        return e[burn:], lambda: jacobian(params, e)

    def jacobian(params, e):
        ar, ma, sar, sma = factors(params)  # again: e's pass may not be the last
        sources = [(sar, w)] * (p > 0) + [(sma, e)] * (q > 0) + [(ar, w)] * P + [(ma, e)] * Q
        bases = np.zeros((len(counts), pad + len(w)))
        for row, (factor, series) in enumerate(sources):
            bases[row, pad:] = _product(series, factor)[: len(w)]
        if use_intercept:
            bases[-1, pad:] = 1.0
        if q or Q:
            bases = lfilter(_ONE, _product(ma, sma), bases, axis=1)
        return -bases[rows[:, None], cols].T

    return residuals


def _roots_outside(poly: np.ndarray) -> bool:
    if len(poly) <= 1:
        return True
    roots = np.roots(poly[::-1])
    if roots.size == 0:
        return True
    return bool(np.all(np.abs(roots) > 1.0 + ROOT_MARGIN))


def _damped_steps(jac, f):
    """damping -> the dx minimising |jac dx + f|^2 + damping |norms * dx|^2,
    with ``norms`` the column norms of ``jac`` (a zero norm read as 1), all
    from one SVD of the column-scaled ``jac``."""
    norms = np.sqrt(np.einsum("ij,ij->j", jac, jac))
    norms[norms == 0.0] = 1.0
    u, s, vt = np.linalg.svd(jac / norms, full_matrices=False)
    uf = f @ u
    return lambda damping: -((s / (s * s + damping) * uf) @ vt) / norms


def _levenberg_marquardt(residuals, x):
    """Least squares by Levenberg-Marquardt (Moré 1978).  ``residuals(x)``
    returns the residuals at x and a thunk for their Jacobian there.  Each
    iteration takes one Jacobian and one SVD (``_damped_steps``); its damping
    trials cost one residual pass each, and a step is accepted only when it
    lowers the sum of squares.  Returns the last accepted point, or the start
    when the sum of squares or the gradient is not finite."""
    f, jacobian = residuals(x)
    cost = f @ f
    if not np.isfinite(cost):
        return x
    damping = 1e-3
    for _ in range(LM_MAX_ITER):
        jac = jacobian()
        gradient = f @ jac
        if not (np.all(np.isfinite(gradient)) and np.any(gradient)):
            return x
        step = _damped_steps(jac, f)
        while True:
            dx = step(damping)
            f_new, jacobian_new = residuals(x + dx)
            cost_new = f_new @ f_new
            if cost_new < cost:
                break
            damping *= 10.0
            if damping > LM_MAX_DAMPING:
                return x
        done = (cost - cost_new <= LM_FTOL * cost
                or np.sqrt(dx @ dx) <= LM_XTOL * (np.sqrt(x @ x) + LM_XTOL))
        x, f, cost, jacobian = x + dx, f_new, cost_new, jacobian_new
        damping = max(damping / 10.0, 1e-12)
        if done:
            return x
    return x


def _fit_candidate(w, p, q, P, Q, m, use_intercept, start=None):
    """CSS fit of one order by Levenberg-Marquardt from zeros; with a
    ``start`` fit, also from its coefficients, keeping the valid fit with the
    lower AICc.  Returns None when no fit is valid or the order is not
    estimable."""
    from scipy.signal import lfilter
    n_coef = p + q + P + Q + (1 if use_intercept else 0)
    burn = p + m * P
    n_eff = len(w) - burn
    if n_eff <= n_coef + 2:
        return None

    polys = _lag_polys(p, q, P, Q, m)
    residuals = _css_least_squares(w, p, q, P, Q, m, use_intercept, lfilter)

    def fit_from(x0):
        with np.errstate(over="ignore", invalid="ignore"):
            params = _levenberg_marquardt(residuals, x0)
        c = params[-1] if use_intercept else 0.0
        # copies: the other start's fit rewrites polys' arrays in place
        ar_poly, ma_poly = (poly.copy() for poly in polys(params))
        if not (_roots_outside(ar_poly) and _roots_outside(ma_poly)):
            return None
        eps = _css_residuals(w, ar_poly, ma_poly, c, lfilter)
        with np.errstate(over="ignore"):
            css = float(np.sum(eps[burn:] ** 2))
        if not np.isfinite(css):
            return None
        return {
            "aicc": _aicc(css, n_eff, n_coef + 1),  # plus the innovation variance
            "sigma2": max(css / n_eff, SIGMA2_FLOOR), "c": c if use_intercept else None,
            "ar": params[:p], "ma": params[p : p + q],
            "sar": params[p + q : p + q + P], "sma": params[p + q + P : p + q + P + Q],
            "ar_poly": ar_poly, "ma_poly": ma_poly, "eps": eps,
        }

    x0 = np.zeros(n_coef)
    if use_intercept:
        x0[-1] = w.mean()
    fit = fit_from(x0)
    if start is None:
        return fit
    x0 = x0.copy()
    if use_intercept:
        x0[-1] = start["c"]
    for at, k, key in ((0, p, "ar"), (p, q, "ma"), (p + q, P, "sar"), (p + q + P, Q, "sma")):
        n = min(k, len(start[key]))
        x0[at : at + n] = start[key][:n]
    warm = fit_from(x0)
    if fit is None or (warm is not None and warm["aicc"] < fit["aicc"]):
        return warm
    return fit


def _differencing_chain(y: np.ndarray, m: int) -> tuple[int, list[np.ndarray]]:
    """D and the chain of differenced series: the seasonally differenced
    (D = 1) or plain series, then one regular difference per element while
    KPSS rejects level stationarity (d = len(chain) - 1 <= MAX_D)."""
    seasonal_ok = m > 1 and len(y) >= 3 * m
    D = int(seasonal_ok and seasonal_strength(decompose(y, m)) >= SEASONAL_STRENGTH_D)
    chain = [y[m:] - y[:-m] if D else y]
    while len(chain) <= MAX_D and not kpss_statistic(chain[-1])[1]:
        chain.append(np.diff(chain[-1]))
    return D, chain


def differencing_orders(y: np.ndarray, m: int) -> tuple[int, int]:
    """(d, D): one seasonal difference when seasonal strength >= 0.64,
    then regular differences while KPSS rejects level stationarity."""
    D, chain = _differencing_chain(np.asarray(y, dtype=float), m)
    return len(chain) - 1, D


def arima_fit(y: np.ndarray, m: int) -> ARIMAFit:
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 20:
        raise InsufficientDataError(
            f"auto ARIMA needs at least 20 observations, got {n}"
        )
    seasonal_ok = m > 1 and n >= 3 * m
    # the chain of partially differenced series, for integrating forecasts;
    # the fit runs on its last one
    D, chain = _differencing_chain(y, m)
    d, w = len(chain) - 1, chain[-1]
    use_intercept = (d + D) == 0

    start = [(2, 2, 1, 1), (0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
    if not seasonal_ok:
        start = [(p, q, 0, 0) for (p, q, _, _) in start]
    seen: dict[tuple[int, int, int, int], dict | None] = {}

    def evaluate(order, start=None):
        p, q, P, Q = order
        if not (0 <= p <= MAX_PQ and 0 <= q <= MAX_PQ):
            return None
        if not (0 <= P <= (1 if seasonal_ok else 0) and 0 <= Q <= (1 if seasonal_ok else 0)):
            return None
        if order not in seen:
            seen[order] = _fit_candidate(w, p, q, P, Q, m, use_intercept, start)
        return seen[order]

    best_order, best = None, None
    for order in dict.fromkeys(start):
        fit = evaluate(order)
        if fit and (best is None or fit["aicc"] < best["aicc"]):
            best_order, best = order, fit
    if best is None:
        raise InsufficientDataError("no valid ARIMA candidate")

    for _ in range(25):
        (p, q, P, Q), start_fit = best_order, best
        moves = [
            (p + 1, q, P, Q), (p - 1, q, P, Q),
            (p, q + 1, P, Q), (p, q - 1, P, Q),
            (p, q, P + 1, Q), (p, q, P - 1, Q),
            (p, q, P, Q + 1), (p, q, P, Q - 1),
        ]
        improved = False
        for order in moves:
            fit = evaluate(order, start_fit)
            if fit and fit["aicc"] < best["aicc"] - 1e-12:
                best_order, best = order, fit
                improved = True
        if not improved:
            break

    p, q, P, Q = best_order
    order = ARIMAOrder(
        p=p, d=d, q=q, P=P, D=D, Q=Q, m=m,
        ar=tuple(best["ar"]), ma=tuple(best["ma"]),
        seasonal_ar=tuple(best["sar"]), seasonal_ma=tuple(best["sma"]),
        intercept=best["c"], sigma2=best["sigma2"], aicc=best["aicc"],
    )
    candidates = tuple(
        (_order_label(o[0], d, o[1], o[2], D, o[3], m), f["aicc"] if f else np.inf)
        for o, f in seen.items()
    )
    return ARIMAFit(
        order=order,
        ar_poly=best["ar_poly"],
        ma_poly=best["ma_poly"],
        residuals=best["eps"],
        w=w,
        chain=tuple(chain),
        history=y,
        candidates=candidates,
    )


def _difference_poly(d: int, D: int, m: int) -> np.ndarray:
    poly = np.array([1.0])
    for factor in [[1.0, -1.0]] * d + [np.r_[1.0, np.zeros(m - 1), -1.0]] * D:
        poly = np.convolve(poly, factor)
    return poly


def forecast_arima(fit: ARIMAFit, h: int, levels=None):
    """Mean by lag recursion, variance by psi-weight accumulation."""
    order = fit.order
    c = order.intercept or 0.0
    ar_poly, ma_poly = fit.ar_poly, fit.ma_poly
    w_ext = list(fit.w)
    eps_ext = list(fit.residuals)
    n_ar, n_ma = len(ar_poly) - 1, len(ma_poly) - 1
    for _ in range(h):
        val = c
        for i in range(1, n_ar + 1):
            val -= ar_poly[i] * w_ext[-i]
        for j in range(1, min(n_ma, len(eps_ext)) + 1):
            val += ma_poly[j] * eps_ext[-j]
        w_ext.append(val)
        eps_ext.append(0.0)  # future innovations are zero
    w_fore = np.array(w_ext[len(fit.w):])

    # integrate the regular differences back through the chain
    fore = w_fore
    for series in reversed(fit.chain[:-1]):
        fore = np.cumsum(fore) + series[-1]
    # then the seasonal difference against the original history
    if order.D:
        hist = list(fit.history)
        out = []
        for k in range(h):
            out.append(fore[k] + hist[-order.m])
            hist.append(out[-1])
        fore = np.array(out)

    if levels is None:
        return fore, None
    from scipy.signal import lfilter
    full_ar = np.convolve(ar_poly, _difference_poly(order.d, order.D, order.m))
    impulse = np.zeros(h)
    impulse[0] = 1.0
    psi = lfilter(ma_poly, full_ar, impulse)
    var = order.sigma2 * np.cumsum(psi**2)
    return fore, gaussian_quantiles(fore, np.sqrt(var), levels)


class AutoARIMA(Forecaster):
    name = "autoarima"
    fallback_to_naive = True

    def _forecast_series(self, y, m, h, levels):
        fit = arima_fit(y, m)
        return forecast_arima(fit, h, levels)
