"""Factorial comparison of experiment grids.

Balanced two-way ANOVA with interaction (method x view_config, seeds as
replicates), Tukey HSD post-hoc comparisons driven by a hand-integrated
studentized range distribution, and compact letter display subsets.

Tukey decisions come from the cached bracket of the critical value
q_{k,df,1-alpha}: the 2**-20-wide cell that doubling and bisection would
end in, found by Newton steps from the root on a coarse 64-node scale rule,
itself found from one constant start: two full quadrature passes at df >= 3,
where doubling and bisection take 24-26. The Gauss-Legendre rules ship with
the package as a data file. Only a pair whose statistic falls within a
rounding band of that bracket integrates its p-value. The pairwise p-values
themselves are integrated only when ``TukeyGrouping.pvalues`` is read.

Everything is implemented here on numpy and ``math``: a vectorised normal
CDF (W. J. Cody's rational Chebyshev approximations of erf and erfc, Math.
Comp. 23, 1969), the regularized incomplete beta ``_betainc`` (the F tail,
the beta soft labels) and gamma (the chi quantiles) functions, the
studentized range CDF and its inversion, the ANOVA decomposition (from
one (method, view, replicate) array), and the letter display.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "ResultsTable",
    "AnovaRow",
    "AnovaTable",
    "TukeyGrouping",
    "anova2",
    "tukey_hsd",
    "studentized_range_cdf",
    "studentized_range_sf",
    "studentized_range_quantile",
    "f_sf",
]


# ---------------------------------------------------------------- containers


@dataclass(frozen=True)
class ResultsTable:
    """Long-format grid: one (method, view_config, seed, value) per row."""

    method: tuple[str, ...]
    view_config: tuple[str, ...]
    seed: tuple[int, ...]
    value: np.ndarray

    def __post_init__(self):
        value = np.asarray(self.value, dtype=np.float64)
        n = len(self.method)
        if not (len(self.view_config) == len(self.seed) == value.size == n):
            raise ValueError("column lengths differ")
        if n == 0:
            raise ValueError("empty table")
        if not np.all(np.isfinite(value)):
            raise ValueError("metric values must be finite")
        value.flags.writeable = False
        object.__setattr__(self, "value", value)

    @classmethod
    def from_rows(cls, rows) -> "ResultsTable":
        rows = list(rows)
        return cls(
            method=tuple(str(r[0]) for r in rows),
            view_config=tuple(str(r[1]) for r in rows),
            seed=tuple(int(r[2]) for r in rows),
            value=np.array([float(r[3]) for r in rows]),
        )

    def values_by(self, factor: str) -> dict[str, np.ndarray]:
        """Group metric values by one factor ('method' or 'view_config')."""
        if factor not in ("method", "view_config"):
            raise ValueError("factor must be 'method' or 'view_config'")
        keys = getattr(self, factor)
        out: dict[str, list[float]] = {}
        for key, v in zip(keys, self.value):
            out.setdefault(key, []).append(v)
        return {k: np.array(vs) for k, vs in sorted(out.items())}


@dataclass(frozen=True)
class AnovaRow:
    ss: float
    df: int
    f: float
    p: float


@dataclass(frozen=True)
class AnovaTable:
    method: AnovaRow
    view: AnovaRow
    interaction: AnovaRow
    residual: AnovaRow
    ss_total: float
    df_total: int
    degenerate: bool

    def rows(self) -> dict[str, AnovaRow]:
        return {
            "Method": self.method,
            "View": self.view,
            "Method:View": self.interaction,
            "Residual": self.residual,
        }


# ------------------------------------------------------------- distributions


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.0**-52
# the guard of the modified Lentz recurrences against a zero denominator
_TINY = 1e-300


def _nonzero(v: float) -> float:
    return v if abs(v) > _TINY else _TINY


def _stirling_error(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), from its asymptotic
    series for z >= 15 (truncation error < 3e-16)."""
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LOG_SQRT_2PI
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _a_log(a: float, m: float, e: float) -> float:
    """a log(m / a) for m = a + e, by log1p(e / a) when m is near a."""
    return a * (math.log1p(e / a) if abs(e) < 0.5 * a else math.log(m / a))


def _log_beta_front(a: float, b: float, x: float, y: float) -> float:
    """log(x**a y**b / B(a, b)) for y = 1 - x.

    Written as a log(n x / a) + b log(n y / b) + log sqrt(ab / (2 pi n)) minus
    the Stirling errors of a and b plus that of n = a + b, so that lgamma's
    large values (~5000 at df 1862) never cancel. The two logs cancel around
    the mode x = a / n, so both take e = n x - a = b - n y from the smaller
    of x and y.
    """
    n = a + b
    e = n * x - a if x <= y else b - n * y
    return (
        _a_log(a, n * x, e)
        + _a_log(b, n * y, -e)
        + 0.5 * math.log(a * b / n)
        - _LOG_SQRT_2PI
        - _stirling_error(a)
        - _stirling_error(b)
        + _stirling_error(n)
    )


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction of I_x(a, b) = x**a y**b / (a B(a, b)) * cf,
    by the modified Lentz method, for x < (a + 1) / (a + b + 2). Its first
    term 1 - (a + b) x / (a + 1) is taken from y when x is near 1."""
    n = a + b
    d = 1.0 / _nonzero(((a + 1.0) - n * x if x <= y else (1.0 - b) + n * y) / (a + 1.0))
    c, h = 1.0, d
    for m in range(1, 10_000):
        m2 = 2.0 * m
        for coef in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (n + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 / _nonzero(1.0 + coef * d)
            c = _nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for y = 1 - x, with I_0 = 0 and I_1 = 1. The continued
    fraction gives the tail on the side of the mean that x lies on: I_x(a, b)
    itself below it, 1 - I_x(a, b) = I_y(b, a) above it."""
    if x <= 0.0 or y <= 0.0:
        return 0.0 if x <= 0.0 else 1.0
    front = _log_beta_front(a, b, x, y)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(front + math.log(_beta_cf(a, b, x, y) / a))
    upper = front + math.log(_beta_cf(b, a, y, x) / b)
    return math.exp(math.log1p(-math.exp(upper)))


def _log_gamma_tails(a: float, x: float):
    """(log P(a, x), log Q(a, x), log(x**a e**-x / Gamma(a))) for x > 0: P by
    its series below x = a + 1, else Q by its continued fraction (modified
    Lentz); the other is one minus it."""
    e = x - a
    front = _a_log(a, x, e) - e + 0.5 * math.log(a) - _LOG_SQRT_2PI - _stirling_error(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        lower = front + math.log(total)
        return lower, math.log1p(-math.exp(lower)), front
    bb = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / bb
    h = d
    for i in range(1, 10_000):
        coef = -i * (i - a)
        bb += 2.0
        d = 1.0 / _nonzero(coef * d + bb)
        c = _nonzero(bb + coef / c)
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            upper = front + math.log(h)
            return math.log1p(-math.exp(upper)), upper, front
    raise RuntimeError("incomplete gamma continued fraction failed to converge")


def _newton_root(log_tail, target: float, s: float) -> float:
    """The s with log_tail(s)[0] = target, where log_tail returns the value
    and slope of a monotone function that is concave, or convex and entered
    from the side where the value exceeds the target: Newton steps converge
    after at most one overshoot."""
    for _ in range(200):
        value, slope = log_tail(s)
        step = (value - target) / slope
        s -= step
        if abs(step) <= 1e-10 * max(1.0, abs(s)):
            return s
    raise RuntimeError("Newton iteration failed to converge")


def _gamma_quantile(a: float, tail: float, upper: bool) -> float:
    """x with P(a, x) = tail, or Q(a, x) = tail when ``upper``, by Newton
    steps on the log of the tail.

    log P is concave in log x (the log of a gamma variable has a log-concave
    density), and the start (tail Gamma(a + 1))**(1 / a) lies at or below the
    root, since P(a, x) <= x**a / Gamma(a + 1). log Q is concave in x for
    a >= 1 and convex for a < 1, and the start x = a lies below the root for
    any tail below Q(a, a) (0.32 at a = 1/2).
    """
    log_target = math.log(tail)
    if upper:

        def log_q(x):
            _, value, front = _log_gamma_tails(a, x)
            return value, -math.exp(front - value) / x

        return _newton_root(log_q, log_target, a)

    def log_p(s):
        value, _, front = _log_gamma_tails(a, math.exp(s))
        return value, math.exp(front - value)

    start = (log_target + math.lgamma(a + 1.0)) / a
    return math.exp(_newton_root(log_p, log_target, start))


def f_sf(f_stat: float, df_num: int, df_den: int) -> float:
    """Upper tail of the F distribution, I_x(df_den / 2, df_num / 2) at
    x = df_den / (df_den + df_num f_stat)."""
    if df_num < 1 or df_den < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f_stat <= 0.0:
        return 1.0
    if math.isnan(f_stat):
        return math.nan
    v = df_num * f_stat
    x, y = df_den / (df_den + v), v / (df_den + v)
    return _betainc(0.5 * df_den, 0.5 * df_num, x, y)


# The Gauss-Legendre rules on [-1, 1] that the quadratures use, shipped as
# one (2, 720) array: nodes in row 0, weights in row 1, the 64-, 256- and
# 400-node rules one after another, as np.polynomial.legendre.leggauss(n)
# gives them. Its eigen-solve (Golub & Welsch, Math. Comp. 1969) would cost
# each process ~35 ms.
_RULE_FILE = "gauss_legendre.npy"
_RULE_SIZES = (64, 256, 400)
# the scale rule of _quantile_bracket's coarse root and of every other pass
_COARSE_SCALE_NODES, _SCALE_NODES = 64, 400
_SCALE_BLOCK = 100  # scale nodes per block of _range_quadrature


@lru_cache(maxsize=1)
def _legendre_rules() -> dict[int, np.ndarray]:
    table = np.load(Path(__file__).with_name(_RULE_FILE))
    table.flags.writeable = False  # every caller shares these arrays
    ends = np.cumsum(_RULE_SIZES)
    return {n: table[:, end - n : end] for n, end in zip(_RULE_SIZES, ends)}


def _gauss_legendre(n: int, a: float, b: float):
    nodes, weights = _legendre_rules()[n]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * nodes, half * weights


@lru_cache(maxsize=64)
def _scale_quadrature(df: int, n: int):
    """Nodes, weights and density values for S = sqrt(chi2_df / df), by the
    n-node rule."""
    half = 0.5 * df
    # the chi2_df quantiles at 1e-14 and at 1 - 1e-14 as rounded (an upper
    # tail of 9.992e-15); brackets at df = 1 past p = 0.9999 move with them
    s_lo = math.sqrt(2.0 * _gamma_quantile(half, 1e-14, upper=False) / df)
    s_hi = math.sqrt(2.0 * _gamma_quantile(half, 1.0 - (1.0 - 1e-14), upper=True) / df)
    s, w = _gauss_legendre(n, s_lo, s_hi)
    log_pdf = (
        (1.0 - half) * math.log(2.0)
        + half * math.log(df)
        + (df - 1.0) * np.log(s)
        - 0.5 * df * s * s
        - math.lgamma(half)
    )
    return s, w * np.exp(log_pdf)


# Cody's coefficients (his CALERF, after Math. Comp. 23, 1969), each a
# numerator and a denominator in _cody_ratio's order: erf(y) = y R(y^2) for
# |y| <= 0.46875, erfc(y) = exp(-y^2) R(y) for 0.46875 < y <= 4, and
# erfc(y) = exp(-y^2) (1 / sqrt(pi) - R(1 / y^2) / y^2) / y beyond
_ERF_SMALL = (
    (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
     3.20937758913846947e03, 1.85777706184603153e-1),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)  # fmt: skip
_ERFC_MID = (
    (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
     2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
     2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)  # fmt: skip
_ERFC_FAR = (
    (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)  # fmt: skip


def _cody_ratio(z: np.ndarray, coefs) -> np.ndarray:
    # in place, since a temporary of the 400 x 256 grid costs about as much
    # to allocate as to fill
    num, den = coefs
    top, bottom = num[-1] * z, z.copy()
    for a, b in zip(num[:-2], den[:-1]):
        top += a
        top *= z
        bottom += b
        bottom *= z
    top += num[-2]
    bottom += den[-1]
    top /= bottom
    return top


def _half_exp_neg_square(y: np.ndarray) -> np.ndarray:
    e = y * y
    np.negative(e, out=e)
    np.exp(e, out=e)
    e *= 0.5
    return e


def _ndtr(x) -> np.ndarray:
    """The standard normal CDF, elementwise: (1 + erf(x / sqrt 2)) / 2 near
    0, else erfc(|x| / sqrt 2) / 2 or one minus it, by Cody's approximations.
    Within 2.2e-16 of scipy.special.ndtr on [-40, 40]; a NaN stays NaN."""
    z = np.asarray(x, dtype=np.float64) * math.sqrt(0.5)
    y = np.abs(z)
    out = np.empty_like(y)
    near = y <= 0.46875
    z_near = z[near]
    erf = _cody_ratio(z_near * z_near, _ERF_SMALL)
    erf *= z_near
    erf *= 0.5
    erf += 0.5
    out[near] = erf
    mid = ~near & (y <= 4.0)
    y_mid = y[mid]
    erfc = _half_exp_neg_square(y_mid)
    erfc *= _cody_ratio(y_mid, _ERFC_MID)
    out[mid] = erfc
    # erfc(6) / 2 = 1.1e-17 < 2**-54, so one minus it rounds to 1
    one = z >= 6.0
    out[one] = 1.0
    far = ~(near | mid | one)
    y_far = y[far]
    with np.errstate(over="ignore"):  # y**2 of a huge y is inf, its erfc 0
        r = y_far * y_far
        np.reciprocal(r, out=r)
        erfc = _cody_ratio(r, _ERFC_FAR)
        erfc *= r
        np.subtract(1.0 / math.sqrt(math.pi), erfc, out=erfc)
        erfc /= y_far
        erfc *= _half_exp_neg_square(y_far)
    out[far] = erfc
    upper = ~(near | one) & (z > 0.0)
    out[upper] = 1.0 - out[upper]
    return out


@lru_cache(maxsize=1)
def _range_nodes():
    """The 256 Gauss-Legendre nodes u on [-13, 13], their weights times
    phi(u), and Phi(u)."""
    u, w = _gauss_legendre(256, -13.0, 13.0)
    return u, w * (np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)), _ndtr(u)


def _range_quadrature(
    q: float, k: int, df: int, density: bool = False, n_scale: int = _SCALE_NODES
) -> tuple[float, float]:
    """P(Q <= q) for q > 0 and, when ``density`` is set, dP/dq (else NaN),
    over an n_scale-node rule for S.

    P(Q <= q) = E_S[F_range(q S)] over the density of the scale factor
    S = sqrt(chi2_df / df), with the normal-range CDF
    F_range(r) = k * Integral phi(u) [Phi(u + r) - Phi(u)]**(k-1) du
    integrated by Gauss-Legendre on [-13, 13] (the integrand is bounded by
    phi(u) outside). The density dP/dq = E_S[S f_range(q S)], with
    f_range(r) = k(k-1) Integral phi(u) phi(u + r) [Phi(u + r) - Phi(u)]**(k-2) du,
    reuses the same n_scale x 256 nodes and ``_ndtr`` values.

    The grid is worked in blocks of ``_SCALE_BLOCK`` scale nodes, so its
    temporaries stay a quarter of the full grid's; each node's row sum and
    the final weighted sums add in the same order as over the whole grid.
    """
    s, weighted = _scale_quadrature(df, n_scale)
    u, w_phi, phi_u = _range_nodes()
    per_node = np.empty(n_scale)
    pdf = np.empty(n_scale)
    for start in range(0, n_scale, _SCALE_BLOCK):
        rows = slice(start, start + _SCALE_BLOCK)
        x = u + (q * s[rows])[:, None]
        inner = _ndtr(x)
        inner -= phi_u
        term = inner ** (k - 1)
        term *= w_phi
        np.sum(term, axis=1, out=per_node[rows])
        if not density:
            continue
        # term / inner = w phi(u) [Phi(u + r) - Phi(u)]**(k-2), save where
        # inner is 0 (u far in the upper tail), which the density, a guide,
        # can skip
        np.divide(term, inner, out=term, where=inner > 0.0)
        x *= x
        x *= -0.5
        np.exp(x, out=x)
        x *= term
        np.sum(x, axis=1, out=pdf[rows])
    per_node = np.clip(k * per_node, 0.0, 1.0)
    cdf = float(min(1.0, max(0.0, np.sum(weighted * per_node))))
    if not density:
        return cdf, math.nan
    pdf = k * (k - 1) / math.sqrt(2.0 * math.pi) * pdf
    return cdf, float(np.sum(weighted * s * pdf))


def _shape(k: int, df: int) -> tuple[int, int]:
    """k and df as Python ints; a ValueError for a bool, a non-integer (even
    3.0) or a value below 2 (k) or 1 (df)."""
    for name, value, least in (("k", k, 2), ("df", df, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    return int(k), int(df)


def studentized_range_cdf(q: float, k: int, df: int) -> float:
    """P(Q <= q) for the studentized range of k groups with df error dof.

    Integrates the normal-range CDF against the density of the scale factor
    S = sqrt(chi2_df / df): P(Q <= q) = E_S[ F_range(q S) ].
    """
    k, df = _shape(k, df)
    if math.isnan(q):
        raise ValueError("q must not be NaN")
    if not math.isfinite(q):
        return 1.0 if q > 0 else 0.0
    if q <= 0.0:
        return 0.0
    return _range_quadrature(q, k, df)[0]


def studentized_range_sf(q: float, k: int, df: int) -> float:
    return 1.0 - studentized_range_cdf(q, k, df)


# Absolute width of the critical-value bracket, and the rounding band around
# it inside which a Tukey decision integrates its p-value.
_QUANTILE_TOL = 1e-6
# The bracket's width, and the spacing of the grid its ends lie on: 2**-20,
# the largest power of two <= _QUANTILE_TOL (see _quantile_bracket).
_CELL = 2.0 ** math.floor(math.log2(_QUANTILE_TOL))
# Where every coarse search starts: a q of the order of the critical values a
# Tukey table asks for. Newton steps on log(1 - cdf) bend little over the
# upper tail, so one start serves every (k, df, p); only the step count
# depends on it, never the bracket.
_START = 3.5


def _log_tail_newton(x: float, cdf: float, density: float, p: float) -> float:
    """The root of cdf(q) = p by one Newton step from x on log(1 - cdf),
    which bends less than cdf over the upper tail and so takes fewer steps;
    NaN where the step cannot be taken."""
    tail = 1.0 - cdf
    if density > 0.0 and tail > 0.0:
        return x + tail * math.log(tail / (1.0 - p)) / density
    return math.nan


def _coarse_root(k: int, df: int, p: float) -> float:
    """The root of cdf(q) = p on the coarse scale rule, by Newton steps from
    ``_START`` until one moves less than 1e-3 of a cell.

    A coarse pass costs about a tenth of a full one, and its root lies within
    a cell of the full rule's at every df >= 3 bracket pinned in the tests,
    so the full search that starts there needs only its two passes. A step
    that cannot be taken, or that would end at q <= 0, stops at the last x:
    the full search reaches its cell from any start.
    """
    x = _START
    for _ in range(20):
        cdf, density = _range_quadrature(
            x, k, df, density=True, n_scale=_COARSE_SCALE_NODES
        )
        root = _log_tail_newton(x, cdf, density, p)
        if not root > 0.0:
            return x
        if abs(root - x) < 1e-3 * _CELL:
            return root
        x = root
    return x


# typed, so that k=3.0 or k=True misses the entry of k=3 and is rejected
@lru_cache(maxsize=64, typed=True)
def _quantile_bracket(k: int, df: int, p: float) -> tuple[float, float]:
    """The [lo, hi] around the root of cdf(q) = p that doubling hi from
    [0, 1] until cdf(hi) > p, then bisecting until hi - lo <= _QUANTILE_TOL,
    returns, bit for bit.

    Doubling stops at [0, 1] or [2^m, 2^(m+1)], and halving either to width
    <= 1e-6 ends at width 2**-20: the bracket is the cell [i, i + 1] * 2**-20
    whose lo that search leaves below the root and whose hi it does not.

    It leaves a doubled power of two below when cdf <= p and a bisection
    midpoint when cdf < p. Newton steps on grid points find the cell, from
    the grid point nearest the coarse root: each goes to an end of the cell
    holding its root estimate, and one that leaves the known bracket bisects
    it (or doubles lo) instead. Only the full rule's CDF values decide the
    result; the density and the coarse rule only steer.
    """
    k, df = _shape(k, df)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if df == 1 and p > 0.999:
        # the 400 scale nodes do not resolve P(S < R / q) there: at k = 2 the
        # quantile is off by 3e-3 at p = 0.9999 and by -59 % at 0.99999
        raise ValueError("p above 0.999 is out of the quadrature's reach at df = 1")
    x = max(round(_coarse_root(k, df, p) / _CELL), 1) * _CELL
    lo, hi = 0.0, math.inf
    for _ in range(100):
        cdf, density = _range_quadrature(x, k, df, density=True)
        power_of_two = x >= 1.0 and math.frexp(x)[0] == 0.5
        if cdf < p or (power_of_two and cdf == p):
            lo = x
        else:
            hi = x
        if hi - lo == _CELL:
            return lo, hi
        root = _log_tail_newton(x, cdf, density, p)
        if lo < root < hi:
            # the end of root's cell nearer to it, unless that end is known
            end = math.floor(root / _CELL) * _CELL
            if end == lo or (root - end >= 0.5 * _CELL and end + _CELL < hi):
                end += _CELL
            x = end
        elif hi == math.inf:
            x = 2.0 * lo
        else:
            x = math.floor(0.5 * (lo + hi) / _CELL) * _CELL
    raise RuntimeError("studentized range quantile failed to converge")


@lru_cache(maxsize=64, typed=True)
def studentized_range_quantile(k: int, df: int, p: float) -> float:
    """Inverse CDF: the midpoint of the 2**-20-wide critical-value bracket.

    Cached: every metric's report asks for the same (k, df, 1 - alpha). A
    ValueError at df = 1 with p > 0.999, where the quadrature is inaccurate.
    """
    lo, hi = _quantile_bracket(k, df, p)
    return 0.5 * (lo + hi)


def _significant(q: np.ndarray, k: int, df: int, alpha: float) -> np.ndarray:
    """studentized_range_sf(q, k, df) < alpha for each statistic in q.

    The critical-value bracket [lo, hi] decides every q outside the band
    [lo - _QUANTILE_TOL, hi + _QUANTILE_TOL]; only a q inside it integrates
    its p-value. The band absorbs numerical error: across _QUANTILE_TOL the
    CDF moves by density x 1e-6, which is >= 6e-11 for k <= 50, df >= 3 and
    alpha >= 0.001 (>= 9e-14 even at df = 1). Against that, the rounding
    noise of the 400 x 256-node quadrature sum is <= 1e-15, 1 - alpha rounds
    by at most 1.1e-16, and _ndtr's error of at most 2.2e-16 moves the CDF by
    at most k x 4.4e-16 <= 2.2e-14 (each difference Phi(u + r) - Phi(u) is
    off by <= 4.4e-16, and the derivative of F_range in it integrates to at
    most k), so two computed CDF values are off by less than 4.6e-14 between
    them. So a q below the band has a computed p of at least alpha, and one
    above the band a p below it.
    """
    q = np.asarray(q, dtype=np.float64)
    lo, hi = _quantile_bracket(k, df, 1.0 - alpha)
    out = q > hi + _QUANTILE_TOL
    for i in np.flatnonzero((q >= lo - _QUANTILE_TOL) & ~out):
        out[i] = studentized_range_sf(float(q[i]), k, df) < alpha
    return out


# -------------------------------------------------------------------- anova


def anova2(table: ResultsTable) -> AnovaTable:
    """Balanced two-way ANOVA with interaction.

    Standard balanced-factorial decomposition: with cell means over R
    replicates, SS_A = bR sum (mean_a - mean)^2, SS_B likewise, SS_AB the
    interaction contrast, SS_res the within-cell scatter. F = MS_effect /
    MS_res; p from the F upper tail. A zero residual mean square marks the
    table degenerate: F is +inf (p = 0) for effects with positive SS and NaN
    otherwise.
    """
    a_levels, a_idx = np.unique(table.method, return_inverse=True)
    b_levels, b_idx = np.unique(table.view_config, return_inverse=True)
    a, b = a_levels.size, b_levels.size
    if a < 2 or b < 2:
        raise ValueError("both factors need at least 2 levels")
    counts = np.bincount(a_idx * b + b_idx, minlength=a * b)
    r = int(counts[0])
    if np.any(counts != r):
        raise ValueError("unbalanced design: unequal cell counts")
    if r < 2:
        raise ValueError("need at least 2 replicates per cell")

    # (a, b, r) cube of replicates; the stable sort keeps each cell's rows
    # in table order
    y = table.value
    cube = y[np.lexsort((b_idx, a_idx))].reshape(a, b, r)
    grand = float(y.mean())
    cell_means = cube.mean(axis=2)
    a_means = cell_means.mean(axis=1)
    b_means = cell_means.mean(axis=0)

    ss_a = b * r * float(((a_means - grand) ** 2).sum())
    ss_b = a * r * float(((b_means - grand) ** 2).sum())
    inter = cell_means - a_means[:, None] - b_means[None, :] + grand
    ss_ab = r * float((inter**2).sum())
    ss_res = float(((cube - cell_means[:, :, None]) ** 2).sum())
    ss_total = float(((y - grand) ** 2).sum())

    df_a, df_b = a - 1, b - 1
    df_ab = df_a * df_b
    df_res = a * b * (r - 1)
    ms_res = ss_res / df_res
    degenerate = ms_res == 0.0

    def row(ss: float, df: int) -> AnovaRow:
        if degenerate:
            f_stat = math.inf if ss > 0.0 else math.nan
        else:
            f_stat = (ss / df) / ms_res
        return AnovaRow(ss=ss, df=df, f=f_stat, p=f_sf(f_stat, df, df_res))

    return AnovaTable(
        method=row(ss_a, df_a),
        view=row(ss_b, df_b),
        interaction=row(ss_ab, df_ab),
        residual=AnovaRow(ss=ss_res, df=df_res, f=math.nan, p=math.nan),
        ss_total=ss_total,
        df_total=y.size - 1,
        degenerate=degenerate,
    )


# -------------------------------------------------------------------- tukey


@dataclass(frozen=True)
class TukeyGrouping:
    """Tukey HSD outcome: means, pairwise q statistics, and CLD subsets.

    levels are ordered by ascending mean; subsets are named S1..Sk in the
    same order and letters[level] lists the subsets containing that level.
    q_stats maps each pair (lower mean first) to its studentized range
    statistic; pvalues integrates the matching p-values on first read.
    """

    levels: tuple[str, ...]
    means: np.ndarray
    q_stats: dict[tuple[str, str], float]
    subsets: tuple[tuple[str, ...], ...]
    letters: dict[str, tuple[str, ...]]
    alpha: float
    df: int
    q_critical: float

    @cached_property
    def pvalues(self) -> dict[tuple[str, str], float]:
        k = len(self.levels)
        return {
            pair: studentized_range_sf(q, k, self.df)
            for pair, q in self.q_stats.items()
        }


def _compact_letter_display(
    levels: list[str], significant: set[tuple[str, str]]
) -> list[list[str]]:
    """Insert-and-absorb: split every column containing a significant pair,
    then drop columns contained in another. Guarantees two levels share a
    column iff their pair is not significant."""
    columns: list[set[str]] = [set(levels)]
    for x, y_ in sorted(significant):
        split: list[set[str]] = []
        for col in columns:
            if x in col and y_ in col:
                split.append(col - {x})
                split.append(col - {y_})
            else:
                split.append(col)
        # absorb: drop columns contained in another (duplicates keep one copy)
        columns = []
        for i, col in enumerate(split):
            redundant = False
            for j, other in enumerate(split):
                if i == j:
                    continue
                if col < other or (col == other and j < i):
                    redundant = True
                    break
            if not redundant:
                columns.append(col)
    order = {name: i for i, name in enumerate(levels)}
    return [sorted(col, key=order.__getitem__) for col in columns]


def tukey_hsd(groups: dict[str, "np.ndarray"], alpha: float = 0.05) -> TukeyGrouping:
    """All-pairs Tukey HSD with pooled within-group variance.

    The pairwise statistic is |mean_a - mean_b| / sqrt(s2/2 (1/n_a + 1/n_b))
    (the Tukey-Kramer form; for equal n it reduces to the classic HSD), at
    k = number of groups and df = total within-group degrees of freedom. A
    pair is significant iff its p-value is below alpha; that is decided from
    the cached critical-value bracket, and a p-value is integrated only for
    a statistic within a rounding band of it. ``pvalues`` integrates all of
    them on first read.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    names = list(groups)
    data = {name: np.asarray(groups[name], dtype=np.float64) for name in names}
    for name, vals in data.items():
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError(f"group {name!r} needs at least 2 values")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"group {name!r} has non-finite values")

    k = len(names)
    df = sum(v.size - 1 for v in data.values())
    pooled = sum(((v - v.mean()) ** 2).sum() for v in data.values()) / df
    if pooled <= 0.0:
        raise ValueError("degenerate pooled variance: all groups constant")

    means = {name: float(v.mean()) for name, v in data.items()}
    ordered = sorted(names, key=lambda name: (means[name], name))
    # first, so that a cold bracket search runs (and is timed) here and
    # _significant finds the bracket cached
    q_critical = studentized_range_quantile(k, df, 1.0 - alpha)

    mean = np.array([means[name] for name in ordered])
    size = np.array([data[name].size for name in ordered])
    a, b = np.triu_indices(k, 1)
    q_stat = np.abs(mean[a] - mean[b]) / np.sqrt(
        0.5 * pooled * (1.0 / size[a] + 1.0 / size[b])
    )
    pairs = [(ordered[i], ordered[j]) for i, j in zip(a.tolist(), b.tolist())]
    significant = {
        pair for pair, sig in zip(pairs, _significant(q_stat, k, df, alpha)) if sig
    }

    columns = _compact_letter_display(ordered, significant)
    columns.sort(key=lambda col: (min(means[m] for m in col), max(means[m] for m in col), col[0]))
    subset_names = [f"S{i + 1}" for i in range(len(columns))]
    letters = {
        name: tuple(
            subset_names[i] for i, col in enumerate(columns) if name in col
        )
        for name in ordered
    }
    return TukeyGrouping(
        levels=tuple(ordered),
        means=mean,
        q_stats=dict(zip(pairs, q_stat.tolist())),
        subsets=tuple(tuple(col) for col in columns),
        letters=letters,
        alpha=alpha,
        df=df,
        q_critical=q_critical,
    )
