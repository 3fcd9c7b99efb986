"""Factorial comparison of experiment grids.

Balanced two-way ANOVA with interaction (method x view_config, seeds as
replicates), Tukey HSD post-hoc comparisons driven by a hand-integrated
studentized range distribution, and compact letter display subsets.

Tukey decisions come from the cached bracket of the critical value
q_{k,df,1-alpha}: the 2**-20-wide cell that doubling and bisection would
end in, found by Newton steps in about a quarter of their quadrature passes.
Only a pair whose statistic falls within a rounding band of that bracket
integrates its p-value. The pairwise p-values themselves are integrated only
when ``TukeyGrouping.pvalues`` is read.

scipy.special supplies the normal CDF, the inverse incomplete gamma and the
F upper tail; the studentized range CDF and its inversion, the ANOVA
decomposition (from one (method, view, replicate) array), and the letter
display are implemented here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special as _sp

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
    metric: str = "metric"

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
    def from_rows(cls, rows, metric: str = "metric") -> "ResultsTable":
        rows = list(rows)
        return cls(
            method=tuple(str(r[0]) for r in rows),
            view_config=tuple(str(r[1]) for r in rows),
            seed=tuple(int(r[2]) for r in rows),
            value=np.array([float(r[3]) for r in rows]),
            metric=metric,
        )

    def __len__(self) -> int:
        return len(self.method)

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


def f_sf(f_stat: float, df_num: int, df_den: int) -> float:
    """Upper tail of the F distribution."""
    if df_num < 1 or df_den < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f_stat <= 0.0:
        return 1.0
    return float(_sp.fdtrc(df_num, df_den, f_stat))


@lru_cache(maxsize=8)
def _gauss_legendre(n: int, a: float, b: float):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * nodes, half * weights


@lru_cache(maxsize=64)
def _scale_quadrature(df: int):
    """Nodes, weights and density values for S = sqrt(chi2_df / df)."""
    half = 0.5 * df
    s_lo = math.sqrt(2.0 * float(_sp.gammaincinv(half, 1e-14)) / df)
    s_hi = math.sqrt(2.0 * float(_sp.gammaincinv(half, 1.0 - 1e-14)) / df)
    s, w = _gauss_legendre(400, s_lo, s_hi)
    log_pdf = (
        (1.0 - half) * math.log(2.0)
        + half * math.log(df)
        + (df - 1.0) * np.log(s)
        - 0.5 * df * s * s
        - math.lgamma(half)
    )
    return s, w * np.exp(log_pdf)


def _range_quadrature(
    q: float, k: int, df: int, density: bool = False
) -> tuple[float, float]:
    """P(Q <= q) for q > 0 and, when ``density`` is set, dP/dq (else NaN).

    P(Q <= q) = E_S[F_range(q S)] over the density of the scale factor
    S = sqrt(chi2_df / df), with the normal-range CDF
    F_range(r) = k * Integral phi(u) [Phi(u + r) - Phi(u)]**(k-1) du
    integrated by Gauss-Legendre on [-13, 13] (the integrand is bounded by
    phi(u) outside). The density dP/dq = E_S[S f_range(q S)], with
    f_range(r) = k(k-1) Integral phi(u) phi(u + r) [Phi(u + r) - Phi(u)]**(k-2) du,
    reuses the same 400 x 256 nodes and ``ndtr`` values.
    """
    s, weighted = _scale_quadrature(df)
    u, w = _gauss_legendre(256, -13.0, 13.0)
    w_phi = w * (np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
    x = u + (q * s)[:, None]
    inner = _sp.ndtr(x)
    inner -= _sp.ndtr(u)
    term = inner ** (k - 1)
    term *= w_phi
    per_node = np.clip(k * np.sum(term, axis=1), 0.0, 1.0)
    cdf = float(min(1.0, max(0.0, np.sum(weighted * per_node))))
    if not density:
        return cdf, math.nan
    # term / inner = w phi(u) [Phi(u + r) - Phi(u)]**(k-2), save where inner
    # is 0 (u far in the upper tail), which the density, a guide, can skip
    np.divide(term, inner, out=term, where=inner > 0.0)
    x *= x
    x *= -0.5
    np.exp(x, out=x)
    x *= term
    pdf = k * (k - 1) / math.sqrt(2.0 * math.pi) * np.sum(x, axis=1)
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
    midpoint when cdf < p. Newton steps on grid points find the cell: each
    goes to an end of the cell holding its root estimate, and one that leaves
    the known bracket bisects it (or doubles lo) instead. Only the CDF values
    decide the result; the density only steers.
    """
    k, df = _shape(k, df)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    lo, hi = 0.0, math.inf
    x = 3.5  # a grid point near the usual 5 % critical values
    if df >= 3:
        # the Bonferroni bound over the k (k - 1) / 2 pairwise t tests, exact
        # for k = 2; at df <= 2 it overshoots the root up to ~10x
        t = float(_sp.stdtrit(df, 1.0 - (1.0 - p) / (k * (k - 1))))
        if math.isfinite(t):
            x = max(round(math.sqrt(2.0) * t / _CELL), 1) * _CELL
    for _ in range(100):
        cdf, density = _range_quadrature(x, k, df, density=True)
        power_of_two = x >= 1.0 and math.frexp(x)[0] == 0.5
        if cdf < p or (power_of_two and cdf == p):
            lo = x
        else:
            hi = x
        if hi - lo == _CELL:
            return lo, hi
        # a Newton step on log(1 - cdf), which bends less than cdf over the
        # upper tail and so takes fewer passes
        tail = 1.0 - cdf
        if density > 0.0 and tail > 0.0:
            root = x + tail * math.log(tail / (1.0 - p)) / density
        else:
            root = math.nan
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

    Cached: every metric's report asks for the same (k, df, 1 - alpha).
    """
    lo, hi = _quantile_bracket(k, df, p)
    return 0.5 * (lo + hi)


def _significant(q: np.ndarray, k: int, df: int, alpha: float) -> np.ndarray:
    """studentized_range_sf(q, k, df) < alpha for each statistic in q.

    The critical-value bracket [lo, hi] decides every q outside the band
    [lo - _QUANTILE_TOL, hi + _QUANTILE_TOL]; only a q inside it integrates
    its p-value. The band absorbs rounding: across _QUANTILE_TOL the CDF
    moves by density x 1e-6, which is >= 6e-11 for k <= 50, df >= 3 and
    alpha >= 0.001 (>= 9e-14 even at df = 1), while the rounding noise of
    the 400 x 256-node quadrature sum is <= 1e-15 and 1 - alpha rounds by at
    most 1.1e-16. So a q below the band has a computed p of at least alpha,
    and one above the band a p below it.
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
