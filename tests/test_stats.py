import hashlib
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special as spx
from scipy import stats as sps

from oracles import bisect_quantile_bracket
from ordview import stats
from ordview.stats import (
    _QUANTILE_TOL,
    ResultsTable,
    _quantile_bracket,
    _significant,
    anova2,
    f_sf,
    studentized_range_cdf,
    studentized_range_quantile,
    studentized_range_sf,
    tukey_hsd,
)


def random_balanced_table(rng, n_a=3, n_b=4, r=5):
    rows = []
    for a in range(n_a):
        for b in range(n_b):
            for s in range(r):
                rows.append((f"m{a}", f"v{b}", s, float(rng.normal())))
    return ResultsTable.from_rows(rows)


class TestFDistribution:
    def test_against_scipy(self):
        for f, d1, d2 in [(1.3, 2, 10), (4.5, 13, 90), (0.2, 1, 1), (10.0, 6, 1862)]:
            assert f_sf(f, d1, d2) == pytest.approx(
                sps.f.sf(f, d1, d2), rel=1e-10, abs=1e-14
            )

    # the F upper tails of the ANOVA rows of the grid and report workloads
    # (df_den 21, 26, 1946, 1953) and of the test suite's grids (1862)
    DFS = [(d1, d2) for d1 in (1, 2, 3, 6, 13, 41) for d2 in (1, 3, 21, 26, 180, 1862, 1953)]

    @pytest.mark.parametrize("d1, d2", DFS)
    def test_against_fdtrc(self, d1, d2):
        # F at the upper tails 1e-250 .. 0.999, plus one F a millionth of the
        # smallest (a tail near 1) and one twice the largest
        fs = sps.f.isf(np.geomspace(1e-250, 0.999, 60), d1, d2)
        fs = np.concatenate([fs, [1e-6 * fs[-1], 2.0 * fs[0]]])
        got = np.array([f_sf(float(f), d1, d2) for f in fs])
        want = spx.fdtrc(d1, d2, fs)
        if d1 == d2 == 1:
            # fdtrc is off by 9e-12 at F = 2.5e-12 here; F(1, 1) has the
            # closed form 2 / pi atan(1 / sqrt(F))
            want = 2.0 / np.pi * np.arctan(1.0 / np.sqrt(fs))
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("d2", (180, 1862, 5000))
    def test_two_numerator_df_closed_form(self, d2):
        # F(2, d2) has sf (1 + 2 F / d2)**(-d2 / 2); its bulk is where the
        # continued fraction's first term, 1 - (a + b) x / (a + 1) at x near
        # 1, must come from y = 1 - x
        fs = np.linspace(0.01, 8.0, 50)
        got = np.array([f_sf(float(f), 2, d2) for f in fs])
        want = np.exp(-0.5 * d2 * np.log1p(2.0 * fs / d2))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_edges(self):
        for d1, d2 in [(1, 1), (3, 1862)]:
            assert f_sf(0.0, d1, d2) == 1.0 == spx.fdtrc(d1, d2, 0.0)
            assert f_sf(math.inf, d1, d2) == 0.0 == spx.fdtrc(d1, d2, math.inf)
            assert f_sf(1e308, d1, d2) == pytest.approx(spx.fdtrc(d1, d2, 1e308), rel=1e-12)
            assert math.isnan(f_sf(math.nan, d1, d2))
        # y = 1 - x underflows to 0 at the smallest positive F
        assert f_sf(5e-324, 1, 2000) == 1.0 == spx.fdtrc(1, 2000, 5e-324)


class TestScipyFreeFunctions:
    """stats' own normal CDF and chi quantiles against scipy.special."""

    def test_ndtr_dense_grid(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 800_001), [-np.inf, np.inf]])
        assert np.max(np.abs(stats._ndtr(x) - spx.ndtr(x))) <= 1e-15
        assert stats._ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
        assert math.isnan(stats._ndtr(np.array([np.nan]))[0])

    def test_chi_bounds_against_gammaincinv(self):
        # the bounds of _scale_quadrature, half * S**2, for every df up to 5000
        half = 0.5 * np.arange(1, 5001)
        lo = [stats._gamma_quantile(a, 1e-14, upper=False) for a in half.tolist()]
        hi = [stats._gamma_quantile(a, 1.0 - (1.0 - 1e-14), upper=True) for a in half.tolist()]
        np.testing.assert_allclose(lo, spx.gammaincinv(half, 1e-14), rtol=1e-12, atol=0)
        np.testing.assert_allclose(hi, spx.gammaincinv(half, 1.0 - 1e-14), rtol=1e-12, atol=0)


class TestShippedRules:
    """The Gauss-Legendre rules ship as a file, read on first use."""

    SHA256 = "0e675806dbff3645fe0e6fb2984161f12e324243d3b30bb3cbecd288fa3c5988"

    def test_file_pinned_and_equal_to_leggauss(self):
        path = Path(stats.__file__).with_name(stats._RULE_FILE)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SHA256
        rules = stats._legendre_rules()
        assert sorted(rules) == [64, 256, 400]
        for n, (nodes, weights) in rules.items():
            want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-15)
            np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-15)

    def test_read_once_never_computed(self, monkeypatch):
        def fail(n):
            raise AssertionError(f"the {n}-node rule was computed")

        loads = []
        load = np.load

        def counting(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", fail)
        monkeypatch.setattr(np, "load", counting)
        caches = (
            stats._legendre_rules,
            stats._scale_quadrature,
            stats._range_nodes,
            _quantile_bracket,
        )
        for cache in caches:
            cache.cache_clear()
        try:
            # every cold bracket starts on the 64-node rule
            for df in (2, 21, 26, 1946):
                _quantile_bracket(5, df, 0.95)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert len(loads) == 1


class TestAnova:
    def test_hand_decomposition(self):
        rows = [
            ("a1", "b1", 0, 1.0), ("a1", "b1", 1, 1.0),
            ("a1", "b2", 0, 1.0), ("a1", "b2", 1, 1.0),
            ("a2", "b1", 0, 1.0), ("a2", "b1", 1, 1.0),
            ("a2", "b2", 0, 5.0), ("a2", "b2", 1, 5.0),
        ]
        tbl = anova2(ResultsTable.from_rows(rows))
        assert tbl.method.ss == pytest.approx(8.0, abs=1e-12)
        assert tbl.view.ss == pytest.approx(8.0, abs=1e-12)
        assert tbl.interaction.ss == pytest.approx(8.0, abs=1e-12)
        assert tbl.residual.ss == pytest.approx(0.0, abs=1e-12)
        assert tbl.ss_total == pytest.approx(24.0, abs=1e-12)
        assert tbl.degenerate
        assert math.isinf(tbl.method.f) and tbl.method.p == 0.0

    def test_all_equal_is_degenerate_nan(self):
        rows = [(m, v, s, 2.5) for m in "ab" for v in "xy" for s in range(2)]
        tbl = anova2(ResultsTable.from_rows(rows))
        assert tbl.degenerate
        assert math.isnan(tbl.method.f)
        assert math.isnan(tbl.method.p)

    def test_ss_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            tbl = anova2(random_balanced_table(rng))
            parts = (
                tbl.method.ss + tbl.view.ss + tbl.interaction.ss + tbl.residual.ss
            )
            assert parts == pytest.approx(tbl.ss_total, rel=1e-8)
            assert (
                tbl.method.df + tbl.view.df + tbl.interaction.df + tbl.residual.df
                == tbl.df_total
            )
            for row in (tbl.method, tbl.view, tbl.interaction):
                assert 0.0 <= row.p <= 1.0

    def test_matches_scipy_f_oneway_structure(self):
        # marginal F for Method matches a direct computation from group means
        rng = np.random.default_rng(3)
        table = random_balanced_table(rng, n_a=3, n_b=2, r=4)
        tbl = anova2(table)
        assert tbl.method.f == pytest.approx(
            (tbl.method.ss / tbl.method.df) / (tbl.residual.ss / tbl.residual.df),
            rel=1e-12,
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        rows = [
            (f"m{a}", f"v{b}", s, float(rng.normal()))
            for a in range(2) for b in range(3) for s in range(4)
        ]
        shifted = [(m, v, s, val + 100.0) for m, v, s, val in rows]
        t1 = anova2(ResultsTable.from_rows(rows))
        t2 = anova2(ResultsTable.from_rows(shifted))
        assert t1.method.f == pytest.approx(t2.method.f, rel=1e-9)
        assert t1.method.ss == pytest.approx(t2.method.ss, rel=1e-9)

    def test_matches_per_cell_sums_on_shuffled_rows(self):
        # rows in random order: every SS against sums over explicitly
        # grouped cells, so rows must land in their own (method, view) cell
        rng = np.random.default_rng(4)
        rows = [
            (f"m{a}", f"v{b}", s, float(rng.normal() + 0.5 * a - 0.3 * b * b))
            for a in range(3) for b in range(4) for s in range(3)
        ]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        tbl = anova2(ResultsTable.from_rows(rows))
        methods = np.array([m for m, *_ in rows])
        views = np.array([v for _, v, *_ in rows])
        vals = np.array([val for *_, val in rows])
        grand = vals.mean()
        m_mean = {m: vals[methods == m].mean() for m in set(methods)}
        v_mean = {v: vals[views == v].mean() for v in set(views)}
        cell_mean = {
            (m, v): vals[(methods == m) & (views == v)].mean()
            for m in m_mean
            for v in v_mean
        }
        expected = {
            "method": 12 * sum((x - grand) ** 2 for x in m_mean.values()),
            "view": 9 * sum((x - grand) ** 2 for x in v_mean.values()),
            "interaction": 3 * sum(
                (x - m_mean[m] - v_mean[v] + grand) ** 2
                for (m, v), x in cell_mean.items()
            ),
            "residual": sum((val - cell_mean[(m, v)]) ** 2 for m, v, _, val in rows),
        }
        for name, ss in expected.items():
            assert getattr(tbl, name).ss == pytest.approx(ss, rel=1e-10)

    def test_unbalanced_rejected(self):
        rows = [
            ("a", "x", 0, 1.0), ("a", "x", 1, 2.0),
            ("a", "y", 0, 1.0), ("a", "y", 1, 2.0),
            ("b", "x", 0, 1.0), ("b", "x", 1, 2.0),
            ("b", "y", 0, 1.0),
        ]
        with pytest.raises(ValueError):
            anova2(ResultsTable.from_rows(rows))

    def test_single_replicate_rejected(self):
        rows = [("a", "x", 0, 1.0), ("a", "y", 0, 2.0),
                ("b", "x", 0, 3.0), ("b", "y", 0, 4.0)]
        with pytest.raises(ValueError):
            anova2(ResultsTable.from_rows(rows))


class TestStudentizedRange:
    def test_table_value(self):
        # classic table entry q(0.95; k=3, df=10)
        assert studentized_range_quantile(3, 10, 0.95) == pytest.approx(
            3.877, abs=2e-3
        )

    def test_k2_matches_t_distribution(self):
        # for k=2 the range statistic is sqrt(2) * |t|
        for df in (5, 20, 100):
            for q in (0.8, 0.95, 0.99):
                expected = math.sqrt(2.0) * sps.t.ppf(0.5 + q / 2.0, df)
                got = studentized_range_quantile(2, df, q)
                assert got == pytest.approx(expected, abs=1e-4)

    def test_cdf_quantile_roundtrip(self):
        for k, df in [(3, 10), (5, 30), (14, 1862)]:
            x = studentized_range_quantile(k, df, 0.95)
            assert studentized_range_cdf(x, k, df) == pytest.approx(0.95, abs=1e-6)

    def test_monotone_in_q(self):
        qs = [studentized_range_quantile(4, 12, q) for q in (0.5, 0.9, 0.99)]
        assert qs[0] < qs[1] < qs[2]

    def test_quantile_cached(self):
        # every metric's Tukey report asks for the same critical value
        rng = np.random.default_rng(0)
        groups = {f"g{i}": rng.normal(size=6) for i in range(4)}
        studentized_range_quantile.cache_clear()
        tukey_hsd(groups)
        tukey_hsd({name: v + 1.0 for name, v in groups.items()})
        info = studentized_range_quantile.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_against_scipy(self):
        for k, df in [(3, 10), (5, 30), (14, 1862)]:
            got = studentized_range_quantile(k, df, 0.95)
            ref = sps.studentized_range.ppf(0.95, k, df)
            assert got == pytest.approx(ref, abs=1e-3)

    @pytest.mark.parametrize("q, k, df", [(0.3, 2, 1), (3.5, 5, 20), (6.0, 14, 1862)])
    def test_blocked_quadrature_matches_one_block(self, monkeypatch, q, k, df):
        blocked = stats._range_quadrature(q, k, df, density=True)
        monkeypatch.setattr(stats, "_SCALE_BLOCK", stats._SCALE_NODES)
        whole = stats._range_quadrature(q, k, df, density=True)
        assert blocked == whole

    def test_quadrature_memory_is_bounded(self):
        """One 400 x 256 pass with its density: the whole grid's temporaries
        would peak at 4.9 MB, blocks of 100 scale nodes at 1.7 MB."""
        stats._range_quadrature(3.5, 5, 20, density=True)  # fill the caches
        tracemalloc.start()
        try:
            stats._range_quadrature(3.5, 5, 20, density=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * 2**20

    @pytest.mark.parametrize(
        "df, p", [(1, 0.5), (1, 0.9), (1, 0.95), (1, 0.99), (1, 0.999), (2, 0.9), (2, 0.99999)]
    )
    def test_small_df_k2_matches_closed_form(self, df, p):
        # Q = sqrt(2) |T| at k = 2, with t_1((1 + p) / 2) = tan(pi p / 2) and
        # t_2((1 + p) / 2) = p / sqrt((1 - p^2) / 2); the midpoint of the
        # bracket is within half a cell of the computed root
        if df == 1:
            t = math.tan(0.5 * math.pi * p)
        else:
            t = p / math.sqrt(0.5 * (1.0 - p * p))
        exact = math.sqrt(2.0) * t
        got = studentized_range_quantile(2, df, p)
        assert abs(got - exact) <= 0.5 * stats._CELL + 1e-8 * exact

    @pytest.mark.parametrize("p", [math.nextafter(0.999, 1.0), 0.9995, 0.99999])
    def test_df1_past_0999_rejected(self, p, monkeypatch):
        # the quadrature is off by 5e-6 (relative) at 0.9995 and -59 % at 0.99999
        self.forbid_quadrature(monkeypatch)
        with pytest.raises(ValueError, match="out of the quadrature's reach"):
            studentized_range_quantile(2, 1, p)

    @staticmethod
    def forbid_quadrature(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("quadrature ran before the input was checked")

        monkeypatch.setattr(stats, "_range_quadrature", fail)

    def test_nan_q_rejected(self, monkeypatch):
        self.forbid_quadrature(monkeypatch)
        for fn in (studentized_range_cdf, studentized_range_sf):
            with pytest.raises(ValueError, match="q must not be NaN"):
                fn(math.nan, 3, 10)

    @pytest.mark.parametrize(
        "k, df", [(3.5, 10), (3.0, 10), (True, 10), (3, 10.7), (3, 10.0), (3, True)]
    )
    def test_non_integer_or_bool_shape_rejected(self, k, df, monkeypatch):
        # the quantile caches are typed: a cached (3, 10) does not answer (3.0, 10)
        studentized_range_quantile(3, 10, 0.95)
        self.forbid_quadrature(monkeypatch)
        for call in (
            lambda: studentized_range_cdf(3.0, k, df),
            lambda: studentized_range_sf(3.0, k, df),
            lambda: studentized_range_quantile(k, df, 0.95),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                call()

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_p_outside_unit_interval_rejected(self, p, monkeypatch):
        self.forbid_quadrature(monkeypatch)
        with pytest.raises(ValueError, match=r"p must lie strictly inside \(0, 1\)"):
            studentized_range_quantile(3, 10, p)


class TestBracketBits:
    """``_quantile_bracket`` returns the bracket bits of the doubling-and-
    bisection search in ``oracles.bisect_quantile_bracket``."""

    # i = lo / 2**-20 of that search's bracket at p = 0.9, 0.95, 0.99; its hi
    # is (i + 1) * 2**-20
    CELLS = {
        (2, 1): (9362727, 18842163, 94397243),
        (2, 2): (4330076, 6380448, 14717653),
        (2, 5): (2988136, 3811942, 5979306),
        (2, 21): (2551707, 3083880, 4198652),
        (2, 26): (2529278, 3048165, 4120584),
        (2, 1946): (2440332, 2908259, 3823474),
        (2, 1953): (2440328, 2908253, 3823460),
        (2, 2000): (2440300, 2908210, 3823372),
        (3, 1): (14089400, 28285893, 141600394),
        (3, 2): (6011118, 8735458, 19942799),
        (3, 5): (3897673, 4825259, 7314590),
        (3, 21): (3217822, 3737780, 4836190),
        (3, 26): (3183021, 3684874, 4729447),
        (3, 1946): (3045165, 3478164, 4325523),
        (3, 1953): (3045158, 3478154, 4325504),
        (3, 2000): (3045116, 3478092, 4325386),
        (5, 1): (19386259, 38882772, 194589798),
        (5, 2): (7903674, 11409674, 25917848),
        (5, 5): (4890377, 5948702, 8830572),
        (5, 21): (3904478, 4417645, 5512523),
        (5, 26): (3853364, 4342630, 5370236),
        (5, 1946): (3649907, 4048842, 4833133),
        (5, 1953): (3649898, 4048828, 4833109),
        (5, 2000): (3649835, 4048739, 4832951),
        (7, 1): (22548762, 45213162, 226250323),
        (7, 2): (9051835, 13038955, 29570431),
        (7, 5): (5492646, 6637382, 9773653),
        (7, 21): (4308251, 4820620, 5919778),
        (7, 26): (4245941, 4730624, 5753848),
        (7, 1946): (3996369, 4376686, 5127169),
        (7, 1953): (3996358, 4376669, 5127141),
        (7, 2000): (3996281, 4376561, 5126957),
        (14, 1): (28416008, 56961742, 285015696),
        (14, 2): (11217871, 16121649, 36497109),
        (14, 5): (6643453, 7964877, 11613556),
        (14, 21): (5067984, 5585634, 6705610),
        (14, 26): (4981999, 5464134, 6490356),
        (14, 1946): (4630939, 4979482, 5672694),
        (14, 1953): (4630922, 4979460, 5672657),
        (14, 2000): (4630811, 4979310, 5672416),
        (20, 1): (31156530, 62450638, 312472698),
        (20, 2): (12242861, 17583348, 39786603),
        (20, 5): (7196134, 8606751, 12511369),
        (20, 21): (5431755, 5955072, 7090856),
        (20, 26): (5333567, 5817325, 6850153),
        (20, 1946): (4927645, 5262494, 5931027),
        (20, 1953): (4927625, 5262467, 5930985),
        (20, 2000): (4927496, 5262295, 5930713),
    }
    # roots below 1 (k = 2, p = 0.5), so that doubling stops at [0, 1], and
    # roots within one cell below or above 4 and below 2, where doubling
    # stops at the power of two or one step later
    EDGE_CELLS = {
        (2, 26, 0.5): 1014374,
        (7, 26, 0.892710596): 4194303,
        (7, 26, 0.892710742): 4194304,
        (3, 10, 0.629455166): 2097151,
    }
    LIVE = [(14, 1946, 0.95), (2, 26, 0.5), (7, 26, 0.892710596), (20, 1, 0.99)]

    @staticmethod
    def bits(lo, hi):
        return lo.hex(), hi.hex()

    def cell_bits(self, i):
        return self.bits(i * 2.0**-20, (i + 1) * 2.0**-20)

    @pytest.mark.parametrize("k, df", CELLS)
    def test_bracket_bits_pinned(self, k, df):
        got = [self.bits(*_quantile_bracket(k, df, p)) for p in (0.9, 0.95, 0.99)]
        assert got == [self.cell_bits(i) for i in self.CELLS[k, df]]

    @pytest.mark.parametrize("k, df, p", EDGE_CELLS)
    def test_edge_bracket_bits_pinned(self, k, df, p):
        lo, hi = _quantile_bracket(k, df, p)
        assert self.bits(lo, hi) == self.cell_bits(self.EDGE_CELLS[k, df, p])

    @pytest.mark.parametrize("k, df, p", LIVE)
    def test_matches_bisection_oracle(self, k, df, p):
        want = bisect_quantile_bracket(
            lambda q: studentized_range_cdf(q, k, df), p, _QUANTILE_TOL
        )
        assert self.bits(*_quantile_bracket(k, df, p)) == self.bits(*want)

    # off the pinned grid: lower-tail p with many groups, where a start far
    # above the root can cost the full search more halvings than its 100
    # passes, and df = 1
    OFF_PIN = [(50, 4, 0.01), (2, 1, 0.1), (100, 3, 0.001)]

    @pytest.mark.parametrize("k, df, p", OFF_PIN)
    def test_off_pin_brackets_match_oracle_and_scipy(self, k, df, p):
        want = bisect_quantile_bracket(
            lambda q: studentized_range_cdf(q, k, df), p, _QUANTILE_TOL
        )
        lo, hi = _quantile_bracket(k, df, p)
        assert self.bits(lo, hi) == self.bits(*want)
        ppf = sps.studentized_range.ppf(p, k, df)
        assert abs(0.5 * (lo + hi) - ppf) <= 1e-6

    @pytest.mark.parametrize(
        "newton",
        [lambda x, cdf, density, p: math.nan, lambda x, cdf, density, p: x + 1.0],
        ids=("no-step", "no-convergence"),
    )
    def test_fallback_search_keeps_the_bits(self, newton, monkeypatch):
        """With no Newton step the search is plain doubling from a start
        below the root, then bisection; with steps that never converge the
        coarse search gives up after 20 and bisection finishes."""
        k, df, p = 5, 21, 0.95
        want = self.bits(*_quantile_bracket(k, df, p))
        monkeypatch.setattr(stats, "_log_tail_newton", newton)
        monkeypatch.setattr(stats, "_START", 0.25)
        got = self.bits(*_quantile_bracket.__wrapped__(k, df, p))
        oracle = bisect_quantile_bracket(
            lambda q: studentized_range_cdf(q, k, df), p, _QUANTILE_TOL
        )
        assert got == want == self.bits(*oracle)

    @pytest.mark.parametrize("cdf, density", [(1.0, 0.5), (0.5, 0.0)])
    def test_newton_step_not_taken_without_tail_or_density(self, cdf, density):
        assert math.isnan(stats._log_tail_newton(3.0, cdf, density, 0.95))


class TestTukey:
    def test_identical_groups_share_subset(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=20)
        groups = {"a": base, "b": base + 1e-4, "c": base - 1e-4}
        out = tukey_hsd(groups)
        assert len(out.subsets) == 1
        assert set(out.subsets[0]) == {"a", "b", "c"}

    def test_separated_group_isolated(self):
        rng = np.random.default_rng(1)
        groups = {
            "lo1": rng.normal(0.0, 0.1, size=20),
            "lo2": rng.normal(0.0, 0.1, size=20),
            "hi": rng.normal(10.0, 0.1, size=20),
        }
        out = tukey_hsd(groups, alpha=0.05)
        top = out.subsets[-1]
        assert top == ("hi",)
        assert set(out.letters["lo1"]) == set(out.letters["lo2"])
        assert out.letters["hi"] != out.letters["lo1"]

    def test_pvalues_match_scipy(self):
        rng = np.random.default_rng(2)
        groups = {
            "a": rng.normal(0.0, 1.0, size=12),
            "b": rng.normal(0.5, 1.0, size=12),
            "c": rng.normal(2.0, 1.0, size=12),
        }
        out = tukey_hsd(groups)
        ref = sps.tukey_hsd(groups["a"], groups["b"], groups["c"])
        name = {0: "a", 1: "b", 2: "c"}
        for i in range(3):
            for j in range(i + 1, 3):
                pair = tuple(sorted((name[i], name[j])))
                key = pair if pair in out.pvalues else pair[::-1]
                assert out.pvalues[key] == pytest.approx(
                    ref.pvalue[i, j], abs=5e-4
                )

    def test_levels_sorted_by_mean(self):
        rng = np.random.default_rng(3)
        groups = {
            "mid": rng.normal(1.0, 0.3, size=10),
            "low": rng.normal(-1.0, 0.3, size=10),
            "high": rng.normal(3.0, 0.3, size=10),
        }
        out = tukey_hsd(groups)
        assert out.levels == ("low", "mid", "high")
        assert np.all(np.diff(out.means) >= 0)

    def test_shared_letter_iff_not_significant(self):
        rng = np.random.default_rng(4)
        groups = {
            "a": rng.normal(0.0, 1.0, size=15),
            "b": rng.normal(0.8, 1.0, size=15),
            "c": rng.normal(1.6, 1.0, size=15),
            "d": rng.normal(6.0, 1.0, size=15),
        }
        out = tukey_hsd(groups, alpha=0.05)
        for (x, y), p in out.pvalues.items():
            shares = bool(set(out.letters[x]) & set(out.letters[y]))
            assert shares == (p >= 0.05)

    def test_zero_variance_rejected(self):
        groups = {"a": np.ones(5), "b": np.ones(5)}
        with pytest.raises(ValueError):
            tukey_hsd(groups)

    def test_dominant_method_tops_structured_grid(self):
        # one clearly best level among many, balanced replicates
        rng = np.random.default_rng(5)
        groups = {f"m{i}": rng.normal(0.3 + 0.01 * i, 0.05, size=20) for i in range(13)}
        groups["winner"] = rng.normal(1.0, 0.05, size=20)
        out = tukey_hsd(groups)
        assert out.subsets[-1] == ("winner",)


class TestBandDecision:
    # (k, df) of the method and view Tukey tables of the grid and report
    # benchmark workloads
    SHAPES = [(2, 26), (7, 21), (14, 1946), (7, 1953)]

    @pytest.mark.parametrize("k, df", SHAPES)
    @pytest.mark.parametrize("alpha", (0.05, 0.01))
    def test_bracket_edges_and_band(self, k, df, alpha):
        lo, hi = _quantile_bracket(k, df, 1.0 - alpha)
        assert 0.0 < hi - lo <= _QUANTILE_TOL
        assert studentized_range_cdf(lo, k, df) <= 1.0 - alpha
        assert studentized_range_cdf(hi, k, df) >= 1.0 - alpha
        d = _QUANTILE_TOL
        q = np.array([lo, hi, 0.5 * (lo + hi), lo - 2.0 * d, hi + 2.0 * d])
        expected = [studentized_range_sf(float(v), k, df) < alpha for v in q]
        assert _significant(q, k, df, alpha).tolist() == expected
        assert expected[3:] == [False, True]

    @staticmethod
    def count_passes(monkeypatch) -> list[int]:
        """The scale-rule size of every _range_quadrature pass, as they run."""
        sizes = []
        quadrature = stats._range_quadrature
        signature = inspect.signature(quadrature)

        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sizes.append(bound.arguments["n_scale"])
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(stats, "_range_quadrature", counting)
        return sizes

    @pytest.mark.parametrize("k, df", SHAPES)
    def test_cold_bracket_takes_2_full_passes(self, k, df, monkeypatch):
        # doubling and bisection take 24-26 full passes; a coarse root more
        # than a cell off fails this. The coarse search from _START takes 4-6
        sizes = self.count_passes(monkeypatch)
        _quantile_bracket.__wrapped__(k, df, 0.95)
        assert sizes.count(400) == 2
        assert sizes.count(64) <= 6

    @pytest.mark.parametrize("k, df", [(2, 1), (7, 2), (20, 1), (14, 2)])
    def test_small_df_cold_bracket_takes_at_most_5_passes(self, k, df, monkeypatch):
        # a full-rule search from _START alone takes 7-9 full passes here; the
        # coarse search from it takes 6-9 coarse ones
        sizes = self.count_passes(monkeypatch)
        for p in (0.9, 0.95, 0.99):
            sizes.clear()
            _quantile_bracket.__wrapped__(k, df, p)
            assert sizes.count(400) <= 5
            assert sizes.count(64) <= 9

    def test_decisions_outside_band_integrate_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(stats, "studentized_range_sf", lambda *a: calls.append(a))
        lo, hi = _quantile_bracket(7, 21, 0.95)
        q = np.array([0.0, lo - 2.0 * _QUANTILE_TOL, hi + 2.0 * _QUANTILE_TOL, 50.0])
        assert _significant(q, 7, 21, 0.05).tolist() == [False, False, True, True]
        assert calls == []

    def test_matches_scipy_away_from_critical_value(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(12):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(2, 8))
            alpha = float(rng.choice([0.01, 0.05, 0.1]))
            groups = {
                f"g{i}": rng.normal(rng.normal(0.0, 1.5), 1.0, size=n) for i in range(k)
            }
            out = tukey_hsd(groups, alpha=alpha)
            for (x, y), q in out.q_stats.items():
                if abs(q - out.q_critical) <= 1e-3:
                    continue
                significant = not set(out.letters[x]) & set(out.letters[y])
                assert significant == (sps.studentized_range.sf(q, k, out.df) < alpha)
                checked += 1
        assert checked > 100


class TestLazyPvalues:
    def test_integrated_only_when_read(self, monkeypatch):
        rng = np.random.default_rng(8)
        groups = {f"m{i}": rng.normal(0.02 * i, 0.05, size=20) for i in range(14)}
        calls = []

        def counting_sf(q, k, df):
            calls.append((q, k, df))
            return studentized_range_sf(q, k, df)

        monkeypatch.setattr(stats, "studentized_range_sf", counting_sf)
        out = tukey_hsd(groups)
        assert calls == []
        pvalues = out.pvalues
        assert len(calls) == len(out.q_stats) == 14 * 13 // 2
        for pair, q in out.q_stats.items():
            assert pvalues[pair] == studentized_range_sf(q, 14, out.df)
        assert out.pvalues is pvalues
        assert len(calls) == 91
