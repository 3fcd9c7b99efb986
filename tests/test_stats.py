import math

import numpy as np
import pytest
from scipy import stats as sps

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
