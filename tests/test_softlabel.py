import hashlib
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.special import betainc

from oracles import beta_cell_masses, triangle_cell_masses
from ordview.model import FAMILY_GRIDS, _target_rows, method_config
from ordview.stats import _betainc
from ordview.softlabel import (
    KINDS,
    SoftLabelConfig,
    SordConfig,
    target_matrix,
)


def soft_row(kind, k, j, **fields):
    """Row k of the (j, j) target table of one soft-label config."""
    return target_matrix(j, SoftLabelConfig(kind=kind, **fields))[k]


def assert_unimodal_at(dist, k, tol=1e-6):
    assert np.all(dist >= 0)
    assert abs(dist.sum() - 1.0) <= tol
    assert np.argmax(dist) == k
    assert np.all(np.diff(dist[: k + 1]) >= -1e-12)
    assert np.all(np.diff(dist[k:]) <= 1e-12)


class TestOrdinalSmooth:
    def test_mixture_formula(self):
        base = soft_row("triangular", 2, 4, alpha_adjacent=0.05)
        dist = soft_row("triangular", 2, 4, lam=0.8, alpha_adjacent=0.05)
        expected = 0.2 * np.eye(4)[2] + 0.8 * base
        assert np.allclose(dist, expected)


class TestTriangular:
    def test_boundary_reference(self):
        dist = soft_row("triangular", 0, 4, alpha_adjacent=0.05)
        assert np.allclose(dist, [0.95, 0.05, 0.0, 0.0], atol=1e-9)

    def test_interior_adjacent_mass(self):
        dist = soft_row("triangular", 2, 4, alpha_adjacent=0.05)
        assert abs(dist[1] - 0.05) <= 1e-6
        assert abs(dist[3] - 0.05) <= 1e-6

    def test_matches_oracle(self):
        for j in (3, 4, 5):
            for k in range(j):
                for alpha in (0.01, 0.05, 0.10):
                    dist = soft_row("triangular", k, j, alpha_adjacent=alpha)
                    oracle = triangle_cell_masses(k, j, alpha)
                    assert np.max(np.abs(dist - oracle)) < 1e-6

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            SoftLabelConfig(kind="triangular", alpha_adjacent=0.5)


class TestBeta:
    def test_matches_oracle(self):
        for j in (3, 4, 5):
            for k in range(j):
                dist = soft_row("beta", k, j, concentration=10.0)
                oracle = beta_cell_masses(k, j, 10.0)
                assert np.max(np.abs(dist - oracle)) < 1e-6

    @pytest.mark.parametrize("concentration", (2.5, 10.0, 30.0))
    def test_matches_scipy(self, concentration):
        # the CDF at the segment edges within 1e-13 relative of scipy's
        # betainc (2.7e-14 seen), the masses within 1e-14 absolute (7.2e-15)
        config = SoftLabelConfig(kind="beta", concentration=concentration)
        for j in range(2, 11):
            mode = (2 * np.arange(j)[:, None] + 1) / (2.0 * j)
            a = mode * (concentration - 2.0) + 1.0
            b = (1.0 - mode) * (concentration - 2.0) + 1.0
            expected_cdf = betainc(a, b, np.arange(j + 1) / j)
            cdf = [
                [_betainc(ak, bk, q / j, (j - q) / j) for q in range(j + 1)]
                for ak, bk in zip(a[:, 0], b[:, 0])
            ]
            np.testing.assert_allclose(cdf, expected_cdf, rtol=1e-13, atol=0.0)
            masses = np.diff(expected_cdf, axis=1)
            expected = masses / masses.sum(axis=1, keepdims=True)
            table = target_matrix(j, config)
            np.testing.assert_allclose(table, expected, rtol=0.0, atol=1e-14)

    def test_concentration_must_exceed_two(self):
        with pytest.raises(ValueError):
            SoftLabelConfig(kind="beta", concentration=2.0)


class TestExactMasses:
    """The masses are CDF differences, exact to a few ulps."""

    TOL = 16 * np.finfo(float).eps

    def test_triangular_neighbour_masses(self):
        # for alpha <= 0.2 no triangle reaches past its neighbours or the
        # domain, so each neighbour holds exactly alpha
        for j in range(2, 11):
            for k in range(j):
                for alpha in (0.01, 0.05, 0.10, 0.20):
                    expected = np.zeros(j)
                    expected[[q for q in (k - 1, k + 1) if 0 <= q < j]] = alpha
                    expected[k] = 1.0 - expected.sum()
                    dist = soft_row("triangular", k, j, alpha_adjacent=alpha)
                    assert np.max(np.abs(dist - expected)) <= self.TOL

    def test_beta_integer_shapes(self):
        # c = 2 + 2Jt gives integer shapes a, b, whose CDF is a finite
        # binomial sum, evaluated here in exact rational arithmetic
        for j in (2, 3, 4, 5, 10):
            for k in range(j):
                for t in (1, 2, 5, 10):
                    a, b = (2 * k + 1) * t + 1, (2 * j - 2 * k - 1) * t + 1
                    n = a + b - 1

                    def cdf(x):
                        return sum(
                            comb(n, i) * x**i * (1 - x) ** (n - i)
                            for i in range(a, n + 1)
                        )

                    edges = [cdf(Fraction(q, j)) for q in range(j + 1)]
                    expected = np.array(
                        [float(hi - lo) for lo, hi in zip(edges, edges[1:])]
                    )
                    dist = soft_row("beta", k, j, concentration=2.0 + 2.0 * j * t)
                    assert np.max(np.abs(dist - expected)) <= self.TOL


class TestExponential:
    def test_closed_form(self):
        dist = soft_row("exponential", 2, 4, tau=1.0, p_exponent=1.0)
        w = np.exp(-np.abs(np.arange(4) - 2.0))
        assert np.allclose(dist, w / w.sum())

    def test_tau_sharpens(self):
        soft = soft_row("exponential", 2, 5, tau=0.5, p_exponent=1.0)
        sharp = soft_row("exponential", 2, 5, tau=4.0, p_exponent=1.0)
        assert sharp[2] > soft[2]


class TestPropertySuite:
    # every encoder/hyperparameter combination used by the tuning grids
    def test_all_kinds_all_classes(self):
        cases = []
        for lam in (0.8, 1.0):
            for alpha in (0.01, 0.05, 0.10):
                cases.append(
                    SoftLabelConfig(kind="triangular", lam=lam, alpha_adjacent=alpha)
                )
            cases.append(SoftLabelConfig(kind="beta", lam=lam, concentration=10.0))
            for p in (1.0, 1.5, 2.0):
                cases.append(
                    SoftLabelConfig(kind="exponential", lam=lam, p_exponent=p)
                )
        for j in (3, 4, 5, 10):
            for cfg in cases:
                mat = target_matrix(j, cfg)
                assert mat.shape == (j, j)
                for k in range(j):
                    assert_unimodal_at(mat[k], k)

    def test_kind_registry(self):
        assert KINDS == ("triangular", "beta", "exponential")


class TestTargetMatrix:
    def test_cached_and_read_only(self):
        for cfg in (SoftLabelConfig(kind="beta"), SordConfig(beta=2.0)):
            a = target_matrix(4, cfg)
            b = target_matrix(4, cfg)
            assert a is b
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_rows_are_targets(self):
        # each row against its own closed form, one class at a time
        exp_cfg = SoftLabelConfig(kind="exponential", lam=0.8, tau=0.7, p_exponent=1.5)
        sord_cfg = SordConfig(beta=3.0, transform="max")
        for k in range(5):
            phi = np.abs(np.arange(5) - k).astype(float)
            w = np.exp(-0.7 * phi**1.5)
            expected = 0.2 * np.eye(5)[k] + 0.8 * w / w.sum()
            assert np.allclose(target_matrix(5, exp_cfg)[k], expected)
            e = np.exp(-3.0 * phi / phi.max())
            assert np.allclose(target_matrix(5, sord_cfg)[k], e / e.sum())

    @pytest.mark.parametrize("cfg", [SoftLabelConfig(kind="triangular"), SordConfig()])
    def test_needs_two_classes(self, cfg):
        with pytest.raises(ValueError, match="n_classes"):
            target_matrix(1, cfg)


class TestConfigFields:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: SordConfig(beta="2"), "beta"),
            (lambda: SoftLabelConfig(kind="beta", lam="0.5"), "lam"),
            (lambda: SoftLabelConfig(kind=3), "kind"),
        ],
    )
    def test_bad_type_names_field(self, build, field):
        with pytest.raises(ValueError, match=f"^{field}: expected"):
            build()

    def test_int_stored_as_float(self):
        assert type(SordConfig(beta=2).beta) is float
        assert SoftLabelConfig(kind="beta", lam=1) == SoftLabelConfig(kind="beta")


class TestTargetBits:
    """sha256 of every (J, J) target table at J = 2..10, in a fixed order:
    the tables training reads for each family's tuning-grid configs (every
    SORD transform x SMOOTHING_GRID among them), and per soft-label kind the
    tables at off-grid lam, alpha_adjacent, concentration, tau and
    p_exponent."""

    DIGESTS = {
        "grid": "2ad8cb416068d2345ddf82595853265ebe6605fd6b9b4490947ac644da1e82c7",
        "triangular": "02e628e9cecc03f010a04f09c7006d990cc345319b24fa8c01e245759b78075f",
        "beta": "663a411b2d07b35704c9cdc98bda0976afb7fcd969d7faee284ca64fa97d350e",
        "exponential": "ef3f788d4ee448a344cfd8c5cc657b870dffecf89e7889a72538d5190088c258",
    }
    OFF_GRID = {
        "triangular": {"alpha_adjacent": (0.01, 0.05, 0.1, 0.2, 0.3, 0.45)},
        "beta": {"concentration": (2.5, 10.0, 30.0)},
        "exponential": {"tau": (0.5, 1.0, 3.0), "p_exponent": (1.0, 1.5, 2.0)},
    }

    @staticmethod
    def grid_tables(j):
        for family, grid in FAMILY_GRIDS.items():
            for values in itertools.product(*grid.values()):
                config = method_config(family, j, dict(zip(grid, values)))
                yield _target_rows(config)

    @classmethod
    def off_grid_tables(cls, j, kind):
        fields = cls.OFF_GRID[kind]
        for lam in (0.0, 0.3, 0.8, 1.0):
            for values in itertools.product(*fields.values()):
                cfg = SoftLabelConfig(kind=kind, lam=lam, **dict(zip(fields, values)))
                yield target_matrix(j, cfg)

    @pytest.mark.stack_pinned
    @pytest.mark.parametrize("which", sorted(DIGESTS))
    def test_tables_pinned(self, which):
        h = hashlib.sha256()
        for j in range(2, 11):
            if which == "grid":
                tables = self.grid_tables(j)
            else:
                tables = self.off_grid_tables(j, which)
            for table in tables:
                assert table.shape == (j, j) and table.dtype == np.float64
                h.update(np.ascontiguousarray(table).tobytes())
        assert h.hexdigest() == self.DIGESTS[which]
