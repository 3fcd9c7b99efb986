from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oracles import beta_cell_masses, triangle_cell_masses
from ordview.core import argmax_label
from ordview.softlabel import (
    KINDS,
    SoftLabelConfig,
    beta_target,
    exponential_target,
    ordinal_smooth,
    target_matrix,
    triangular_target,
    uniform_smooth,
)


def assert_unimodal_at(dist, k, tol=1e-6):
    assert np.all(dist >= 0)
    assert abs(dist.sum() - 1.0) <= tol
    assert argmax_label(dist) == k
    peak = int(np.argmax(dist))
    assert np.all(np.diff(dist[: peak + 1]) >= -1e-12)
    assert np.all(np.diff(dist[peak:]) <= 1e-12)


class TestUniform:
    def test_reference_values(self):
        t = uniform_smooth(2, 4, lam=0.4)
        assert np.allclose(t.dist, [0.1, 0.1, 0.7, 0.1])

    def test_lam_zero_is_one_hot(self):
        t = uniform_smooth(3, 5, lam=0.0)
        assert t.dist.tolist() == [0, 0, 0, 1, 0]

    def test_lam_one_is_uniform(self):
        t = uniform_smooth(1, 4, lam=1.0)
        assert np.allclose(t.dist, 0.25)


class TestOrdinalSmooth:
    def test_mixture_formula(self):
        base = triangular_target(2, 4, alpha_adjacent=0.05)
        t = ordinal_smooth(2, 4, 0.8, base)
        expected = 0.2 * np.eye(4)[2] + 0.8 * base
        assert np.allclose(t.dist, expected)

    def test_base_must_peak_at_true_class(self):
        base = triangular_target(1, 4, alpha_adjacent=0.05)
        with pytest.raises(ValueError):
            ordinal_smooth(2, 4, 0.5, base)


class TestTriangular:
    def test_boundary_reference(self):
        dist = triangular_target(0, 4, alpha_adjacent=0.05)
        assert np.allclose(dist, [0.95, 0.05, 0.0, 0.0], atol=1e-9)

    def test_interior_adjacent_mass(self):
        dist = triangular_target(2, 4, alpha_adjacent=0.05)
        assert abs(dist[1] - 0.05) <= 1e-6
        assert abs(dist[3] - 0.05) <= 1e-6

    def test_matches_oracle(self):
        for j in (3, 4, 5):
            for k in range(j):
                for alpha in (0.01, 0.05, 0.10):
                    dist = triangular_target(k, j, alpha_adjacent=alpha)
                    oracle = triangle_cell_masses(k, j, alpha)
                    assert np.max(np.abs(dist - oracle)) < 1e-6

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            SoftLabelConfig(kind="triangular", alpha_adjacent=0.5)


class TestBeta:
    def test_matches_oracle(self):
        for j in (3, 4, 5):
            for k in range(j):
                dist = beta_target(k, j, concentration=10.0)
                oracle = beta_cell_masses(k, j, 10.0)
                assert np.max(np.abs(dist - oracle)) < 1e-6

    def test_concentration_must_exceed_two(self):
        with pytest.raises(ValueError):
            beta_target(0, 4, concentration=2.0)


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
                    dist = triangular_target(k, j, alpha_adjacent=alpha)
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
                    dist = beta_target(k, j, concentration=2.0 + 2.0 * j * t)
                    assert np.max(np.abs(dist - expected)) <= self.TOL


class TestExponential:
    def test_closed_form(self):
        dist = exponential_target(2, 4, tau=1.0, p_exponent=1.0)
        w = np.exp(-np.abs(np.arange(4) - 2.0))
        assert np.allclose(dist, w / w.sum())

    def test_tau_sharpens(self):
        soft = exponential_target(2, 5, tau=0.5, p_exponent=1.0)
        sharp = exponential_target(2, 5, tau=4.0, p_exponent=1.0)
        assert sharp[2] > soft[2]


class TestPropertySuite:
    # every encoder/hyperparameter combination used by the tuning grids
    def test_all_kinds_all_classes(self):
        cases = []
        # uniform smoothing is flat at lam=1, so only lam<1 keeps the argmax
        cases.append(SoftLabelConfig(kind="uniform", lam=0.8))
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
        assert set(KINDS) == {"uniform", "triangular", "beta", "exponential"}


class TestTargetMatrix:
    def test_cached_and_read_only(self):
        cfg = SoftLabelConfig(kind="beta")
        a = target_matrix(4, cfg)
        b = target_matrix(4, cfg)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    def test_rows_are_targets(self):
        cfg = SoftLabelConfig(kind="triangular", alpha_adjacent=0.05)
        mat = target_matrix(5, cfg)
        for k in range(5):
            row = triangular_target(k, 5, alpha_adjacent=0.05)
            lam_row = 0.0 * np.eye(5)[k] + 1.0 * row
            assert np.allclose(mat[k], lam_row)
