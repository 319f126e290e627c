"""Exponential-weighted moment family: I_k(r) = int_0^1 y^k e^{r y} dy.

Frozen reference values were computed with mpmath at 50 digits; a live
mpmath cross-check covers randomized arguments across all three evaluation
regimes (Taylor, upward, downward recurrence).
"""

import math

import mpmath
import numpy as np
import pytest

from lindley_alt._moments import (
    _anchored_moments,
    _moments,
    complex_moment_grid,
    exp_weighted_moment,
    moment_grid,
)

# (k, r, value) with value = int_0^1 y^k exp(r y) dy at 15 significant digits
FROZEN = [
    (0, 1.0, 1.71828182845905),  # e - 1
    (2, -1.0, 0.160602794142788),  # 2 - 5/e
    (5, 0.3, 0.215684488265764),
    (7, 2.5, 1.18571644162007),
    (10, -0.02, 0.0892577140624966),
    (12, -8.0, 5.55864231725135e-05),
    (20, 0.5, 0.0767642038479293),
]


@pytest.mark.parametrize("k,r,want", FROZEN)
def test_frozen_values(k, r, want):
    got = exp_weighted_moment(k, r)
    assert got == pytest.approx(want, rel=1e-13)
    assert got.imag == 0.0


def test_zero_argument_is_exact():
    for k in range(0, 65):
        assert exp_weighted_moment(k, 0.0) == 1.0 / (k + 1)


@pytest.mark.parametrize(
    "r",
    [1e-9, -1e-7, 0.5, -0.5, 3.0, -3.0, 40.0, -40.0, 300.0, -300.0,
     2.0 + 5.0j, -1.0 + 30.0j, 0.001j, 100.0j, -200.0 + 1.0j],
)
def test_against_mpmath(r):
    # adaptive quadrature misses the spike of y^k e^{ry} near y=0 once r is
    # very negative; there the closed form gamma_lower(k+1,-r)/(-r)^(k+1)
    # takes over (and vice versa: mpmath's gammainc struggles for r > 0)
    mpmath.mp.dps = 40
    for k in (0, 1, 3, 8, 17, 33, 64):
        if complex(r).real >= -50.0:
            want = complex(mpmath.quad(lambda y: y**k * mpmath.e ** (mpmath.mpc(r) * y), [0, 1]))
        else:
            z = -mpmath.mpc(r)
            want = complex(mpmath.gammainc(k + 1, 0, z) / z ** (k + 1))
        got = exp_weighted_moment(k, r)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def test_recurrence_identity():
    # I_k = (e^r - k I_{k-1}) / r, the defining integration by parts
    for r in (0.7, -2.3, 11.0, -47.0, 3.0 + 4.0j):
        table = _moments(40, complex(r))
        er = np.exp(r)
        for k in range(1, 41):
            assert table[k] == pytest.approx((er - k * table[k - 1]) / r, rel=1e-11)


def test_table_matches_scalar():
    for r in (-5.0, 0.0, 2.5, 1.0 - 2.0j):
        table = _moments(25, complex(r))
        for k in (0, 7, 25):
            assert table[k] == exp_weighted_moment(k, r)


def test_domain_limits():
    with pytest.raises(ValueError):
        exp_weighted_moment(-1, 1.0)
    with pytest.raises(ValueError):
        exp_weighted_moment(65, 1.0)


class TestAnchored:
    """anchored[k] = int_0^1 y^k e^{r(y-1)} dy = e^{-r} * I_k(r), stably."""

    def test_matches_scaled_moments(self):
        for r in (0.3, -4.0, 12.0, 5.0 + 2.0j, 60.0):
            plain = np.asarray(_moments(20, complex(r)), dtype=complex)
            anchored = np.asarray(_anchored_moments(20, complex(r)), dtype=complex)
            scale = complex(np.exp(-np.asarray(r, dtype=complex)))
            np.testing.assert_allclose(anchored, plain * scale, rtol=1e-11)

    def test_huge_real_part_stays_finite(self):
        # e^r overflows near r = 710; the anchored form must not
        anchored = _anchored_moments(10, complex(800.0))
        assert np.all(np.isfinite(anchored))
        # by parts: A_k = (1 - k A_{k-1}) / r for k >= 1 (boundary term vanishes)
        for k in range(1, 11):
            assert anchored[k] == pytest.approx((1.0 - k * anchored[k - 1]) / 800.0, rel=1e-10)
        # leading behavior A_0 = (1 - e^{-r}) / r
        assert anchored[0] == pytest.approx(1.0 / 800.0, rel=1e-12)


class TestGrid:
    def test_matches_scalar_on_vector(self):
        z = np.array([-0.0, -1e-6, -0.37, -2.0, -15.0, -240.0])
        grid = moment_grid(6, z)
        assert grid.shape == (7, z.size)
        for j, zj in enumerate(z):
            for k in range(7):
                want = exp_weighted_moment(k, complex(zj))
                assert grid[k, j] == pytest.approx(want.real, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("kmax", [6, 40])
    def test_matches_scalar_where_exp_underflows(self, kmax):
        # exp(-1000) underflows to 0; at -300 a zero-seeded downward pass
        # needs hundreds of steps above the top order to forget its seed
        z = np.array([-300.0, -1000.0])
        grid = moment_grid(kmax, z)
        for j, zj in enumerate(z):
            want = _moments(kmax, complex(zj))
            for k in range(kmax + 1):
                assert grid[k, j] == pytest.approx(want[k].real, rel=1e-13)

    def test_rejects_positive_arguments(self):
        with pytest.raises(ValueError):
            moment_grid(3, np.array([-1.0, 0.5]))


class TestComplexGrid:
    # every regime: the Taylor disc, upward, downward and mixed orders, the
    # imaginary axis, and anchored arguments past Re z = 700
    Z = np.array(
        [0.0, 3e-5 - 2e-5j, 1e-4, 0.37 + 0.2j, -2.0 + 5.0j, 4.5, 12.0 - 30.0j,
         -240.0 + 1.0j, 30.0j, 64.2, 650.0 + 80.0j]
    )

    @pytest.mark.parametrize("kmax", [0, 1, 6, 40])
    def test_matches_scalar_tables(self, kmax):
        grid = complex_moment_grid(kmax, self.Z)
        assert grid.shape == (kmax + 1, self.Z.size)
        for j, zj in enumerate(self.Z):
            want = np.asarray(_moments(kmax, complex(zj)), dtype=complex)
            assert np.max(np.abs(grid[:, j] - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("kmax", [0, 1, 6, 40])
    def test_matches_scalar_anchored_tables(self, kmax):
        z = np.concatenate([self.Z[self.Z.real >= 0.0], [701.0 + 3.0j, 1e4]])
        grid = complex_moment_grid(kmax, z.reshape(1, -1), anchored=True)
        assert grid.shape == (kmax + 1, 1, z.size)
        for j, zj in enumerate(z):
            want = np.asarray(_anchored_moments(kmax, complex(zj)), dtype=complex)
            assert np.max(np.abs(grid[:, 0, j] - want)) <= 1e-14 * np.max(np.abs(want))
