"""Bernstein fitting: exactness, frozen sup errors, validity, limits.

Frozen oracle values used below were derived independently of the fitting
code: the order-1 fit of the symmetric triangular CDF is the uniform CDF, so
its sup error is max_x |x - F_tri(x)| = 1/8 attained at x = 1/4 (calculus on
the closed-form branch x - 2x^2); higher-order sup errors are cross-checked
in-test against a dense independent grid evaluation of both functions.
"""

import math

import numpy as np
import pytest

from conftest import random_piecewise_cdf, random_polynomial_cdf
from lindley_alt.bernstein import (
    MAX_ORDER,
    FitReport,
    _as_callable,
    bernstein_fit,
    fit_report,
    sup_distance,
)
from lindley_alt.distributions import (
    PolynomialCdf,
    _golden_min,
    eval_cdf,
    triangular_cdf,
    uniform_cdf,
    validate,
)
from lindley_alt.errors import NotACdf, OrderTooHigh


def triangular_cdf_values(x: np.ndarray) -> np.ndarray:
    """Closed-form symmetric triangular CDF, written out independently."""
    x = np.clip(x, 0.0, 1.0)
    return np.where(x <= 0.5, 2.0 * x * x, 1.0 - 2.0 * (1.0 - x) ** 2)


def grid_sup_error(fitted: PolynomialCdf, n_points: int = 200_001) -> float:
    """Independent dense-grid sup distance fit-vs-triangular (no sup_distance)."""
    xs = np.linspace(0.0, 1.0, n_points)
    fit_vals = np.polyval(list(reversed(fitted.coeffs)), xs)
    return float(np.max(np.abs(fit_vals - triangular_cdf_values(xs))))


class TestExactReproduction:
    def test_linear_cdf_reproduced_at_every_order(self):
        # the operator reproduces affine functions, so the uniform CDF maps
        # to itself at every supported order, to within rounding of the
        # exact rational coefficients
        for order in range(1, MAX_ORDER + 1):
            fitted = bernstein_fit(uniform_cdf(), order)
            xs = np.linspace(0.0, 1.0, 257)
            worst = float(np.max(np.abs(eval_cdf(fitted, xs) - xs)))
            assert worst <= 1e-10, f"order {order}: linear fit off by {worst:.3e}"

    def test_affine_with_atom_reproduced(self):
        dist = validate([0.25, 0.75])
        for order in (1, 7, 23):
            fitted = bernstein_fit(dist, order)
            assert fitted.atom == pytest.approx(0.25, abs=1e-12)
            xs = np.linspace(0.0, 1.0, 101)
            assert np.max(np.abs(eval_cdf(fitted, xs) - eval_cdf(dist, xs))) <= 1e-10

    def test_quadratic_reproduced_from_its_own_degree(self):
        # B_n reproduces polynomials of degree <= 1 exactly, but a degree-2
        # input is reproduced in the limit only; at its own degree the fit
        # of F(x) = x^2 is the distinct polynomial x/2 + x^2/2
        fitted = bernstein_fit(lambda x: x * x, 2)
        assert fitted.coeffs == pytest.approx((0.0, 0.5, 0.5), abs=1e-15)


class TestTriangularFits:
    def test_low_orders_collapse_to_uniform(self):
        # F_tri(1/2) = 1/2, so both order-1 and order-2 node sets are
        # affine and the fits reduce to the uniform CDF after trimming
        for order in (1, 2):
            fitted = bernstein_fit(triangular_cdf(), order)
            assert fitted.coeffs == (0.0, 1.0)

    def test_order_1_sup_error_eighth_at_quarter(self):
        report = fit_report(triangular_cdf(), 1)
        assert report.sup_error == pytest.approx(0.125, abs=1e-9)
        # the quarter-point maximizer is a double root condition; locating
        # it to ~sqrt(eps) is all a value-based search can certify
        assert report.sup_location == pytest.approx(0.25, abs=1e-4)
        assert report.requested_order == 1
        assert isinstance(report, FitReport)

    @pytest.mark.parametrize(
        "order,expected",
        [(1, 0.125), (5, 0.0664101954), (10, 0.0385750351)],
    )
    def test_frozen_sup_errors(self, order, expected):
        report = fit_report(triangular_cdf(), order)
        assert report.sup_error == pytest.approx(expected, abs=5e-4)
        # independent dense-grid cross-check of the same number
        assert grid_sup_error(report.fitted) == pytest.approx(report.sup_error, abs=1e-8)

    def test_sup_error_decreases_with_order(self):
        errors = [fit_report(triangular_cdf(), n).sup_error for n in (1, 3, 6, 12, 24)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_high_orders_validate(self):
        for order in (24, 30, MAX_ORDER):
            fitted = bernstein_fit(triangular_cdf(), order)
            assert abs(math.fsum(fitted.coeffs) - 1.0) <= 1e-12
            assert grid_sup_error(fitted) < 0.02


class TestValidityAndLimits:
    def test_order_beyond_max_rejected(self):
        with pytest.raises(OrderTooHigh) as info:
            bernstein_fit(triangular_cdf(), MAX_ORDER + 1)
        assert info.value.order == MAX_ORDER + 1
        assert info.value.limit == MAX_ORDER

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            bernstein_fit(uniform_cdf(), 0)
        with pytest.raises(ValueError):
            bernstein_fit(uniform_cdf(), -3)

    def test_non_monotone_callable_rejected(self):
        # node values fall from ~0.72 at x = 1/3 to ~0.28 at x = 2/3 — a dip
        # too wide for the operator's smoothing to erase, so the fitted
        # coefficients cannot form a CDF
        wavy = lambda x: x + 0.45 * math.sin(2.0 * math.pi * x)
        with pytest.raises(NotACdf):
            bernstein_fit(wavy, 12)

    def test_atom_preserved(self):
        dist = validate([0.4, 0.2, 0.4])
        for order in (2, 9, 17):
            assert bernstein_fit(dist, order).atom == pytest.approx(0.4, abs=1e-12)

    def test_coefficients_sum_to_one_in_float(self):
        for order in (3, 19, 33, MAX_ORDER):
            fitted = bernstein_fit(triangular_cdf(), order)
            assert abs(math.fsum(fitted.coeffs) - 1.0) <= 1e-12

    def test_random_polynomial_fits_validate(self):
        rng = np.random.default_rng(2024)
        for trial in range(6):
            dist = random_polynomial_cdf(rng, max_degree=8)
            for order in (1, 4, 11, 20):
                fitted = bernstein_fit(dist, order)  # validate() runs inside
                assert fitted.atom == pytest.approx(dist.atom, abs=1e-9)

    def test_random_piecewise_fits_validate(self):
        rng = np.random.default_rng(77)
        for trial in range(6):
            dist = random_piecewise_cdf(rng)
            for order in (2, 7, 15, 20):
                fitted = bernstein_fit(dist, order)
                assert 0.0 <= fitted.atom < 1.0


class TestSupDistance:
    def test_distance_to_self_is_zero(self):
        assert sup_distance(triangular_cdf(), triangular_cdf()) == 0.0
        assert sup_distance(uniform_cdf(), uniform_cdf()) == 0.0

    def test_uniform_vs_triangular_closed_form(self):
        # max |x - F_tri| = 1/8 by symmetry, attained at 1/4 and 3/4
        assert sup_distance(uniform_cdf(), triangular_cdf()) == pytest.approx(
            0.125, abs=1e-9
        )

    def test_accepts_plain_callables(self):
        gap = sup_distance(lambda x: np.asarray(x), uniform_cdf())
        assert gap <= 1e-15

    def test_atom_difference_counts(self):
        with_atom = validate([0.3, 0.7])
        assert sup_distance(with_atom, uniform_cdf()) == pytest.approx(0.3, abs=1e-9)

    def test_blocked_scan_matches_full_grid_scan(self):
        # Reference: one numpy scan of all 2^14 + 1 grid points, first
        # maximum, then the same golden-section refinement around it.
        def full_scan(f, g, grid=2**14):
            xs = np.arange(grid + 1) / grid
            gaps = np.abs(f(xs) - g(xs))
            k = int(np.argmax(gaps))
            x_star = float(_golden_min(
                lambda x: -abs(float(f(x)) - float(g(x))),
                xs[max(k - 1, 0)], xs[min(k + 1, grid)],
            ))
            best = abs(float(f(x_star)) - float(g(x_star)))
            if best < gaps[k]:
                return float(gaps[k]), float(xs[k])
            return best, x_star

        tri = triangular_cdf()
        cases = [(bernstein_fit(tri, order), tri) for order in range(1, 13)]
        # a plateau: the gap 1/4 is attained at every grid point from 1/4 on,
        # in both scan blocks, so only the first-maximum rule fixes the location
        cases.append((lambda x: np.asarray(x, dtype=float),
                      lambda x: np.clip(np.asarray(x, dtype=float) - 0.25, 0.0, 1.0)))
        for first, second in cases:
            f, g = _as_callable(first), _as_callable(second)
            assert sup_distance(first, second, locate=True) == full_scan(f, g)
