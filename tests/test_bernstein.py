"""Bernstein fitting: exactness, frozen sup errors, validity, limits.

Frozen oracle values used below were derived independently of the fitting
code: the order-1 fit of the symmetric triangular CDF is the uniform CDF, so
its sup error is max_x |x - F_tri(x)| = 1/8 attained at x = 1/4 (calculus on
the closed-form branch x - 2x^2); higher-order sup errors are cross-checked
in-test against a dense independent grid evaluation of both functions, and
at order 3 against the roots of the gap's derivative.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_piecewise_cdf, random_polynomial_cdf
import lindley_alt.bernstein as bernstein_module
from lindley_alt.bernstein import (
    MAX_ORDER,
    FitReport,
    _as_callable,
    _nudge_to_unit_sum,
    bernstein_fit,
    fit_report,
    sup_distance,
)
from lindley_alt.distributions import (
    ExponentialService,
    PiecewisePolynomialCdf,
    PolynomialCdf,
    _golden_min,
    eval_cdf,
    triangular_cdf,
    uniform_cdf,
    validate,
)
from lindley_alt.errors import InputError, NotACdf, OrderTooHigh
from lindley_alt.oracle import FixedPointProblem, fixed_point_solve, ks_distance
from lindley_alt.solver import solve


def triangular_cdf_values(x: np.ndarray) -> np.ndarray:
    """Closed-form symmetric triangular CDF, written out independently."""
    x = np.clip(x, 0.0, 1.0)
    return np.where(x <= 0.5, 2.0 * x * x, 1.0 - 2.0 * (1.0 - x) ** 2)


def grid_sup_error(fitted: PolynomialCdf, n_points: int = 200_001) -> float:
    """Independent dense-grid sup distance fit-vs-triangular (no sup_distance)."""
    xs = np.linspace(0.0, 1.0, n_points)
    fit_vals = np.polyval(list(reversed(fitted.coeffs)), xs)
    return float(np.max(np.abs(fit_vals - triangular_cdf_values(xs))))


def fraction_fit(dist, order: int) -> PolynomialCdf:
    """The fit from Fraction node values and Fraction forward differences.

    The reference for the fitter's integer path: a law's node values are
    exact rationals, a plain callable is queried with floats.
    """
    if isinstance(dist, (PolynomialCdf, PiecewisePolynomialCdf)):
        def value(x):  # exact Horner on the piece holding x
            if x >= 1:
                return Fraction(1)
            coeffs = [c for a, _, c in dist.segments() if a <= x][-1]
            return sum(Fraction(c) * x**i for i, c in enumerate(coeffs))
        values = [value(Fraction(m, order)) for m in range(order + 1)]
    else:
        values = [Fraction(dist(m / order)) for m in range(order + 1)]
    diffs, coeffs = values, [values[0]]
    for m in range(1, order + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        coeffs.append(math.comb(order, m) * diffs[0])
    return validate(_nudge_to_unit_sum([float(c) for c in coeffs]))


def sup_cases():
    """(first, second) pairs for the sup scan: fits against 2- to 4-piece laws."""
    rng = np.random.default_rng(31)
    tri = triangular_cdf()
    cases = [(bernstein_fit(tri, order), tri) for order in range(1, 13)]
    laws = [random_piecewise_cdf(rng, pieces=p) for p in (3, 3, 4, 4)]
    # breakpoints on sup-grid points and on the Bernstein nodes of orders 4k and 8k
    laws += [random_piecewise_cdf(rng, breaks=(0.0, 0.25, 0.5, 0.75, 1.0)),
             random_piecewise_cdf(rng, breaks=(0.0, 0.375, 0.625, 1.0))]
    for law in laws:
        cases += [(law, bernstein_fit(law, order)) for order in (4, 8, 13, 24)]
    # a plateau: the gap 1/4 is attained at every grid point from 1/4 on,
    # in both scan blocks, so only the first-maximum rule fixes the location
    cases.append((lambda x: np.asarray(x, dtype=float),
                  lambda x: np.clip(np.asarray(x, dtype=float) - 0.25, 0.0, 1.0)))
    return cases


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


class TestIntegerNodes:
    """The fitter's integer numerators reproduce the Fraction computation."""

    def test_coefficients_match_fraction_reference(self):
        rng = np.random.default_rng(12)
        laws = [triangular_cdf(), uniform_cdf(), validate([0.3, 0.2, 0.5])]
        laws += [random_polynomial_cdf(rng) for _ in range(3)]
        laws += [random_piecewise_cdf(rng, pieces=p) for p in (1, 2, 3, 4)]
        laws += [random_piecewise_cdf(rng, breaks=(0.0, 0.25, 0.5, 0.75, 1.0)),
                 random_piecewise_cdf(rng, breaks=(0.0, 0.375, 0.625, 1.0))]
        laws.append(lambda x: 0.5 * x + 0.5 * x**3)
        for dist in laws:
            for order in range(1, MAX_ORDER + 1):
                assert bernstein_fit(dist, order).coeffs == fraction_fit(dist, order).coeffs

    def test_not_a_cdf_message_matches_fraction_reference(self):
        wavy = lambda x: x + 0.45 * math.sin(2.0 * math.pi * x)
        rejected = 0
        for order in range(1, MAX_ORDER + 1):
            try:
                want = fraction_fit(wavy, order)
            except NotACdf as exc:
                rejected += 1
                with pytest.raises(NotACdf) as info:
                    bernstein_fit(wavy, order)
                assert str(info.value) == str(exc)
            else:
                assert bernstein_fit(wavy, order).coeffs == want.coeffs
        assert rejected


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

    def test_high_order_fits_of_a_narrow_piece_validate(self):
        # the float-rounded fit is monotone (exactly, its density is at
        # least 0.23 on a 4097-point grid), though Horner on its monomial
        # derivative, which cancels, dipped to -0.56 at order 39
        law = random_piecewise_cdf(np.random.default_rng(31), pieces=3)
        for order in (39, 40):
            fitted = bernstein_fit(law, order)
            assert abs(math.fsum(fitted.coeffs) - 1.0) <= 1e-12

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
        # no gap beats the first grid point, x = +0.0
        _, where = sup_distance(triangular_cdf(), triangular_cdf(), locate=True)
        assert math.copysign(1.0, where) == 1.0

    def test_refinement_reaches_the_closed_form_maximum(self):
        # on each triangular piece the order-3 gap is a cubic, so its extrema
        # are the real roots of a quadratic; the scan grid alone falls short
        # of the maximum by 1.35e-9
        tri = triangular_cdf()
        report = fit_report(tri, 3)
        fit = np.polynomial.Polynomial(report.fitted.coeffs)
        best, where = 0.0, 0.0
        for a, b, poly in tri.segments():
            gap = fit - np.polynomial.Polynomial(poly)
            roots = gap.deriv().roots()
            for x in [a, b, *(r.real for r in roots if r.imag == 0 and a <= r.real <= b)]:
                if abs(gap(x)) > best:
                    best, where = abs(gap(x)), x
        assert abs(report.sup_error - best) <= 1e-12
        assert report.sup_location == pytest.approx(where, abs=1e-6)

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

    @staticmethod
    def full_scan(f, g, grid=2**14):
        """One numpy scan of all 2^14 + 1 grid points through eval_cdf, first
        maximum, then golden-section refinement kept only if strictly larger."""
        xs = np.arange(grid + 1) / grid
        gaps = np.abs(f(xs) - g(xs))
        k = int(np.argmax(gaps))
        least, x_star = _golden_min(
            lambda x: -abs(float(f(x)) - float(g(x))),
            xs[max(k - 1, 0)], xs[min(k + 1, grid)],
        )
        if -least <= gaps[k]:
            return float(gaps[k]), float(xs[k])
        return -least, x_star

    def test_blocked_scan_matches_full_grid_scan(self):
        for first, second in sup_cases():
            f, g = _as_callable(first), _as_callable(second)
            assert sup_distance(first, second, locate=True) == self.full_scan(f, g)

    def test_grid_peak_matches_full_grid_scan(self, monkeypatch):
        # with the refinement stubbed out, the scan's own index and peak show
        monkeypatch.setattr(bernstein_module, "_golden_min", lambda *args: (math.inf, math.nan))
        for first, second in sup_cases():
            f, g = _as_callable(first), _as_callable(second)
            xs = np.arange(2**14 + 1) / 2**14
            gaps = np.abs(f(xs) - g(xs))
            k = int(np.argmax(gaps))
            assert sup_distance(first, second, locate=True) == (gaps[k], k / 2**14)


class TestCdfReader:
    """bernstein_fit, fit_report, sup_distance and ks_distance read a CDF
    through one reader: a law, an object with a callable cdf, or a callable."""

    @pytest.fixture(scope="class")
    def with_cdf(self):
        tri, svc = triangular_cdf(), ExponentialService(1.0)
        grid, _ = fixed_point_solve(FixedPointProblem(tri, svc, grid_size=1024))
        return {"GridCdf": grid, "WaitingTimeSolution": solve(bernstein_fit(tri, 5), svc)}

    @pytest.mark.parametrize("order", [1, 6])
    @pytest.mark.parametrize("kind", ["GridCdf", "WaitingTimeSolution"])
    def test_object_fits_as_its_cdf(self, with_cdf, kind, order):
        obj = with_cdf[kind]
        plain = lambda x: obj.cdf(x)  # noqa: E731
        assert bernstein_fit(obj, order) == bernstein_fit(plain, order)
        assert fit_report(obj, order) == fit_report(plain, order)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda cdf: bernstein_fit(cdf, 3), id="bernstein_fit"),
            pytest.param(lambda cdf: fit_report(cdf, 3), id="fit_report"),
            pytest.param(lambda cdf: sup_distance(cdf, uniform_cdf()), id="sup_distance-first"),
            pytest.param(lambda cdf: sup_distance(uniform_cdf(), cdf), id="sup_distance-second"),
            pytest.param(lambda cdf: ks_distance(np.linspace(0.0, 1.0, 5), cdf), id="ks_distance"),
        ],
    )
    def test_a_non_cdf_is_input_error(self, call):
        with pytest.raises(InputError, match="got object"):
            call(object())

    def test_numpy_values_fit_as_their_floats(self):
        # float() of a 0-d array or an np.float32 is exact, so each fits as that float
        assert bernstein_fit(lambda x: np.array(x), 3) == bernstein_fit(lambda x: x, 3)
        want = bernstein_fit(lambda x: float(np.float32(x)), 3)
        assert bernstein_fit(lambda x: np.float32(x), 3) == want
