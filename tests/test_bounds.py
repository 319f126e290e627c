"""Certified error bounds: the formula, the certification pipeline, slack.

The order-1 triangular certification numbers frozen below have independent
anchors: epsilon = 1/8 is the closed-form sup distance of the uniform CDF
from the triangular one (see test_bernstein), and the contraction constant
P[B > A] = 1 - E[e^-B] is validated against quadrature in
test_distributions::test_matches_quadrature.
"""

import math

import numpy as np
import pytest

from conftest import random_piecewise_cdf
from lindley_alt.bounds import (
    CERTIFICATE_SLACK,
    BoundReport,
    CertificationResult,
    certify_approximation,
    waiting_error_bound,
)
from lindley_alt.distributions import (
    ExponentialService,
    prob_B_greater_A,
    triangular_cdf,
)
from lindley_alt.errors import InputError
from lindley_alt.oracle import FixedPointProblem, fixed_point_solve


class TestWaitingErrorBound:
    def test_zero_epsilon_gives_zero(self):
        assert waiting_error_bound(0.0, 0.9) == 0.0

    def test_exact_formula(self):
        assert waiting_error_bound(0.2, 0.5) == 0.4
        assert waiting_error_bound(1e-3, 0.0) == 1e-3
        assert waiting_error_bound(0.125, 0.38) == pytest.approx(0.125 / 0.62, rel=1e-15)

    def test_reference_bound_values(self):
        # certified and alternate bounds at epsilon = 1/8 and the triangular
        # contraction constant (6-digit value cross-checked in TestContraction)
        assert waiting_error_bound(0.125, 0.380727) == pytest.approx(0.201861, abs=5e-5)
        assert waiting_error_bound(0.125, 1.0 - 0.380727) == pytest.approx(
            0.328322, abs=1e-5
        )

    def test_contraction_domain_enforced(self):
        for bad in (1.0, 1.2, -0.1, math.inf):
            with pytest.raises(ValueError):
                waiting_error_bound(0.1, bad)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            waiting_error_bound(-1e-9, 0.5)


class TestContraction:
    def test_distribution_objects_use_closed_form(self, svc1, uniform, triangular):
        cert = certify_approximation(uniform, 1, svc1)
        assert cert.report.contraction == prob_B_greater_A(uniform, svc1)
        assert prob_B_greater_A(triangular, svc1) == pytest.approx(
            0.38072751301529806, abs=1e-12
        )

    def test_plain_callable_is_input_error(self, svc1, monkeypatch):
        # rejected up front: no fit, solve or fixed-point work runs first
        import lindley_alt.bounds as bounds_module

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the input check")

        monkeypatch.setattr(bounds_module, "fit_report", no_fit)
        with pytest.raises(InputError, match="PolynomialCdf"):
            certify_approximation(lambda x: float(x), 3, svc1)


@pytest.fixture(scope="module")
def triangular_certification():
    return certify_approximation(triangular_cdf(), 1, ExponentialService(1.0))


class TestCertifyTriangular:
    @pytest.fixture
    def result(self, triangular_certification):
        return triangular_certification

    def test_report_values_frozen(self, result):
        r = result.report
        assert r.epsilon == pytest.approx(0.125, abs=1e-9)
        assert r.contraction == pytest.approx(0.38072751301529806, abs=1e-10)
        assert r.certified_bound == pytest.approx(0.2018497553615488, rel=1e-9)
        assert r.alternate_constant == pytest.approx(0.6192724869847019, abs=1e-10)
        assert r.alternate_bound == pytest.approx(0.3283187994742512, rel=1e-9)

    def test_measured_distances_frozen(self, result):
        assert result.cdf_distance == pytest.approx(0.02717909303614674, abs=1e-6)
        assert result.density_excess == pytest.approx(0.08372967627314638, abs=1e-5)
        assert result.density_sup == pytest.approx(0.10344433772235034, abs=1e-5)

    def test_certificate_holds(self, result):
        assert result.satisfied
        assert result.cdf_distance <= result.report.certified_bound + CERTIFICATE_SLACK

    def test_one_sided_excess_never_exceeds_sup(self, result):
        assert result.density_excess <= result.density_sup

    def test_report_round_trips_to_dict(self, result):
        d = result.report.as_dict()
        assert d["certified_bound"] == result.report.certified_bound
        assert set(d) == {
            "epsilon",
            "contraction",
            "certified_bound",
            "alternate_constant",
            "alternate_bound",
        }


class TestCertifyPipeline:
    def test_reference_reuse_matches_fresh_run(self, svc1, triangular):
        reference, _ = fixed_point_solve(FixedPointProblem(triangular, svc1))
        fresh = certify_approximation(triangular, 3, svc1)
        reused = certify_approximation(triangular, 3, svc1, reference=reference)
        assert reused.cdf_distance == pytest.approx(fresh.cdf_distance, abs=1e-14)
        assert reused.report.certified_bound == fresh.report.certified_bound

    def test_reference_grid_mismatch_rejected(self, svc1, triangular):
        reference, _ = fixed_point_solve(
            FixedPointProblem(triangular, svc1, grid_size=2**12)
        )
        with pytest.raises(ValueError):
            certify_approximation(triangular, 3, svc1, reference=reference)

    def test_random_piecewise_certifications_hold(self):
        rng = np.random.default_rng(314)
        for _ in range(6):
            dist = random_piecewise_cdf(rng)
            order = int(rng.integers(1, 21))
            svc = ExponentialService(float(rng.uniform(0.25, 4.0)))
            result = certify_approximation(dist, order, svc, grid_size=2**12)
            assert result.satisfied
            assert result.report.certified_bound >= 0.0

    def test_satisfied_property_detects_breach(self):
        report = BoundReport(
            epsilon=0.1,
            contraction=0.5,
            certified_bound=0.2,
            alternate_constant=0.5,
            alternate_bound=0.2,
        )
        breached = CertificationResult(
            report=report,
            solution=None,
            fit=None,
            reference=None,
            cdf_distance=0.2 + CERTIFICATE_SLACK + 1e-6,
            density_excess=0.0,
            density_sup=0.0,
        )
        assert not breached.satisfied
