"""Contour paths, adaptive quadrature and holomorphic derivatives."""

import time

import mpmath
import numpy as np
import pytest

from wsurf.catalog import get_equation
from wsurf.contour import (ContourPath, contour_quad, gk15_segments,
                           holo_derivative, straight_path)
from wsurf.errors import EvaluationFailure, ToleranceNotReached, WsurfError
from wsurf.immersion import ew_integrand
from wsurf.pathplan import plan_path
from wsurf.weierstrass import make_data
from wsurf.special import ei


class TestContourPath:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            ContourPath((1 + 0j,))

    def test_rejects_duplicate_consecutive(self):
        with pytest.raises(ValueError):
            ContourPath((0j, 0j, 1 + 0j))

    def test_rejects_disc_hit(self):
        with pytest.raises(ValueError):
            ContourPath((-1 + 0j, 1 + 0j), excluded_points=((0j, 0.5),))

    def test_rejects_ray_crossing(self):
        with pytest.raises(ValueError):
            ContourPath((-1 - 1j, -1 + 1j), cut_rays=((0j, -1 + 0j),))

    def test_accepts_legal_detour(self):
        p = ContourPath((-1 - 1j, 1 + 0j, -1 + 1j),
                        excluded_points=((0j, 0.02),),
                        cut_rays=((0j, -1 + 0j),))
        assert len(p.segments()) == 2
        assert p.start == -1 - 1j and p.end == -1 + 1j

    @pytest.mark.parametrize("obstacles", [
        dict(cut_rays=((0j, 0j),)), dict(excluded_points=((0j, 0.0),)),
        dict(excluded_points=((0j, -0.5),))],
        ids=["zero-direction", "zero-radius", "negative-radius"])
    def test_rejects_degenerate_obstacles(self, obstacles):
        with pytest.raises(ValueError):
            ContourPath((1 + 1j, 2 + 1j), **obstacles)
        with pytest.raises(ValueError):
            straight_path(1 + 1j, 2 + 1j, **obstacles)

    def test_length_and_reversed(self):
        p = ContourPath((0j, 3 + 0j, 3 + 4j))
        assert abs(p.length() - 7.0) <= 1e-15
        assert p.reversed().waypoints == (3 + 4j, 3 + 0j, 0j)


class TestContourQuad:
    def test_constant_integrand(self):
        val = contour_quad(lambda z: np.ones_like(z),
                           straight_path(0j, 1 + 1j))
        assert abs(val - (1 + 1j)) <= 1e-13

    def test_one_over_z_upper_detour(self):
        # 1 -> -1 through the upper half plane picks up i*pi
        path = ContourPath((1 + 0j, 1 + 1j, -1 + 1j, -1 + 0j))
        val = contour_quad(lambda z: 1.0 / z, path, tol=1e-12)
        assert abs(val - 1j * np.pi) <= 1e-10

    def test_exponential_integral_kernel(self):
        val = contour_quad(lambda z: np.exp(z) / z,
                           straight_path(1 + 0j, 2 + 0j), tol=1e-12)
        assert abs(val - (ei(2.0) - ei(1.0))) <= 1e-10
        ref = complex(mpmath.ei(2) - mpmath.ei(1))
        assert abs(val - ref) <= 1e-10

    def test_reversal_negates(self):
        path = ContourPath((1 + 0j, 1 + 1j, 2 + 1j))
        f = lambda z: np.exp(z) * np.cos(z)
        tol = 1e-11
        fwd = contour_quad(f, path, tol)
        bwd = contour_quad(f, path.reversed(), tol)
        assert abs(fwd + bwd) <= 2 * tol

    def test_additivity_over_waypoints(self):
        f = lambda z: z ** 3 - 2j * z
        whole = contour_quad(f, ContourPath((0j, 1 + 1j, 2 + 0j)))
        parts = contour_quad(f, straight_path(0j, 1 + 1j)) + \
            contour_quad(f, straight_path(1 + 1j, 2 + 0j))
        assert abs(whole - parts) <= 1e-12

    def test_vector_integrand_matches_scalar_calls(self):
        path = ContourPath((0j, 1 + 1j, 2 + 0j))
        f = lambda z: np.exp(z) * np.cos(z)
        g = lambda z: z ** 3 - 2j * z
        val = contour_quad(lambda z: np.stack([f(z), g(z)], axis=-1), path)
        assert val.shape == (2,)
        assert abs(val[0] - contour_quad(f, path)) <= 1e-14
        assert abs(val[1] - contour_quad(g, path)) <= 1e-14

    def test_vector_tolerance_failure_reports_worst_component(self):
        # the inverse square root at the start point defeats bisection
        f = lambda z: np.stack([np.ones_like(z), 1.0 / np.sqrt(z)], axis=-1)
        message = r"quadrature error \d\.\d{3}e-\d+ above tolerance"
        with pytest.raises(ToleranceNotReached, match=message) as exc:
            contour_quad(f, straight_path(0j, 1 + 0j), tol=1e-10)
        assert isinstance(exc.value.achieved_error, float)
        assert exc.value.achieved_error > 1e-10

    def test_unreachable_tolerance_fails_fast(self):
        # the planned path passes 0.06 from the 1/z^2 pole, where GK15
        # cannot reach 1e-11; bisection used to run toward 2^40 panels
        ode = get_equation("laguerre_assoc")
        data = make_data(ode)
        path = plan_path(0.2 + 0.3j, -1.5 - 0.5j, data.exclusions,
                         data.cut_rays)
        start = time.perf_counter()
        with pytest.raises(ToleranceNotReached):
            contour_quad(ew_integrand(data), path, tol=1e-11)
        assert time.perf_counter() - start < 5.0

    def test_singularity_on_path_fails(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(WsurfError):
                contour_quad(lambda z: 1.0 / z,
                             straight_path(-1 + 0j, 1 + 0j))

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            contour_quad(lambda z: z, straight_path(0j, 1j), tol=0.0)

    def test_scalar_only_integrand_fallback(self):
        def f(z):
            if not np.isscalar(z) and np.ndim(z) != 0:
                raise TypeError("scalar only")
            return complex(z) ** 2
        val = contour_quad(f, straight_path(0j, 1 + 0j))
        assert abs(val - 1.0 / 3.0) <= 1e-12


class TestSegmentBatch:
    def test_matches_one_quadrature_per_segment(self):
        # the second segment needs bisection, the third hits the pole
        f = lambda z: np.stack([np.exp(z) / z, 1.0 / z ** 2], axis=-1)
        a = np.array([1 + 1j, 0.05 + 0j, -1 + 0j, 2 + 0j])
        b = np.array([2 + 1j, 1 + 1j, 1 + 0j, 2 + 3j])
        with np.errstate(divide="ignore", invalid="ignore"):
            values, errors, failures = gk15_segments(f, a, b, 1e-10)
        assert list(failures) == [2]
        assert isinstance(failures[2], EvaluationFailure)
        for k in (0, 1, 3):
            ref = contour_quad(f, straight_path(a[k], b[k]), tol=1e-10)
            assert np.max(np.abs(values[k] - ref)) <= 1e-14
            assert np.max(errors[k]) <= 1e-10

    def test_scalar_integrand_shape(self):
        values, errors, failures = gk15_segments(
            lambda z: z * z, [0j, 1j], [1 + 0j, 2j], 1e-12)
        assert values.shape == errors.shape == (2,) and not failures
        assert np.allclose(values, [1 / 3, -7j / 3], atol=1e-14)


class TestHoloDerivative:
    def test_polynomial(self):
        d, cr = holo_derivative(lambda z: z * z, 3.0)
        assert abs(d - 6.0) <= 1e-9
        assert cr <= 1e-10

    def test_exponential(self):
        z = 1 + 1j
        d, cr = holo_derivative(lambda w: np.exp(-w), z)
        assert abs(d + np.exp(-z)) <= 1e-9
        assert cr <= 1e-9

    def test_second_order(self):
        z = 1 + 1j
        d2, _ = holo_derivative(lambda w: w ** 3, z, order=2)
        assert abs(d2 - 6 * z) <= 1e-6

    def test_antiholomorphic_detected(self):
        _, cr = holo_derivative(np.conj, 0.7 + 0.2j)
        assert abs(cr - 1.0) <= 1e-9

    @pytest.mark.parametrize("order", [1, 2])
    def test_array_and_vector_calls_match_scalar_calls(self, order):
        zs = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.0 - 0.4j, 0.5j])
        steps = np.array([1e-5, 2e-5, 3e-4, 1e-4])

        def f(w):
            return np.exp(-w) * w

        def vec(w):
            return np.stack([f(w), np.sin(w), np.conj(w)], axis=-1)

        # numpy's array and scalar transcendental functions may differ in
        # the last bit, which the differences divide by h^order
        tol = 1e-9 if order == 1 else 1e-5
        for h in (None, steps):
            d, cr = holo_derivative(f, zs, order=order, h=h)
            dv, crv = holo_derivative(vec, zs, order=order, h=h)
            assert d.shape == cr.shape == zs.shape
            assert dv.shape == crv.shape == zs.shape + (3,)
            assert np.array_equal(dv[:, 0], d) and np.array_equal(crv[:, 0], cr)
            for k, z in enumerate(zs):
                step = None if h is None else h[k]
                ref = [holo_derivative(g, z, order=order, h=step)
                       for g in (f, np.sin, np.conj)]
                assert type(ref[0][0]) is complex
                assert type(ref[0][1]) is float
                one, one_cr = holo_derivative(vec, z, order=order, h=step)
                assert one.shape == one_cr.shape == (3,)
                for j in range(3):
                    assert one[j] == ref[j][0] and one_cr[j] == ref[j][1]
                    assert abs(dv[k, j] - ref[j][0]) <= tol
                    assert abs(crv[k, j] - ref[j][1]) <= tol

    def test_array_call_names_non_finite_point(self):
        zs = np.array([1 + 1j, 2 + 0j, 3 + 1j])
        with pytest.raises(EvaluationFailure) as info:
            holo_derivative(
                lambda w: np.where(np.abs(w - 2) < 0.1, np.nan, w), zs)
        assert abs(info.value.z - 2) <= 1e-4

    def test_order_validation(self):
        with pytest.raises(ValueError):
            holo_derivative(lambda z: z, 0j, order=3)
