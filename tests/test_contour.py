"""Contour paths, adaptive quadrature and holomorphic derivatives."""

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wsurf import contour
from wsurf.catalog import get_equation
from wsurf.contour import (ContourPath, contour_quad, gk15_segments,
                           holo_derivative, straight_path)
from wsurf.errors import (EvaluationFailure, SingularPoint,
                          ToleranceNotReached, WsurfError)
from wsurf.pathplan import plan_path
from wsurf.weierstrass import ew_integrand, make_data
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


# complex numbers in a square inside the disc of radius 2
_SMALL = st.builds(complex, st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))


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

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(_SMALL, min_size=1, max_size=5), a=_SMALL,
           waypoints=st.lists(_SMALL, min_size=2, max_size=3))
    def test_entire_integrands_match_mpmath(self, coeffs, a, waypoints):
        """A polynomial times exp(a z) along a one- or two-segment path;
        errors are relative to the integral of |f| along the path, which
        cancellation in the integral itself cannot make small."""
        assume(min(abs(w - v) for v, w in zip(waypoints, waypoints[1:]))
               > 1e-3)
        path = ContourPath(tuple(waypoints))
        with mpmath.workdps(25):
            f = lambda z: mpmath.polyval(coeffs, z) * mpmath.exp(a * z)
            ref = complex(mpmath.quad(f, waypoints))
            scale = float(sum(
                mpmath.quad(lambda t: abs(f(v + t * (w - v))), [0, 1])
                * abs(w - v) for v, w in zip(waypoints, waypoints[1:])))
        assume(scale > 1e-6)
        val = contour_quad(lambda z: np.polyval(coeffs, z) * np.exp(a * z),
                           path, tol=1e-11 * scale)
        assert abs(val - ref) <= 1e-9 * scale

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
        path = plan_path(0.2 + 0.3j, -1.5 - 0.5j, ode.exclusions(),
                         ode.cut_rays)
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

    def test_scalar_only_integrand_raises(self):
        # one call, no node-by-node retry: the shape error surfaces at once
        calls = []

        def f(z):
            calls.append(np.shape(z))
            return complex(np.ravel(z)[0]) ** 2
        with pytest.raises(TypeError, match=r"shape \(\) for nodes of "
                                            r"shape \(15,\)"):
            contour_quad(f, straight_path(0j, 1 + 0j))
        assert calls == [(15,)]


def exp_over_z_primitive(z):
    """Ei(z), the primitive of e^z / z, by mpmath (its cut is the
    negative real axis, which no segment below crosses)."""
    return complex(mpmath.ei(complex(z)))


class TestSegmentBatch:
    def test_matches_one_quadrature_per_segment(self):
        # the second segment needs bisection, the third hits the pole
        f = lambda z: np.stack([np.exp(z) / z, 1.0 / z ** 2], axis=-1)
        a = np.array([1 + 1j, 0.05 + 0j, -1 + 0j, 2 + 0j])
        b = np.array([2 + 1j, 1 + 1j, 1 + 0j, 2 + 3j])
        with np.errstate(divide="ignore", invalid="ignore"):
            values, failures = gk15_segments(f, a, b, 1e-10)
        assert list(failures) == [2]
        assert isinstance(failures[2], EvaluationFailure)
        for k in (0, 1, 3):
            ref = contour_quad(f, straight_path(a[k], b[k]), tol=1e-10)
            assert np.max(np.abs(values[k] - ref)) <= 1e-14
            exact = [exp_over_z_primitive(b[k]) - exp_over_z_primitive(a[k]),
                     1 / a[k] - 1 / b[k]]
            assert np.max(np.abs(values[k] - exact)) <= 1e-10

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_raising_segment_isolated(self, chunk, monkeypatch):
        # f raises (not nan) near Im z = 5, on the third segment only; with
        # one panel per chunk, that chunk has no panel that tells k
        if chunk:
            monkeypatch.setattr(contour, "CHUNK_PANELS", chunk)

        def f(z):
            hit = np.abs(z.imag - 5) < 1
            if hit.any():
                raise SingularPoint(complex(z[hit][0]))
            return np.stack([np.exp(z) / z, z ** 2], axis=-1)

        a = np.array([1 + 1j, 0.05 + 0j, 5j, 2 + 0j])
        b = np.array([2 + 1j, 1 + 1j, 1 + 5j, 2 + 3j])
        values, failures = gk15_segments(f, a, b, 1e-10)
        assert list(failures) == [2]
        assert isinstance(failures[2], SingularPoint)
        assert values.shape == (4, 2)
        for k in (0, 1, 3):
            ref = contour_quad(f, straight_path(a[k], b[k]), tol=1e-10)
            assert np.max(np.abs(values[k] - ref)) <= 1e-14
            exact = [exp_over_z_primitive(b[k]) - exp_over_z_primitive(a[k]),
                     (b[k] ** 3 - a[k] ** 3) / 3]
            assert np.max(np.abs(values[k] - exact)) <= 1e-10

    def test_segment_above_tol_at_max_depth_fails(self):
        # 1/sqrt(z) from 0 keeps the panels next to 0 above their share
        # of tol until that share asks for less than their rounding
        # error (depth 33); that segment fails, the other one is
        # untouched
        f = lambda z: 1.0 / np.sqrt(z)
        a = np.array([0j, 1 + 0j])
        b = np.array([1 + 0j, 2 + 0j])
        values, failures = gk15_segments(f, a, b, 1e-10)
        assert list(failures) == [0]
        assert isinstance(failures[0], ToleranceNotReached)
        assert failures[0].achieved_error > 1e-10
        assert abs(failures[0].best_estimate - 2.0) <= 1e-5
        assert abs(values[1] - 2 * (np.sqrt(2) - 1)) <= 1e-14

    def test_segment_at_its_rounding_floor_fails_at_once(self):
        # 1e20 e^z sums round at about 4e4 on [0, 1], far above tol 1e-10,
        # and bisection halves that unit and the share of tol alike: the
        # segment fails on the first level, with its one-panel estimate
        # (17 integrand calls before the floor rules), and the other
        # segment is untouched
        calls = []

        def f(z):
            calls.append(len(z))
            return np.where(z.real < 1.5, 1e20, 1.0) * np.exp(z)

        values, failures = gk15_segments(f, np.array([0j, 2 + 0j]),
                                         np.array([1 + 0j, 3 + 0j]), 1e-10)
        assert len(calls) == 1 and list(failures) == [0]
        assert isinstance(failures[0], ToleranceNotReached)
        assert abs(failures[0].best_estimate - 1e20 * (np.e - 1)) <= 1e6
        assert abs(values[1] - (np.exp(3) - np.exp(2))) <= 1e-13

    def test_stalled_error_within_the_floor_fails(self):
        # 1e3 e^{5z} has a floor (3e-10) above tol 1e-10, and its error,
        # rounding, halves with each bisection instead of falling by 2^15:
        # the segment fails on the third level, not the 19th
        calls = []

        def f(z):
            calls.append(len(z))
            return 1e3 * np.exp(5 * z)

        _, failures = gk15_segments(f, [0j], [1 + 0j], 1e-10)
        assert len(calls) == 3
        assert isinstance(failures[0], ToleranceNotReached)
        assert abs(failures[0].best_estimate - 200 * np.expm1(5)) <= 1e-9

    def test_truncation_error_passing_the_floor_converges(self):
        # on this leg one panel's error falls 7500-fold over one
        # bisection, to 1.6 times its share, and lands within its floor
        # (2.2 shares): it is truncation still falling, and the next
        # level meets tol
        f = ew_integrand(make_data(get_equation("laguerre_assoc")))
        values, failures = gk15_segments(f, [0.2 + 0.3j], [0.06 + 0j],
                                         1.6808149245371335e-12)
        assert not failures
        coarse, _ = gk15_segments(f, [0.2 + 0.3j], [0.06 + 0j], 1e-10)
        assert np.max(np.abs(values - coarse)) <= 1e-10

    def test_floor_above_tol_with_error_below_it_converges(self):
        # 300 e^{5z} on [0, 1] has a rounding floor (5e-10) above tol, but
        # its rounding error stays within each panel's share: a floor
        # above tol alone fails nothing
        values, failures = gk15_segments(lambda z: 300 * np.exp(5 * z),
                                         [0j], [1 + 0j], 1e-10)
        assert not failures
        assert abs(values[0] - 60 * np.expm1(5)) <= 1e-10

    def test_large_converged_component_leaves_the_other_to_bisect(self):
        # the 1e15 e^z component meets tol 10 on the first panel although
        # its floor (about 20) is above it; the narrow peak is rejected
        # for truncation, and bisection resolves it
        calls = []

        def f(z):
            calls.append(len(z))
            return np.stack([1e15 * np.exp(z),
                             100 / ((z - 0.5) ** 2 + 1e-4)], axis=-1)

        values, failures = gk15_segments(f, [0j], [1 + 0j], 10.0)
        assert not failures and len(calls) > 1
        assert abs(values[0, 0] - 1e15 * np.expm1(1)) <= 10
        assert abs(values[0, 1] - 2e4 * np.arctan(50)) <= 10

    def test_jump_fails_at_max_depth(self):
        # a jump keeps its panel's error above its share on every level,
        # far above the panel's rounding floor: bisection stops at
        # MAX_DEPTH, one integrand call per level
        calls = []

        def f(z):
            calls.append(len(z))
            return np.where(z.real < 1 / 3, 0.0, 1.0) + 0j

        _, failures = gk15_segments(f, [0j], [1 + 0j], 1e-10)
        assert len(calls) == contour.MAX_DEPTH + 1
        assert isinstance(failures[0], ToleranceNotReached)
        assert abs(failures[0].best_estimate - 2 / 3) <= 1e-13

    def test_scalar_integrand_shape(self):
        values, failures = gk15_segments(
            lambda z: z * z, [0j, 1j], [1 + 0j, 2j], 1e-12)
        assert values.shape == (2,) and not failures
        assert np.allclose(values, [1 / 3, -7j / 3], atol=1e-14)

    @pytest.mark.parametrize("tol", [1e-10, np.array([])])
    @pytest.mark.parametrize("f, shape", [
        (lambda z: z * z, (0,)),
        (lambda z: np.stack([z, np.exp(z), z * z], axis=-1), (0, 3))])
    def test_no_segments(self, f, shape, tol):
        none = np.array([], dtype=complex)
        values, failures = gk15_segments(f, none, none, tol)
        assert values.shape == shape and failures == {}


@contextlib.contextmanager
def pooled_gk15(workers, chunk):
    """gk15_segments with CHUNK_PANELS = chunk and a pool of the given
    number of worker threads, whatever the CPUs of the machine."""
    with ThreadPoolExecutor(workers) as pool, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(contour, "CHUNK_PANELS", chunk)
        patch.setattr(contour, "_pool", lambda pid: (pool, workers))
        yield


def _strip_integrand(pole, nan_in, wsurf_in, raise_in):
    """(exp iz, 1/(z - pole)), except at the nodes of the strips
    k <= Re z < k + 1: nan for k in nan_in, SingularPoint for k in
    wsurf_in, ValueError(k) for k in raise_in."""
    def f(z):
        strip = np.floor(z.real).astype(int)
        for k in sorted(raise_in):
            if (strip == k).any():
                raise ValueError(k)
        hit = np.isin(strip, list(wsurf_in))
        if hit.any():
            raise SingularPoint(complex(z[hit][0]))
        values = np.stack([np.exp(1j * z), 1 / (z - pole)], axis=-1)
        values[np.isin(strip, list(nan_in))] = np.nan
        return values

    return f


def _outcome(f, a, b, tol=1e-10):
    """gk15_segments' values and failures, or the args of the ValueError
    it raised."""
    try:
        return gk15_segments(f, a, b, tol)
    except ValueError as exc:
        return exc.args


def same_failures(x, y):
    """Whether two gk15_segments failure maps hold the same errors:
    segments, types, and the fields of each -- best_estimate (equal
    arrays) and achieved_error of a ToleranceNotReached, the args of
    any other."""
    def fields(e):
        if isinstance(e, ToleranceNotReached):
            return e.achieved_error, np.asarray(e.best_estimate)
        return e.args, None

    if x.keys() != y.keys():
        return False
    for k in x:
        (a, best_a), (b, best_b) = fields(x[k]), fields(y[k])
        if type(x[k]) is not type(y[k]) or a != b or not (
                best_a is None or np.array_equal(best_a, best_b)):
            return False
    return True


_STRIP_SEGMENT = st.tuples(*[st.floats(lo, hi) for lo, hi in
                             ((0.05, 0.45), (-1, 1), (0.55, 0.95), (-1, 1))])


class TestPooledLevels:
    """A bisection level of several chunks, shared between the calling
    thread and a pool, gives the serial loop's bits."""

    @settings(max_examples=30, deadline=None)
    @given(segments=st.lists(_STRIP_SEGMENT, min_size=6, max_size=14),
           pole=st.tuples(st.integers(0, 13), st.floats(0.01, 0.3)),
           nan_in=st.sets(st.integers(0, 13), max_size=2),
           wsurf_in=st.sets(st.integers(0, 13), max_size=2),
           raise_in=st.sets(st.integers(0, 13), max_size=2),
           workers=st.integers(1, 4))
    # non-finite values in a middle chunk; a WsurfError in one chunk; a
    # ValueError in chunks 1 and 3, of which chunk 1's must surface
    @example(segments=[(0.2, 0.1, 0.8, 0.3)] * 8, pole=(4, 0.05),
             nan_in={3}, wsurf_in=set(), raise_in=set(), workers=1)
    @example(segments=[(0.2, 0.1, 0.8, 0.3)] * 8, pole=(1, 0.05),
             nan_in=set(), wsurf_in={5}, raise_in=set(), workers=2)
    @example(segments=[(0.2, 0.1, 0.8, 0.3)] * 8, pole=(1, 0.05),
             nan_in=set(), wsurf_in=set(), raise_in={2, 7}, workers=3)
    def test_pooled_matches_serial(self, segments, pole, nan_in, wsurf_in,
                                   raise_in, workers):
        # segment k lies in strip k, so chunk k // 2 on the first level;
        # the pole, off the middle of one segment, makes it bisect
        s = np.array(segments)
        k = np.arange(len(s))
        a, b = k + s[:, 0] + 1j * s[:, 1], k + s[:, 2] + 1j * s[:, 3]
        near, gap = pole[0] % len(s), pole[1]
        normal = 1j * (b[near] - a[near]) / abs(b[near] - a[near])
        f = _strip_integrand(0.5 * (a[near] + b[near]) + gap * normal,
                             nan_in, wsurf_in, raise_in)
        with pooled_gk15(workers, chunk=2):
            serial = _outcome(f, a, b)
            f.thread_safe = True
            pooled = _outcome(f, a, b)
        raised = sorted(raise_in & set(k))
        if raised:
            assert serial == pooled == (raised[0],)
            return
        assert np.array_equal(serial[0], pooled[0], equal_nan=True)
        assert same_failures(serial[1], pooled[1])
        assert set(serial[1]) == set(nan_in | wsurf_in) & set(k)

    def test_worker_sees_callers_errstate(self):
        seen = []

        def f(z):
            seen.append((threading.current_thread(), np.geterr()["over"]))
            return np.exp(z)

        f.thread_safe = True
        a = np.arange(6) + 0j
        with pooled_gk15(workers=2, chunk=1), np.errstate(all="raise"):
            gk15_segments(f, a, a + 1, 1e-10)
        assert {thread.name for thread, _ in seen} \
            - {threading.current_thread().name}
        assert {over for _, over in seen} == {"raise"}


_U = np.finfo(float).eps / 2      # unit roundoff


class TestGk15Carry:
    """contour.GK_S carries values at a GK15 panel's nodes to their
    integrals from the midpoint; gk15_segments calls an integrand's
    panels method on the panels' nodes."""

    @pytest.mark.parametrize("degree", range(15))
    def test_integrates_polynomials_from_the_midpoint(self, degree, rng):
        # the Legendre polynomial of the degree, x^degree and a complex
        # combination of P_0 .. P_degree: the error is the product's
        # rounding, gamma_15 of sum_k |S_jk p(x_k)|, plus that of GK_S's
        # own entries (of size about 1 or less), the conditioning of the
        # values-to-coefficients solve times a unit roundoff, times the
        # largest |p(x_k)|
        x = contour._XK
        legendre = np.polynomial.legendre
        combo = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        for coeffs in (np.eye(degree + 1)[degree],
                       legendre.poly2leg(np.eye(degree + 1)[degree]), combo):
            values = legendre.legval(x, coeffs)
            exact = legendre.legval(x, legendre.legint(coeffs, lbnd=0))
            cond = np.linalg.cond(legendre.legvander(x, 14))
            band = _U * (15 * (np.abs(contour.GK_S) @ np.abs(values))
                         + cond * np.abs(values).max() + np.abs(exact))
            assert np.all(np.abs(contour.GK_S @ values - exact) <= band)

    def test_midpoint_row_is_zero(self, rng):
        assert contour._XK[7] == 0.0
        assert np.array_equal(contour.GK_S[7], np.zeros(15))
        g = rng.normal(size=(4, 15)) + 1j * rng.normal(size=(4, 15))
        carried, _ = contour.gk15_carry(g)
        assert np.array_equal(carried[:, 7], np.zeros(4))

    def test_tail_is_the_last_two_legendre_coefficients(self):
        # within the same band as the carry of polynomials
        legendre = np.polynomial.legendre
        cond = np.linalg.cond(legendre.legvander(contour._XK, 14))
        for n in range(15):
            values = legendre.legval(contour._XK, np.eye(15)[n])
            band = _U * (15 * (np.abs(contour.GK_TAIL) @ np.abs(values))
                         + cond * np.abs(values).max())
            want = np.eye(15)[n, 13:]
            assert np.all(np.abs(contour.GK_TAIL @ values - want) <= band)

    @pytest.mark.parametrize("n", range(15, 32))
    def test_higher_legendre_terms_miss_by_less_than_0_17(self, n):
        # gk15_carry's bound: the carry of P_n, 15 <= n <= 31, misses its
        # integral from the midpoint by less than 0.17 at every node
        legendre = np.polynomial.legendre
        p_n = np.eye(n + 1)[n]
        exact = legendre.legval(contour._XK, legendre.legint(p_n, lbnd=0))
        carried = contour.GK_S @ legendre.legval(contour._XK, p_n)
        assert np.max(np.abs(carried - exact)) < 0.17

    def test_ok_panels(self):
        # e^{-z^2} on a short panel is resolved to rounding, on a long one
        # it is not; a panel with a value that is not finite never is
        mid = np.array([0.3 + 0.2j, 0.3 + 0.2j, 1 + 1j, 1 + 1j])
        half = np.array([0.01, 3, 0.05j, 0.05j])
        nodes = mid[:, None] + half[:, None] * contour._XK
        g = np.exp(-nodes * nodes)
        g[2, 4], g[3, 9] = np.inf, np.nan
        carried, ok = contour.gk15_carry(g)
        assert ok.tolist() == [True, False, False, False]
        exact = np.array([erf_of(z) - erf_of(mid[0]) for z in nodes[0]])
        got = half[0] * carried[0] * 2 / np.sqrt(np.pi)
        assert np.max(np.abs(got - exact)) <= 1e-15

    def test_carry_rows_do_not_depend_on_the_batch(self, rng):
        g = rng.normal(size=(300, 15)) + 1j * rng.normal(size=(300, 15))
        carried, ok = contour.gk15_carry(g)
        for lo, hi in ((0, 1), (7, 8), (5, 37), (299, 300)):
            part, part_ok = contour.gk15_carry(g[lo:hi])
            assert np.array_equal(part, carried[lo:hi])
            assert np.array_equal(part_ok, ok[lo:hi])

    def test_panels_method_is_called_on_panel_nodes(self):
        seen = []
        f = lambda z: np.stack([np.exp(z), 1 / (z - 3)], axis=-1)

        def panels(nodes, half):
            seen.append((nodes, half))
            return f(nodes)

        g = lambda z: f(z)
        g.panels = panels
        a = np.array([0j, 1 + 1j, -2 + 0j])
        b = np.array([1 + 0j, 2 + 3j, 2.5 + 0j])   # the last bisects
        want, want_failed = gk15_segments(f, a, b, 1e-12)
        got, failed = gk15_segments(g, a, b, 1e-12)
        assert np.array_equal(got, want) and not failed and not want_failed
        assert len(seen) > 1
        for nodes, half in seen:
            mid = nodes[:, 7]
            assert nodes.shape == (len(half), 15)
            assert np.array_equal(nodes, mid[:, None]
                                  + half[:, None] * contour._XK)

    def test_panels_failures_are_isolated_by_panel(self):
        # a WsurfError of one panel's row fails that panel's segment only
        def panels(nodes, half):
            if (np.abs(nodes.real - 5.5) < 0.45).any():
                raise SingularPoint(5)
            return np.exp(nodes)

        f = lambda z: np.exp(z)
        f.panels = panels
        a = np.arange(8) + 0.1 + 0j
        values, failures = gk15_segments(f, a, a + 0.8, 1e-10)
        assert list(failures) == [5]
        assert isinstance(failures[5], SingularPoint)
        keep = np.arange(8) != 5
        exact = np.exp(a + 0.8) - np.exp(a)
        assert np.max(np.abs(values[keep] - exact[keep])) \
            <= 1e-12 * np.abs(exact).max()

    def test_panels_of_the_wrong_shape_raise(self):
        f = lambda z: z
        f.panels = lambda nodes, half: nodes[:, :7]
        with pytest.raises(TypeError, match="panels returned values"):
            gk15_segments(f, [0j], [1 + 0j], 1e-10)


def legendre_parts(coeffs, k):
    """The integrals of the Legendre series coeffs over the k equal
    parts of [-1, 1]."""
    legendre = np.polynomial.legendre
    x = -1 + 2 * np.arange(k + 1) / k
    return np.diff(legendre.legval(x, legendre.legint(coeffs, lbnd=-1)))


class TestRunWeights:
    """contour.run_weights(k): a GK15 panel's sums, GK_TAIL and the
    integrals of the degree-14 interpolant over its k equal parts."""

    @pytest.mark.parametrize("k", range(2, contour.MAX_RUN + 1))
    def test_integrates_polynomials_over_each_part(self, k, rng):
        # as TestGk15Carry: the product's rounding, gamma_15 of
        # sum_k |W_jk p(x_k)|, plus that of the weights' own entries,
        # each a difference of two antiderivative rows of GK_S's
        # conditioning, times the largest |p(x_k)|, plus the rounding of
        # the exact value
        legendre = np.polynomial.legendre
        x = contour._XK
        weights = contour.run_weights(k)[4:]
        cond = np.linalg.cond(legendre.legvander(x, 14))
        for degree in range(15):
            combo = (rng.normal(size=degree + 1)
                     + 1j * rng.normal(size=degree + 1))
            for coeffs in (np.eye(degree + 1)[degree],
                           legendre.poly2leg(np.eye(degree + 1)[degree]),
                           combo):
                values = legendre.legval(x, coeffs)
                exact = legendre_parts(coeffs, k)
                band = _U * (15 * (np.abs(weights) @ np.abs(values))
                             + 2 * cond * np.abs(values).max()
                             + np.abs(exact))
                assert np.all(np.abs(weights @ values - exact) <= band)

    @pytest.mark.parametrize("k", range(2, contour.MAX_RUN + 1))
    def test_sums_and_tail_rows(self, k):
        weights = contour.run_weights(k)
        gauss = np.zeros(15)
        gauss[1::2] = contour._WG
        assert weights.shape == (k + 4, 15) and weights.dtype == float
        assert np.array_equal(weights[0], contour._WK)
        assert np.array_equal(weights[1], gauss)
        assert np.array_equal(weights[2:4], contour.GK_TAIL)
        # the parts add up to the whole panel, up to _WK's 15 digits
        assert np.max(np.abs(weights[4:].sum(axis=0) - contour._WK)) < 2e-15

    @pytest.mark.parametrize("k", range(2, contour.MAX_RUN + 1))
    def test_higher_legendre_terms_miss_every_part_by_less_than_0_17(self, k):
        # gk15_carry's bound, so its tail rule certifies each part: the
        # interpolant of P_n, 15 <= n <= 31, misses its integral over
        # every part by less than 0.17 (0.166 at k = 2, 0.056 at k = 8)
        legendre = np.polynomial.legendre
        weights = contour.run_weights(k)[4:]
        for n in range(15, 32):
            p_n = np.eye(n + 1)[n]
            got = weights @ legendre.legval(contour._XK, p_n)
            assert np.max(np.abs(got - legendre_parts(p_n, k))) < 0.17


def chain(start, step, k):
    """The k segments between the points start + j step, j = 0 .. k."""
    z = start + np.arange(k + 1) * step
    return z[:-1], z[1:]


def exp_poly(rate, coeffs):
    """z -> (exp(rate z) poly(z), poly(z)), poly's coefficients lowest
    first."""
    poly = np.polynomial.polynomial

    def f(z):
        p = poly.polyval(z, coeffs)
        return np.stack([np.exp(rate * z) * p, p], axis=-1)

    return f


class TestGk15Runs:
    """gk15_runs: one GK15 panel per straight run of segments, each
    part's integral from run_weights, single segments by gk15_segments."""

    def test_straight_runs(self):
        eps = np.finfo(float).eps
        a, b = chain(0.5 + 0.25j, 0.1 + 0.05j, 20)
        first, parts, flip = contour.straight_runs(a, b)
        assert not flip.any()
        # 20 edges in pieces of near-equal length, at most MAX_RUN
        assert parts.tolist() == [7, 7, 6] and first.tolist() == [0, 7, 14]

        def joined(scale, gap=0.0):
            # a chain of 5 steps, then one of 6 steps scaled by scale
            # from gap past its end
            head = chain(0.5 + 0.25j, 0.1 + 0.05j, 5)
            tail = chain(head[1][-1] + gap, (0.1 + 0.05j) * scale, 6)
            a, b = (np.concatenate(x) for x in zip(head, tail))
            return contour.straight_runs(a, b)[1].tolist()

        # equal vectors to within a few units of roundoff join; vectors
        # further apart, or a segment that does not start where the one
        # before ends, do not
        assert joined(1 + 4 * eps) == [6, 5]
        assert joined(1 + 1e-9) == [5, 6]
        assert joined(1, gap=1e-12) == [5, 6]
        star = np.zeros(6, dtype=complex)
        assert contour.straight_runs(star, star + np.arange(1, 7))[1].tolist() \
            == [1] * 6
        none = np.array([], dtype=complex)
        assert [x.tolist() for x in contour.straight_runs(none, none)] \
            == [[], [], []]

        # legs from one point with opposite vectors, back to back, join
        # as runs of 2 whose first part is reversed; legs k and k + 1 of
        # a circle are not opposite
        centre = np.full(8, 0.3 - 1.7j)
        legs = 1e-3 * contour.CIRCLE[[0, 4, 1, 5, 2, 6, 3, 7]]
        first, parts, flip = contour.straight_runs(centre, centre + legs)
        assert first.tolist() == [0, 2, 4, 6] and parts.tolist() == [2] * 4
        assert flip.all()
        circle = centre + 1e-3 * contour.CIRCLE
        assert contour.straight_runs(centre, circle)[1].tolist() == [1] * 8

        def reversed_first(scale):
            # a leg back from the start of a chain of 5 steps, its vector
            # the chain's times -scale
            a, b = chain(0.5 + 0.25j, 0.1 + 0.05j, 5)
            back = a[0] - (0.1 + 0.05j) * scale
            return contour.straight_runs(np.append(a[0], a),
                                         np.append(back, b))

        first, parts, flip = reversed_first(1 + 4 * eps)
        assert first.tolist() == [0] and parts.tolist() == [6]
        assert flip.tolist() == [True]
        first, parts, flip = reversed_first(1 + 1e-9)
        assert parts.tolist() == [1, 5] and not flip.any()

    @pytest.mark.parametrize("tol", [1e-10, np.array([1e-10] * 8)])
    def test_segments_outside_runs_are_gk15_segments_bit_for_bit(self, tol):
        # a star of legs and a chain with a kink at every node: no runs
        f = _strip_integrand(5.3 + 0.01j, set(), {3}, set())
        a = np.repeat([0.3 + 0.2j, 3.2 + 0.5j], 4)
        b = a + np.tile([0.5, 0.5j, 0.9 + 0.1j, 0.4 - 0.3j], 2)
        want = gk15_segments(f, a, b, tol)
        got = contour.gk15_runs(f, a, b, tol)
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert same_failures(got[1], want[1]) and list(got[1]) == [4, 5, 6, 7]

    def test_scalar_integrand_and_no_segments(self):
        a, b = chain(0.1j, 0.05, 16)
        values, failures = contour.gk15_runs(np.exp, a, b, 1e-12)
        assert values.shape == (16,) and not failures
        assert np.max(np.abs(values - (np.exp(b) - np.exp(a)))) <= 1e-14
        none = np.array([], dtype=complex)
        for f, shape in ((np.exp, (0,)), (exp_poly(1, [1]), (0, 2))):
            values, failures = contour.gk15_runs(f, none, none, 1e-10)
            assert values.shape == shape and failures == {}

    @settings(max_examples=60, deadline=None)
    @given(start=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
           angle=st.floats(0, 2 * np.pi), length=st.floats(0.005, 0.6),
           k=st.integers(2, 20), rate=st.tuples(st.floats(-3, 3),
                                                st.floats(-3, 3)),
           coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=5))
    def test_runs_match_single_segments(self, start, angle, length, k, rate,
                                        coeffs):
        rate = complex(*rate)
        assume(abs(rate) > 0.1)
        f = exp_poly(rate, coeffs)
        a, b = chain(complex(*start), length * np.exp(1j * angle), k)
        # tol relative to the integrals' size, above their rounding
        tol = 1e-10 * max(1.0, k * length * np.abs(f(b)).max())
        got, failures = contour.gk15_runs(f, a, b, tol)
        want, want_failures = gk15_segments(f, a, b, tol)
        assert not failures and not want_failures
        assert np.all(np.abs(got - want) <= run_band(f, a, b))

    @settings(max_examples=60, deadline=None)
    @given(centre=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
           angle=st.floats(0, 2 * np.pi), length=st.floats(1e-4, 0.3),
           rate=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
           coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=5))
    def test_diameters_match_single_legs(self, centre, angle, length, rate,
                                         coeffs):
        # pairs of opposite legs from random centres, as the geometry
        # report's circles give them: each leg is per-leg gk15_segments'
        # within run_band, plus f times the distance of the diameter's
        # midpoint, where its parts meet, from the centre
        rate = complex(*rate)
        assume(abs(rate) > 0.1)
        f = exp_poly(rate, coeffs)
        c = complex(*centre) + np.array([0, 0.5, 1j])
        # four legs from each centre, legs 2k and 2k + 1 opposite
        turns = np.pi * np.array([0, 1, 0.5, 1.5])
        a = np.repeat(c, 4)
        b = (c[:, None] + length * np.exp(1j * (angle + turns))).ravel()
        tol = 1e-10 * max(1.0, 2 * length * np.abs(f(b)).max())
        got, failures = contour.gk15_runs(f, a, b, tol)
        want, want_failures = gk15_segments(f, a, b, tol)
        assert not failures and not want_failures
        for k in range(0, len(a), 2):
            pair = slice(k, k + 2)
            lo, hi = b[k:k + 1], b[k + 1:k + 2]
            split = np.abs(0.5 * (lo + hi) - a[k])
            top = np.abs(f(np.concatenate([lo, hi, a[k:k + 1]]))).max(axis=0)
            band = run_band(f, a[pair], b[pair], lo, hi) + top * split
            assert np.all(np.abs(got[pair] - want[pair]) <= band)

    @pytest.mark.parametrize("case", ["pole", "cut"])
    def test_a_diameter_it_cannot_resolve_splits_to_single_legs(self, case):
        # a diameter passing 0.002 from a pole, or crossing np.log's cut
        # with one leg: its panel is not accepted, and both legs are
        # gk15_segments', bit for bit, the leg across the cut failing; a
        # diameter far from either is one panel
        if case == "pole":
            centre, step = 0.4 + 0.3j, 0.05
            f = lambda z: np.stack(
                [np.exp(z), 1 / (z - (centre + 0.002j))], axis=-1)
        else:
            centre, step = -1 + 0.0031j, 0.01j
            f = lambda z: np.stack([np.exp(z), np.log(z)], axis=-1)
        a = np.repeat([centre, centre + 0.5j], 2)
        b = a + np.array([step, -step, 1j * step, -1j * step])
        got, failures = contour.gk15_runs(f, a, b, 1e-10)
        want, want_failures = gk15_segments(f, a, b, 1e-10)
        assert same_failures(failures, want_failures)
        assert list(failures) == ([] if case == "pole" else [1])
        ok = [k for k in range(2) if k not in failures]
        assert np.array_equal(got[ok], want[ok])
        assert not np.array_equal(got[2:], want[2:])
        assert np.all(np.abs(got[2:] - want[2:]) <= run_band(
            f, a[2:], b[2:], b[2:3], b[3:]) + np.abs(f(a[2:3])) * np.abs(
                0.5 * (b[2] + b[3]) - a[2]))

    def test_run_mask_is_the_rounding_floor_rule(self):
        # runs of 2 parts over an oscillating and a growing exponential,
        # their tails from far below the floor to far above it: the mask
        # is the rule on every run, including those whose tail passes
        # the floor of |Kronrod sum| but not of sum_k w_k |g_k|
        def f(z):
            return np.stack([np.exp(9j * z), np.exp(2 * z)], axis=-1)

        lo = np.full(60, 0.1j)
        hi = lo + np.geomspace(0.02, 1.5, 60)
        rows, ok = contour._run_chunk(f, lo, hi, np.full(60, 2),
                                      np.full(60, np.inf))
        g = f((0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None]
              * contour._XK)
        both = (contour.run_weights(2) @ g.view(float)).view(complex)
        tail = np.abs(both[:, 2:4]).max(axis=1)
        floor = contour.ROUNDING_FLOOR
        assert np.array_equal(
            ok, (tail <= floor * (contour._WK @ np.abs(g))).all(axis=1))
        near = ~(tail <= floor * np.abs(both[:, 0])).all(axis=1)
        assert (ok & near).any() and (~ok).any()

    def test_a_run_near_a_pole_splits_down_to_single_segments(self):
        # 1/(z - pole) 0.02 off the middle of edge 3 of a run of 8: the
        # run panel cannot resolve it, so the edges next to the pole are
        # integrated alone, bit for bit as gk15_segments does, and every
        # edge still meets tol
        pole = 0.35 + 0.02j
        seen = []

        def f(z):
            return np.stack([np.exp(z), 1 / (z - pole)], axis=-1)

        def panels(nodes, half):
            seen.append(np.abs(half))
            return f(nodes)

        g = lambda z: f(z)
        g.panels = panels
        a, b = chain(0j, 0.1, 8)
        got, failures = contour.gk15_runs(g, a, b, 1e-10)
        assert not failures
        assert np.isclose(seen[0], [0.4]).all()      # one panel, 8 parts
        single, _ = gk15_segments(f, a[3:4], b[3:4], 1e-10)
        assert np.array_equal(got[3], single[0])
        exact = np.stack([np.exp(b) - np.exp(a),
                          np.log((b - pole) / (a - pole))], axis=-1)
        assert np.max(np.abs(got - exact)) <= 1e-10

    def test_failures_are_those_of_single_segments(self):
        # a WsurfError and a nan in two strips: the runs over them split
        # down to their single segments, which fail as in gk15_segments
        f = _strip_integrand(20 + 1j, {5}, {2}, set())
        a, b = chain(0.05 + 0.3j, 0.45, 16)
        got, failures = contour.gk15_runs(f, a, b, 1e-10)
        want, want_failures = gk15_segments(f, a, b, 1e-10)
        assert same_failures(failures, want_failures)
        ok = np.isin(np.arange(16), list(failures), invert=True)
        smooth = _strip_integrand(20 + 1j, set(), set(), set())
        assert np.all(np.abs(got[ok] - want[ok])
                      <= run_band(smooth, a, b)[ok])

    @pytest.mark.parametrize("workers, chunk", [(1, 2), (3, 5)])
    def test_pooled_runs_match_serial(self, workers, chunk):
        # runs of every length up to MAX_RUN, some of which split
        f = _strip_integrand(3.05 + 0.02j, set(), set(), set())
        pieces = [chain(j + 0.1j * k, 0.9 / k, k) for j, k in
                  enumerate(range(1, contour.MAX_RUN + 1))]
        a, b = (np.concatenate(x) for x in zip(*pieces))
        serial = contour.gk15_runs(f, a, b, 1e-10)
        with pooled_gk15(workers, chunk):
            f.thread_safe = True
            pooled = contour.gk15_runs(f, a, b, 1e-10)
        assert np.array_equal(serial[0], pooled[0])
        assert not serial[1] and not pooled[1]


def run_band(f, a, b, lo=None, hi=None):
    """A bound, per segment and component, on the distance between
    gk15_runs' and gk15_segments' integrals of an integrand that both
    resolve to rounding: on a run panel of half width h over the run's
    segments, the carry's truncation (below 0.17 of the accepted tail,
    ROUNDING_FLOOR sum_k w_k |g_k|) and the rounding of the parts'
    products and weights, and on a segment's own panel the rounding of
    its sum and of _WK's 15-digit weights; and f, at its largest on the
    panels, times twice the furthest any node lies from its place on
    its run, a few units of roundoff of the largest |z|: the pieces and
    halves gk15_runs may take all have their ends on the nodes.  The
    run's panel goes from lo to hi, by default a[0] and b[-1]."""
    def panel(lo, hi):
        half = np.abs(0.5 * (hi - lo))
        g = np.abs(f((0.5 * (lo + hi))[:, None]
                     + 0.5 * (hi - lo)[:, None] * contour._XK))
        return half[:, None], (contour._WK[:, None] * g).sum(axis=1), \
            g.max(axis=1)

    x = contour._XK
    cond = np.linalg.cond(np.polynomial.legendre.legvander(x, 14))
    h, s, top = panel(a[:1] if lo is None else lo, b[-1:] if hi is None
                      else hi)
    e_h, e_s, e_top = panel(a, b)
    z_max = np.abs(np.concatenate([a, b])).max()
    offset = 2 * 4 * _U * z_max
    run = h * (0.17 * contour.ROUNDING_FLOOR * s + 15 * _U * s
               + 2 * cond * _U * top)
    own = e_h * (15 * _U * e_s + 15 * 5e-16 * e_top)
    return run + own + 2 * np.maximum(top, e_top) * offset


def erf_of(z):
    """erf at a complex point, to double precision."""
    return complex(mpmath.erf(mpmath.mpc(z.real, z.imag)))


class TestHoloDerivative:
    def test_polynomial(self):
        mean, d, cr = holo_derivative(lambda z: z * z, 3.0)
        assert abs(mean - 9.0) <= 1e-12
        assert abs(d - 6.0) <= 1e-9
        assert cr <= 1e-10

    def test_exponential(self):
        z = 1 + 1j
        _, d, cr = holo_derivative(lambda w: np.exp(-w), z)
        assert abs(d + np.exp(-z)) <= 1e-9
        assert cr <= 1e-9

    def test_antiholomorphic_detected(self):
        _, _, cr = holo_derivative(np.conj, 0.7 + 0.2j)
        assert abs(cr - 1.0) <= 1e-9

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_array_and_vector_calls_match_scalar_calls(self, ndim):
        zs = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.0 - 0.4j, 0.5j])
        radii = np.array([1e-3, 2e-3, 3e-2, 1e-2])
        shape = (4,) if ndim == 1 else (2, 2)

        def f(w):
            return np.exp(-w) * w

        def vec(w):
            return np.stack([f(w), np.sin(w), np.conj(w)], axis=-1)

        for r in (None, radii.reshape(shape)):
            z = zs.reshape(shape)
            out = holo_derivative(f, z, r=r)
            outv = holo_derivative(vec, z, r=r)
            for x, xv in zip(out, outv):
                assert x.shape == shape and xv.shape == shape + (3,)
                assert np.array_equal(xv[..., 0], x)
            for k, w in enumerate(zs):
                at = np.unravel_index(k, shape)
                step = None if r is None else radii[k]
                one = holo_derivative(vec, w, r=step)
                for x, xv in zip(one, outv):
                    assert x.shape == (3,)
                    assert np.array_equal(x, xv[at])
                for j, g in enumerate((f, np.sin, np.conj)):
                    ref = holo_derivative(g, w, r=step)
                    assert all(x[j] == y for x, y in zip(one, ref))

        # a point or an array is one call on the stacked circles
        shapes = []

        def counted(w):
            shapes.append(np.shape(w))
            return f(w)

        n = contour.CIRCLE_POINTS
        holo_derivative(counted, zs.reshape(shape))
        assert shapes == [(n,) + shape]
        shapes.clear()
        holo_derivative(counted, zs[1])
        assert shapes == [(n,)]

    def test_array_call_names_non_finite_point(self):
        zs = np.array([1 + 1j, 2 + 0j, 3 + 1j])
        with pytest.raises(EvaluationFailure) as info:
            holo_derivative(
                lambda w: np.where(np.abs(w - 2) < 0.1, np.nan, w), zs)
        # a point on the circle of the default radius around z = 2
        assert abs(abs(info.value.z - 2) - 2e-3) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(a=st.complex_numbers(max_magnitude=3),
           b=st.complex_numbers(max_magnitude=2),
           cubic=st.lists(st.complex_numbers(max_magnitude=3),
                          min_size=4, max_size=4),
           c=st.complex_numbers(max_magnitude=3),
           z=st.complex_numbers(max_magnitude=2))
    def test_matches_exact_derivative(self, a, b, cubic, c, z):
        """On a exp(b z) + cubic, f' matches the exact derivative and the
        residual vanishes; adding c conj(z) makes the residual read |c|."""
        p = np.polynomial.Polynomial(cubic)

        def f(w):
            return a * np.exp(b * w) + p(w)

        exact = a * b * np.exp(b * z) + p.deriv()(z)
        # a bound on f and its first derivatives near the circle
        scale = max(1.0, abs(a) * max(1.0, abs(b)) ** 2
                    * np.exp(abs(b) * (abs(z) + 0.01)),
                    sum(abs(x) for x in cubic) * (abs(z) + 1.01) ** 3)
        _, d, cr = holo_derivative(f, z)
        assert abs(d - exact) <= 1e-9 * scale
        assert cr <= 1e-11 * scale
        _, d, cr = holo_derivative(lambda w: f(w) + c * np.conj(w), z)
        assert abs(d - exact) <= 1e-9 * scale
        assert abs(cr - abs(c)) <= 1e-11 * scale
