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
