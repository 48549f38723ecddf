"""The su(2) linear problem: potential, transport, residuals."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import wsurf.linearproblem as linearproblem
from wsurf import contour
from wsurf.catalog import EQUATION_IDS, get_equation, parse_user_ode
from wsurf.contour import (PANEL_POINTS, PANEL_S, PANEL_TAIL, PANEL_U,
                           ContourPath, holo_derivative, straight_path)
from wsurf.errors import SingularPoint, SolutionOverflow, StepSizeUnderflow
from wsurf.geometry import seg_point_distance
from wsurf.linearproblem import (closed_form_wavefunction,
                                 integrate_wavefunction, lp_residual,
                                 potential_matrix, transport)
from wsurf.special import ei
from wsurf.weierstrass import closed_form_data


def laguerre_data(lam=1.0):
    return closed_form_data(get_equation("laguerre", {"alpha": 1}),
                            1, 0, lam)


def analytic_pair(data):
    """A transcendental solution of the alpha=1 laguerre equation."""
    psi1 = lambda z: (z - 1) * (ei(z) + 1) - np.exp(z)
    dpsi1 = lambda z: ei(z) + 1 - np.exp(z) / z
    return psi1, dpsi1, closed_form_wavefunction(data, psi1, dpsi1)


class TestPotentialMatrix:
    def test_laguerre_entries(self):
        data = laguerre_data()
        z = 2.0
        s = np.exp(2.0) / 2.0
        x = np.exp(-2.0)
        u = potential_matrix(data, z)
        assert np.allclose(u, [[s * x, -s], [s * x * x, -s * x]], atol=1e-12)

    def test_traceless_rank_one(self):
        data = laguerre_data(lam=2 - 1j)
        u = potential_matrix(data, 1.3 + 0.8j)
        assert abs(np.trace(u)) <= 1e-12
        assert abs(np.linalg.det(u)) <= 1e-12

    def test_nilpotent_when_chi_zero(self, plane_data):
        u = potential_matrix(plane_data, 0.5 + 0.5j)
        assert np.allclose(u, [[0, -1], [0, 0]], atol=1e-14)
        assert np.allclose(u @ u, 0.0, atol=1e-14)

    def test_singular_point_rejected(self):
        with pytest.raises(SingularPoint):
            potential_matrix(laguerre_data(), 0.01)

    def test_array_matches_scalar_calls(self):
        data = laguerre_data(lam=2 - 1j)
        zs = np.array([[1 + 0.5j, 2.0, -1.5 + 0.7j], [0.3j, 3 - 1j, -2j]])
        u = potential_matrix(data, zs)
        assert u.shape == (2, 3, 2, 2)
        ref = np.array([[potential_matrix(data, z) for z in row]
                        for row in zs])
        # exp on an array and on a point may differ in the last bit
        np.testing.assert_allclose(u, ref, rtol=1e-14, atol=0)
        with pytest.raises(SingularPoint) as info:
            potential_matrix(data, np.array([1 + 1j, 0.01, 0.02j]))
        assert info.value.z == 0.01


class TestAnalyticWavefunction:
    def test_residuals_small(self):
        data = laguerre_data()
        _, _, wf = analytic_pair(data)
        res, dbar = lp_residual(data, wf, 1 + 0.5j)
        assert res <= 1e-6
        assert dbar <= 1e-7

    def test_constant_section_fails(self):
        data = laguerre_data()
        wf = closed_form_wavefunction(data, lambda z: 1.0, lambda z: 0.0)
        res, _ = lp_residual(data, wf, 1 + 0.5j)
        assert res > 0.1


class TestTransport:
    def test_matches_analytic_solution(self):
        data = laguerre_data()
        psi1, dpsi1, _ = analytic_pair(data)
        path = straight_path(1 + 0j, 2 + 0j)
        wf = integrate_wavefunction(data, (psi1(1.0), dpsi1(1.0)), path)
        assert abs(wf.state_at(2.0)[0] - psi1(2.0)) <= 1e-8
        assert abs(wf.state_at(2.0)[1] - dpsi1(2.0)) <= 1e-8
        # off-path query, extended holomorphically
        z = 1.6 + 0.3j
        assert abs(wf.state_at(z)[0] - psi1(z)) <= 1e-8

    def test_zero_initial_data_stays_zero(self):
        data = laguerre_data()
        wf = integrate_wavefunction(data, (0.0, 0.0),
                                    straight_path(1 + 0j, 2 + 1j))
        assert abs(wf.state_at(2 + 1j)[0]) <= 1e-12
        assert abs(wf.psi(2 + 1j)[..., 1]) <= 1e-12

    def test_polynomial_branch(self):
        # w = 1 - z solves the alpha=1 laguerre equation
        data = laguerre_data()
        wf = integrate_wavefunction(data, (0.0, -1.0),
                                    straight_path(1 + 0j, 2.5 + 0.5j))
        z = 2.5 + 0.5j
        assert abs(wf.state_at(z)[0] - (1 - z)) <= 1e-9

    def test_query_across_a_cut_stays_on_the_path_sheet(self):
        # psi is integrated from 1 to -1 + 0.05i through 1i; -1 - 0.05i
        # lies across bessel's cut from its nearest node, so it is
        # reached around the singular point, as along a legal path
        # through -1i, not straight across the cut
        ode = get_equation("bessel")
        data = closed_form_data(ode, 1, 0, 1)
        obstacles = (ode.exclusions(), ode.cut_rays)
        wf = integrate_wavefunction(
            data, (1.0, 0.0), ContourPath((1, 1j, -1 + 0.05j), *obstacles))
        legal = integrate_wavefunction(
            data, (1.0, 0.0), ContourPath((1, -1j, -1 - 0.05j), *obstacles))
        z = np.array([-1 - 0.05j, -1.1 - 0.1j, -1 + 0.1j])
        want = np.array([legal.state_at(-1 - 0.05j),
                         legal.state_at(-1.1 - 0.1j),
                         wf.state_at(-1 + 0.1j)]).T
        assert np.max(np.abs(wf.state_at(z) - want)) <= 1e-10
        assert abs(wf.state_at(-1 - 0.05j)[0] - want[0, 0]) <= 1e-10

    def test_superposition(self):
        data = laguerre_data()
        path = ContourPath((1 + 0j, 1 + 1j, 2 + 1j))
        a, b = 2.0 - 1j, 0.5 + 0.25j
        init1, init2 = (1.0, 0.5j), (0.0, -1.0)
        mixed = (a * init1[0] + b * init2[0], a * init1[1] + b * init2[1])
        w1 = integrate_wavefunction(data, init1, path)
        w2 = integrate_wavefunction(data, init2, path)
        wm = integrate_wavefunction(data, mixed, path)
        for z in (1 + 1j, 2 + 1j, 1.5 + 1j):
            want = a * w1.psi(z) + b * w2.psi(z)
            assert np.max(np.abs(wm.psi(z) - want)) <= 1e-9

    def test_psi2_consistent_with_transport(self):
        # psi2 = chi psi1 - psi1'/(lambda eta^2) for the integrated solution
        data = laguerre_data()
        psi1, dpsi1, analytic = analytic_pair(data)
        wf = integrate_wavefunction(data, (psi1(1.0), dpsi1(1.0)),
                                    straight_path(1 + 0j, 1.5 + 1j))
        for z in (1.2 + 0.4j, 1.5 + 1j):
            assert abs(wf.psi(z)[..., 1] - analytic.psi(z)[..., 1]) <= 1e-8
        res, dbar = lp_residual(data, wf, 1.3 + 0.5j)
        assert res <= 1e-6
        assert dbar <= 1e-7


def componentwise_lp_residual(data, wf, z):
    """Reference: psi1 and psi2 each from their own circle call, so two
    transports per point."""
    p1, d1, cr1 = holo_derivative(lambda w: wf.psi(w)[..., 0], z)
    p2, d2, cr2 = holo_derivative(lambda w: wf.psi(w)[..., 1], z)
    psi = np.array([p1, p2])
    mismatch = np.array([d1, d2]) - potential_matrix(data, z) @ psi
    res = float(np.linalg.norm(mismatch) / max(1.0, np.linalg.norm(psi)))
    return res, float(max(cr1, cr2))


class TestResidualTransports:
    def wavefunction(self):
        data = laguerre_data(lam=2 - 1j)
        psi1, dpsi1, _ = analytic_pair(data)
        path = ContourPath((1 + 0j, 1 + 1j, 2 + 1j))
        return data, integrate_wavefunction(
            data, (psi1(1.0), dpsi1(1.0)), path)

    def test_matches_componentwise_formula(self):
        data, wf = self.wavefunction()
        _, _, analytic = analytic_pair(data)
        for z in (1 + 0.5j, 1.3 + 0.9j, 2 + 1.2j, 1.7 + 0.1j):
            for w in (wf, analytic):
                assert lp_residual(data, w, z) == \
                    componentwise_lp_residual(data, w, z)

    def test_psi_is_one_transport(self, monkeypatch):
        data, wf = self.wavefunction()
        calls = []
        transport = linearproblem.transport

        def counted(*args, **kwargs):
            calls.append(1)
            return transport(*args, **kwargs)

        monkeypatch.setattr(linearproblem, "transport", counted)
        z = 1.3 + 0.9j
        psi = wf.psi(z)
        assert len(calls) == 1
        assert psi[0] == wf.state_at(z)[0] and psi[1] == wf.psi(z)[..., 1]
        calls.clear()
        # a point's residual is one transport of its whole circle
        for k, z in enumerate((1.2 + 0.4j, 2 + 1.2j, 1.7 + 0.1j), start=1):
            lp_residual(data, wf, z)
            assert len(calls) == k


    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_array_residual_is_one_transport(self, k, monkeypatch):
        data, wf = self.wavefunction()
        zs = np.array([1.2 + 0.4j, 2 + 1.2j, 1.7 + 0.1j, 1.3 + 0.9j,
                       1.5 + 0.6j, 1.1 + 1.3j][:k])
        calls = []
        transport = linearproblem.transport

        def counted(*args, **kwargs):
            calls.append(1)
            return transport(*args, **kwargs)

        monkeypatch.setattr(linearproblem, "transport", counted)
        res, dbar = lp_residual(data, wf, zs)
        # the circles of all the points are one transport
        assert len(calls) == 1
        assert res.shape == dbar.shape == (k,)
        assert np.all(res <= 1e-6) and np.all(dbar <= 1e-7)

    def test_point_equidistant_from_two_nodes(self):
        # 3 - 1j is as far from the path start 1 as from its end 2 + 1j;
        # its circle points start from either node, so the residual's
        # Fourier coefficients divide the two transports' errors by r
        data, wf = self.wavefunction()
        z = 3 - 1j
        res, dbar = lp_residual(data, wf, z)
        assert res <= 1e-9 and dbar <= 1e-9
        res, dbar = lp_residual(data, wf, np.array([z, 1.2 + 0.4j]))
        assert np.all(res <= 1e-9) and np.all(dbar <= 1e-9)


_LAGUERRE = TestResidualTransports().wavefunction()
# the path's start, a stored node: its lane is not transported
_NODE = 1 + 0j
_BOX = st.tuples(st.floats(0.8, 2.4), st.floats(-0.3, 1.5))


@settings(max_examples=30, deadline=None)
@given(box=st.lists(_BOX, min_size=1, max_size=5),
       near=st.floats(1e-6, 1e-3), angle=st.floats(0.0, 2 * np.pi))
def test_batched_transport_matches_analytic(box, near, angle):
    """Lanes of very different lengths and an exact-node lane in one
    batch each match the analytic wavefunction."""
    data, wf = _LAGUERRE
    _, _, analytic = analytic_pair(data)
    zs = np.array([_NODE, 1.5 + 1j + near * np.exp(1j * angle)]
                  + [complex(x, y) for x, y in box])
    psi = wf.psi(zs)
    assert psi.shape == zs.shape + (2,)
    want = np.array([analytic.psi(z) for z in zs])
    assert np.max(np.abs(psi - want)) <= 1e-8


# the user equation of the README's "User-defined equations" section
_README_ODE = parse_user_ode("params = alpha=2\np = z - 0.5\nq = 1.5 - z\n"
                             "r = alpha\nsingularities = 0.5\n")


def dop853(ode, a, b, state):
    """Reference state at b: DOP853 at rtol 1e-13 on z = a + t (b - a)."""
    dz = b - a

    def rhs(t, y):
        qp, rp = ode.ratios(a + t * dz)
        return np.array([dz * y[1], dz * (-qp * y[1] - rp * y[0])])

    return solve_ivp(rhs, (0.0, 1.0), state, method="DOP853", rtol=1e-13,
                     atol=1e-15).y[:, -1]


@pytest.mark.parametrize("eq", EQUATION_IDS + ("readme",))
def test_transport_matches_dop853(eq):
    ode = _README_ODE if eq == "readme" else get_equation(eq)
    rng = np.random.default_rng(sum(map(ord, eq)))
    segments = []
    while len(segments) < 6:
        a, b = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        if all(seg_point_distance(a, b, s) >= 0.08
               for s in ode.singularities):
            segments.append((a, b))
    a, b = np.array(segments).T
    states = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    ends, _ = transport(ode, a, b, states)
    for k in range(6):
        want = dop853(ode, a[k], b[k], states[:, k])
        assert np.max(np.abs(ends[:, k] - want)) \
            <= 1e-12 * np.max(np.abs(want))


_LANE = st.tuples(*[st.floats(lo, hi) for lo, hi in
                    ((-0.6, 0.6), (0.2, 1.5), (-0.6, 0.6), (0.2, 1.5),
                     (-2, 2), (-2, 2), (-2, 2), (-2, 2))])


def _lanes(rows):
    """(a, b, states) of lanes given as rows of eight floats."""
    v = np.array(rows)
    return (v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3],
            np.array([v[:, 4] + 1j * v[:, 5], v[:, 6] + 1j * v[:, 7]]))


@settings(max_examples=25, deadline=None)
@given(lane=_LANE, others=st.lists(_LANE, min_size=1, max_size=47),
       at=st.integers(0, 47))
def test_lane_does_not_depend_on_its_batch(lane, others, at):
    """A lane's end state is bit-identical alone and among up to 47
    other lanes, more than lp_residual's 40 circle lanes (legendre,
    segments in the upper half plane, clear of +-1)."""
    ode = get_equation("legendre")
    rows = list(others)
    at = min(at, len(rows))
    rows.insert(at, lane)
    alone, _ = transport(ode, *_lanes([lane]))
    batch, _ = transport(ode, *_lanes(rows))
    assert np.array_equal(batch[:, at], alone[:, 0])


def test_lane_of_subnormal_length_keeps_its_state():
    # c^2 underflows to 0 on its panels, and a complex division by the
    # subnormal c gave nan
    states = np.array([[1 + 1j], [2 - 1j]])
    ends, _ = transport(get_equation("legendre"),
                        np.array([2.2250738585e-313 + 1j]), np.array([1j]),
                        states)
    assert np.array_equal(ends, states)


def _lane_panels(panels, k):
    """The points and states of lane k's accepted panels, in order."""
    return [(z[i], y[i]) for lanes, z, y in panels
            for i in np.flatnonzero(lanes == k)]


def test_lanes_run_a_chunk_at_a_time(monkeypatch):
    # with CHUNK_PANELS = 2 each step takes the five lanes in three
    # slices, and the kept panels carry their lanes' indices in the batch
    ode = get_equation("legendre")
    rows = [(0.1 * k, 0.3, -0.2 * k, 1.2, 1, 0, k, 1) for k in range(5)]
    ends, panels = transport(ode, *_lanes(rows))
    monkeypatch.setattr(contour, "CHUNK_PANELS", 2)
    chunked, chunked_panels = transport(ode, *_lanes(rows))
    assert np.array_equal(chunked, ends)
    for k in range(5):
        want, got = _lane_panels(panels, k), _lane_panels(chunked_panels, k)
        assert len(got) == len(want) > 0
        for (zw, yw), (zg, yg) in zip(want, got):
            assert np.array_equal(zg, zw) and np.array_equal(yg, yw)


def block_step(y, c, h, qp, rp):
    """The reference panel rule: the 2M x 2M block system Y = Y(t) +
    c S [[0, 1], [-r/p, -q/p]] Y for Y = (psi1, psi1'), with transport's
    accept rule."""
    m = PANEL_POINTS
    cs = c[:, None, None] * PANEL_S
    system = np.zeros((len(y), 2, m, 2, m), dtype=complex)
    system[:, 0, :, 0] = system[:, 1, :, 1] = np.eye(m)
    system[:, 0, :, 1] = -cs
    system[:, 1, :, 0] = cs * rp[:, None, :]
    system[:, 1, :, 1] += cs * qp[:, None, :]
    ys = np.linalg.solve(system.reshape(-1, 2 * m, 2 * m),
                         np.repeat(y, m, axis=1)[..., None]).reshape(-1, 2, m)
    with np.errstate(invalid="ignore", over="ignore"):
        tail = np.abs((ys[:, :, None, :] * PANEL_TAIL).sum(axis=-1))
        scale = np.maximum(np.abs(ys).max(axis=-1), linearproblem._TAIL_FLOOR)
        ok = np.isfinite(tail).all(axis=(1, 2)) & np.all(
            tail.max(axis=-1) <= linearproblem._TAIL_TOL * scale, axis=1)
    return ys, ok


# q/p = a0 + a1 u and r/p = b0 + b1 u^2 on the panel's u in [0, 1] (four
# complex numbers), the start state (two), log10 |c| and arg c
_PANEL = st.tuples(*[st.floats(-3, 3)] * 12,
                   st.floats(-3, 0.7), st.floats(0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_PANEL, min_size=1, max_size=8))
@example(rows=[(0.0,) * 14, (0.0,) * 14,
               (-0.796875, 1.5625, -0.40625, 0.0, 0.0, 0.0, 2.65625, 0.0,
                0.0, 0.0, 1.0, 1.0, 0.417959183673469, 5.31640625)])
# tails at 0.9986 (psi1'' rule) and 1.0183 (block system) of the
# threshold, from states 2.3e-15 of the panel's largest value apart
@example(rows=[(0.0,) * 14,
               (-1.375, 1.5718263816563898, -2.916015625, -2.7955782548176344,
                -2.25, -2.490860504129669, 0.6891091201520192,
                -2.757399147382618, -0.75, -1.328125, 1.375, -2.9375,
                0.12748980177759073, 4.153472787699098)])
def test_step_matches_block_system(rows):
    """The psi1'' panel rule accepts the panels the block system accepts,
    with states within 1e-13 of the panel's largest value.  The two rules
    round differently, so a panel whose tail is within their rounding of
    the accept threshold may go either way.  That band is derived from
    the two solutions' distance d per component: their tails differ by
    at most |PANEL_TAIL|_1 d and their scales by at most d, so near the
    threshold their margins differ by at most
    (|PANEL_TAIL|_1 / _TAIL_TOL + 2) d / (scale - d)."""
    v = np.array(rows)
    w = v[:, :12:2] + 1j * v[:, 1:12:2]
    qp = w[:, :1] + w[:, 1:2] * PANEL_U
    rp = w[:, 2:3] + w[:, 3:4] * PANEL_U ** 2
    c = 10 ** v[:, 12] * np.exp(1j * v[:, 13])
    ys, ok = linearproblem._transport_step(w[:, 4:], c, None, qp, rp)
    want, want_ok = block_step(w[:, 4:], c, None, qp, rp)
    tol = linearproblem._TAIL_TOL
    with np.errstate(invalid="ignore", over="ignore"):
        tail = np.abs((want[:, :, None, :] * PANEL_TAIL).sum(axis=-1))
        scale = np.maximum(np.abs(want).max(axis=-1),
                           linearproblem._TAIL_FLOOR)
        margin = (tail.max(axis=-1) / (tol * scale)).max(axis=1)
        d = np.abs(ys - want).max(axis=-1)
        band = ((np.abs(PANEL_TAIL).sum(axis=1).max() / tol + 2) * d
                / (scale - d)).max(axis=1)
    # a nan margin or band (a panel that overflowed) is compared too
    clear = ~(np.abs(margin - 1) <= band)
    assert np.array_equal(ok[clear], want_ok[clear])
    for k in np.flatnonzero(ok | want_ok):
        assert np.max(np.abs(ys[k] - want[k])) \
            <= 1e-13 * np.max(np.abs(want[k]))


def test_lane_of_too_many_panels_fails(monkeypatch):
    # psi = cos(1e5 z) needs thousands of panels on [0, 3]; a limit of
    # 50 reaches the MAX_PANELS failure without the real one's cost
    monkeypatch.setattr(contour, "MAX_PANELS", 50)
    ode = parse_user_ode("p = 1\nq = 0\nr = 1e10\n")
    with pytest.raises(StepSizeUnderflow,
                       match="a lane took more than 50 panels"):
        transport(ode, [0j], [3 + 0j], [[1.0], [0.0]])


def test_transport_converges_into_subnormals():
    # psi = 2 - e^-z: psi' passes through the subnormals near z = 710 and
    # the panels' tails are held to a floor there, not to psi' itself
    ode = parse_user_ode("p = 1\nq = 1\nr = 0\n")
    ends, _ = transport(ode, [0j], [1e9 + 0j], [[1.0], [1.0]])
    assert np.allclose(ends[:, 0], [2, 0], rtol=1e-12, atol=0)


def test_overflowing_solution_is_named():
    # psi = cosh(1000 z) leaves the floating-point range near z = 0.71
    ode = parse_user_ode("p = 1\nq = 0\nr = -1e6\n")
    with pytest.raises(SolutionOverflow, match="solution overflowed"):
        transport(ode, [0j], [3 + 0j], [[1.0], [0.0]])


def test_transport_into_unlisted_singular_point_fails_fast():
    # p = z - 0.5 with no singularities line: no disc keeps the lane away
    # from 0.5, so the transport itself must refuse, in a child process
    # so that a hang fails instead of stalling the suite
    script = (
        "from wsurf.catalog import parse_user_ode\n"
        "from wsurf.errors import WsurfError\n"
        "from wsurf.linearproblem import transport\n"
        "ode = parse_user_ode('p = z - 0.5\\nq = 1\\nr = 1\\n')\n"
        "try:\n"
        "    transport(ode, [0j], [0.5 + 1e-13j], [[1.0], [0.0]])\n"
        "except WsurfError as exc:\n"
        "    print(type(exc).__name__)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["StepSizeUnderflow"]


def zcc_residual(data, z):
    """Antiholomorphy residual ||dbar U|| of the potential matrix.

    With the holomorphic gauge the second potential vanishes, so the
    zero-curvature condition reduces to dbar U = 0.
    """
    _, _, cr = holo_derivative(
        lambda w: potential_matrix(data, w).reshape(w.shape + (4,)), z)
    return float(cr.max())


class TestZeroCurvature:
    def test_laguerre_point(self):
        assert zcc_residual(laguerre_data(), 2 + 1j) <= 1e-7

    def test_chebyshev_ring(self, rng):
        data = closed_form_data(get_equation("chebyshev1", {"n": 1}),
                                1, 0, -1)
        for _ in range(20):
            r = rng.uniform(2.0, 4.0)
            t = rng.uniform(0.2, np.pi - 0.2) * rng.choice([1, -1])
            assert zcc_residual(data, r * np.exp(1j * t)) <= 1e-7

    def test_detects_antiholomorphic_injection(self):
        base = laguerre_data()
        def eta_sq(z):
            z = np.asarray(z, dtype=complex)
            return np.exp(z) / z + 0.01 * np.conj(z)

        bad = dataclasses.replace(
            base, pair=lambda z: (eta_sq(z), base.pair(z)[1]))
        worst = zcc_residual(bad, 2.0)
        # the (1,2) entry of U picks up exactly -0.01 dbar(conj z)
        assert abs(worst - 0.01) <= 0.002
