"""Immersion representations and the finite-difference geometry report."""

import math

import numpy as np
import pytest

from wsurf.catalog import EQUATION_IDS, GridSpec, get_equation
from wsurf.contour import (contour_quad, gk15_segments, holo_derivative,
                           straight_path)
from wsurf.errors import (EvaluationFailure, SingularPoint,
                          StencilOutsideDomain, ToleranceNotReached,
                          WsurfError)
from wsurf.immersion import (IDENTITY2, PAULI, RESIDUAL_COLUMNS,
                             combine_euclidean, combine_quaternionic,
                             ew_integrals, ew_integrand, geometry_report,
                             immerse_ew, pauli_decompose, sym_tafel,
                             to_quaternionic)
from wsurf.mesh import _allowed_nodes
from wsurf.pathplan import plan_path
from wsurf.special import ei
from wsurf.weierstrass import WeierstrassData, closed_form_data, make_data


def laguerre_data():
    return closed_form_data(get_equation("laguerre", {"alpha": 1}),
                            1, 0, 1, base_point=1 + 1j)


def scalar_ew_integrals(data, path, tol):
    """Reference: the three integrals as separate scalar quadratures."""
    eta_sq, chi = data.eta_sq, data.chi
    return np.array([
        contour_quad(lambda z: eta_sq(z), path, tol),
        contour_quad(lambda z: np.asarray(chi(z)) ** 2
                     * np.asarray(eta_sq(z)), path, tol),
        contour_quad(lambda z: np.asarray(chi(z)) * np.asarray(eta_sq(z)),
                     path, tol),
    ])


class TestIntegrals:
    def test_laguerre_closed_forms(self):
        data = laguerre_data()
        z0 = 1 + 1j
        for z in (2 + 1j, 0.5 + 0.7j, -1 + 1.5j):
            path = plan_path(z0, z, data.exclusions,
                             ((0j, -1 + 0j), (0j, 1 + 0j)))
            fused = ew_integrals(data, path, tol=1e-11)
            ref = scalar_ew_integrals(data, path, tol=1e-11)
            assert np.max(np.abs(fused - ref)) <= 1e-12
            i1, i2, i3 = fused
            assert abs(i1 - (ei(z) - ei(z0))) <= 1e-9
            assert abs(i2 - (ei(-z) - ei(-z0))) <= 1e-9
            assert abs(i3 - (np.log(z) - np.log(z0))) <= 1e-9

    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_fused_matches_scalar_quadratures(self, eq):
        data = closed_form_data(get_equation(eq), 1, 0, 1)
        z0 = 0.2 + 0.3j
        for z in (-0.5 + 0.4j, 0.4 - 0.5j, 1.5 + 1j, -1.5 + 0.5j):
            path = plan_path(z0, z, data.exclusions, data.cut_rays)
            fused = ew_integrals(data, path, tol=1e-11)
            ref = scalar_ew_integrals(data, path, tol=1e-11)
            assert np.max(np.abs(fused - ref)) <= 1e-12, (eq, z)

    def test_additivity(self):
        data = laguerre_data()
        a, b, c = 1 + 1j, 2 + 2j, 0.5 + 1.5j
        whole = immerse_ew(data, straight_path(a, c), tol=1e-11)
        parts = immerse_ew(data, straight_path(a, b), tol=1e-11) + \
            immerse_ew(data, straight_path(b, c), tol=1e-11)
        assert np.max(np.abs(whole - parts)) <= 1e-9


class TestRepresentations:
    def test_plane_is_flat_strip(self, plane_data):
        for xi in (1 + 0j, 2 - 1j, 0.5 + 3j):
            F = immerse_ew(plane_data, straight_path(0j, xi))
            want = np.array([0.5 * xi.real, -0.5 * xi.imag, 0.0])
            assert np.max(np.abs(F - want)) <= 1e-12

    def test_plane_quaternionic_real_displacement(self, plane_data):
        d = 1.5
        m = to_quaternionic(plane_data, straight_path(0j, d + 0j))
        assert np.max(np.abs(m - (-1j * (d / 2) * PAULI[0]))) <= 1e-12

    def test_pauli_decomposition_roundtrip(self, rng):
        for _ in range(20):
            i1, i2, i3 = (complex(rng.normal(), rng.normal())
                          for _ in range(3))
            m = combine_quaternionic(i1, i2, i3)
            F = combine_euclidean(i1, i2, i3)
            assert abs(np.trace(m)) <= 1e-12
            assert np.max(np.abs(m + m.conj().T)) <= 1e-12
            assert np.max(np.abs(pauli_decompose(m) - F)) <= 1e-12
            rebuilt = -1j * sum(F[k] * PAULI[k] for k in range(3))
            assert np.max(np.abs(m - rebuilt)) <= 1e-12

    def test_quaternionic_matches_euclidean_on_surface(self):
        data = laguerre_data()
        path = straight_path(1 + 1j, 2 + 0.5j)
        F = immerse_ew(data, path, tol=1e-11)
        m = to_quaternionic(data, path, tol=1e-11)
        assert np.max(np.abs(pauli_decompose(m) - F)) <= 1e-10


class TestSymTafel:
    def test_special_values(self):
        assert np.allclose(sym_tafel(0.0), -1j * np.diag([1.0, -1.0]))
        assert np.allclose(sym_tafel(1.0), -1j * PAULI[0])

    def test_squares_to_minus_identity(self, rng):
        for _ in range(50):
            x = complex(rng.normal(), rng.normal()) * 10 ** rng.uniform(-3, 3)
            m = sym_tafel(x)
            assert np.max(np.abs(m @ m + IDENTITY2)) <= 1e-12
            assert np.max(np.abs(m + m.conj().T)) <= 1e-12


class TestGeometryReport:
    def test_plane(self, plane_data):
        rep = geometry_report(plane_data, 0.3 + 0.4j)
        assert rep.u == 0.0
        assert rep.hopf == 0.0
        assert rep.conformality <= 1e-10
        assert rep.metric <= 1e-10
        assert rep.mean_curvature <= 1e-10
        assert rep.liouville <= 1e-10

    def test_laguerre_point(self):
        data = laguerre_data()
        z = 2 + 1j
        rep = geometry_report(data, z)
        assert abs(rep.hopf - 1.0 / z) <= 1e-12
        e_u = rep.conformal_factor
        assert rep.conformality <= 1e-5 * e_u
        assert rep.metric <= 1e-5 * e_u
        assert rep.mean_curvature <= 1e-4
        assert rep.hopf_residual <= 1e-5
        assert rep.hopf_holomorphy <= 1e-6
        assert rep.liouville <= 1e-3

    def test_step_shrinks_near_singularity(self):
        data = laguerre_data()
        far = geometry_report(data, 2 + 1j)
        near = geometry_report(data, 0.08j)
        assert near.step < far.step
        assert near.mean_curvature <= 1e-4

    def test_stencil_domain_guard(self):
        data = laguerre_data()
        with pytest.raises(StencilOutsideDomain):
            geometry_report(data, 0.05j, h=0.02)

    @pytest.mark.filterwarnings("error")
    def test_point_on_a_singular_point(self):
        # the distance 0 makes the default step 0; the guard still holds,
        # before any zero-length leg or division by the step
        data = laguerre_data()
        with pytest.raises(StencilOutsideDomain):
            geometry_report(data, 0j)
        rep = geometry_report(data, np.array([0j, 2 + 1j]))
        assert list(rep.failures) == [0]
        assert isinstance(rep.failures[0], StencilOutsideDomain)
        for name in RESIDUAL_FIELDS + ("u", "conformal_factor", "hopf"):
            assert np.isfinite(getattr(rep, name)[1]), name


def reference_report(data, xi, h=None, tol=1e-12):
    """The report at one point, computed point by point: the per-node
    code the batched report replaced, kept as the reference."""
    xi = complex(xi)
    dist = min((abs(xi - c) for c, _r in data.exclusions), default=np.inf)
    if h is None:
        h = 1e-3 * min(max(1.0, abs(xi)), dist if np.isfinite(dist) else 1.0)
    if np.isfinite(dist) and dist < 10 * h:
        raise StencilOutsideDomain(f"stencil at {xi} (distance {dist})")
    offsets = [dx * h + 1j * dy * h
               for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    values, errors, failures = gk15_segments(
        ew_integrand(data), np.full(8, xi), xi + np.array(offsets), tol)
    if failures:
        raise failures[min(failures)]
    worst = errors.max(axis=1)
    if worst.max() > tol:
        k = int(np.argmax(worst))
        raise ToleranceNotReached(values[k], float(worst[k]))
    F = {0: np.zeros(3)}
    for off, leg in zip(offsets, values):
        F[off] = 2.0 * combine_euclidean(*leg)

    def at(dx, dy):
        return F[dx * h + 1j * dy * h]

    fx = (at(1, 0) - at(-1, 0)) / (2 * h)
    fy = (at(0, 1) - at(0, -1)) / (2 * h)
    dF = 0.5 * (fx - 1j * fy)
    u = data.log_conformal_factor(xi)
    e_u = data.conformal_factor(xi)
    normal = np.cross(fx, fy)
    normal = normal / np.linalg.norm(normal)
    lap = (at(1, 0) + at(-1, 0) + at(0, 1) + at(0, -1) - 4 * at(0, 0)) / h ** 2
    fxx = (at(1, 0) - 2 * at(0, 0) + at(-1, 0)) / h ** 2
    fyy = (at(0, 1) - 2 * at(0, 0) + at(0, -1)) / h ** 2
    fxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h ** 2)
    d2F = 0.25 * (fxx - fyy - 2j * fxy)
    q = data.hopf(xi)
    if np.isfinite(dist):
        h_q = min(1e-4 * max(1.0, abs(xi)), max(5e-4 * dist * dist, 1e-6))
    else:
        h_q = 1e-4 * max(1.0, abs(xi))
    _, hopf_holomorphy = holo_derivative(data.hopf, xi, h=h_q)
    uval = [data.log_conformal_factor(xi + dz * h) for dz in (1, -1, 1j, -1j)]
    lap_u = (sum(uval) - 4 * u) / h ** 2
    return dict(
        u=u, conformal_factor=e_u, hopf=q, step=h,
        conformality=abs(np.sum(dF * dF)),
        metric=abs(float(np.sum(dF * np.conj(dF)).real) - 0.5 * e_u),
        mean_curvature=abs(2.0 / e_u * float(np.dot(0.25 * lap, normal))),
        hopf_residual=abs(complex(np.dot(d2F, normal)) - q),
        hopf_holomorphy=hopf_holomorphy,
        liouville=abs(0.25 * lap_u - 2.0 * abs(q) ** 2 / e_u))


RESIDUAL_FIELDS = tuple(RESIDUAL_COLUMNS.values()) + ("hopf_residual",)


def assert_matches_reference(data, zs, h=None):
    """The batched report at zs against one reference_report per point:
    residuals to 1e-7, data and step to 1e-12 relative, same failures."""
    rep = geometry_report(data, zs, h=h)
    assert rep.z.shape == rep.u.shape == rep.liouville.shape == zs.shape
    failed = []
    for k, z in enumerate(zs):
        try:
            ref = reference_report(data, z, h=h)
        except WsurfError:
            failed.append(k)
            continue
        for name in RESIDUAL_FIELDS:
            assert abs(getattr(rep, name)[k] - ref[name]) <= 1e-7, (z, name)
        for name in ("u", "conformal_factor", "hopf", "step"):
            want = ref[name]
            assert abs(getattr(rep, name)[k] - want) <= 1e-12 * abs(want), \
                (z, name)
    assert sorted(rep.failures) == failed
    for name in RESIDUAL_FIELDS:
        assert np.array_equal(np.flatnonzero(np.isinf(getattr(rep, name))),
                              failed), name
    return rep


def allowed_points(ode, data, grid):
    points = grid.points()
    return points[_allowed_nodes(points, ode, data)]


def default_case(eq, n=12):
    ode = get_equation(eq)
    d = ode.default_domain
    grid = GridSpec(d.kind, d.ranges, (n, n), d.base_point)
    return ode, make_data(ode, base_point=grid.base_point), grid


class TestBatchedReport:
    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_default_grids_match_per_point_reports(self, eq):
        ode, data, grid = default_case(eq)
        assert_matches_reference(data, allowed_points(ode, data, grid))

    @pytest.mark.parametrize("eq,lam,grid", [
        ("hermite", 1.0, GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)),
                                  (50, 50), 0j)),
        ("bessel", -0.5, GridSpec("polar", ((0.01, 2.0), (0.0, 2 * math.pi)),
                                  (30, 30), 1 + 0j)),
    ])
    def test_residual_workload_grids_match_per_point_reports(self, eq, lam,
                                                             grid):
        ode = get_equation(eq)
        data = make_data(ode, lam=lam, base_point=grid.base_point)
        assert_matches_reference(data, allowed_points(ode, data, grid))

    def test_failing_point_isolated(self):
        data = laguerre_data()
        zs = np.array([2 + 1j, 0.05j, -1 + 0.5j, 1.5 - 2j])
        rep = assert_matches_reference(data, zs, h=0.02)
        assert list(rep.failures) == [1]
        assert isinstance(rep.failures[1], StencilOutsideDomain)
        assert np.isnan(rep.u[1]) and np.isinf(rep.metric[1])
        for k in (0, 2, 3):
            single = geometry_report(data, zs[k], h=0.02)
            for name in RESIDUAL_FIELDS + ("u", "hopf"):
                assert abs(getattr(rep, name)[k]
                           - getattr(single, name)) <= 1e-12, name
        with pytest.raises(StencilOutsideDomain):
            geometry_report(data, zs[1], h=0.02)

    @pytest.mark.parametrize("bad", ["legs", "raises", "nan"])
    def test_failing_point_isolated_from_the_others(self, bad):
        # The point 5 fails: "legs" makes eta^2 nan right of Re z = 4, so
        # its stencil legs fail; "raises" makes chi' raise there, so the
        # Hopf evaluation fails; "nan" makes eta^2 nan at z = 5 exactly,
        # which no quadrature node or stencil neighbour hits, so only
        # the evaluations at the point itself are not finite.
        def eta_sq(z):
            z = np.asarray(z, dtype=complex)
            worse = z.real > 4 if bad == "legs" else z == 5
            return np.where(worse & (bad != "raises"), np.nan, 1 + 0 * z)

        def dchi(z):
            z = np.asarray(z, dtype=complex)
            if bad == "raises" and np.any(z.real > 4):
                raise SingularPoint(complex(z.flat[np.argmax(z.real)]))
            return 0.1 + 0 * z

        data = WeierstrassData(
            eta_sq=eta_sq, chi=lambda z: 0.1 * np.asarray(z, dtype=complex),
            dchi=dchi, c1=1.0, c2=0.0, lam=1.0, base_point=0j,
            source="closed_form")
        zs = np.array([1 + 1j, 5 + 0j, 2 - 1j])
        # the per-point reference reports a non-finite value as it is
        rep = geometry_report(data, zs) if bad == "nan" \
            else assert_matches_reference(data, zs)
        error = SingularPoint if bad == "raises" else EvaluationFailure
        assert list(rep.failures) == [1]
        assert isinstance(rep.failures[1], error)
        assert np.isinf(rep.liouville[1]) and np.isnan(rep.hopf[1])
        for k in (0, 2):
            single = geometry_report(data, zs[k])
            assert rep.hopf[k] == single.hopf
            for name in RESIDUAL_FIELDS:
                assert abs(getattr(rep, name)[k]
                           - getattr(single, name)) <= 1e-12, name
        with pytest.raises(error):
            geometry_report(data, zs[1])

    def test_scalar_call_returns_python_scalars(self):
        rep = geometry_report(laguerre_data(), 2 + 1j)
        assert type(rep.z) is complex and type(rep.hopf) is complex
        for name in RESIDUAL_FIELDS + ("u", "conformal_factor", "step"):
            assert type(getattr(rep, name)) is float, name
        assert rep.failures == {}
