"""Immersion representations and the Cauchy-circle geometry report."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsurf import immersion, weierstrass
from wsurf.catalog import EQUATION_IDS, GridSpec, get_equation, parse_user_ode
from wsurf.contour import (CIRCLE, CIRCLE_POINTS, contour_quad,
                           gk15_segments, holo_derivative, straight_path)
from wsurf.errors import (EvaluationFailure, OutOfRange, SingularPoint,
                          StencilOutsideDomain, WsurfError)
from wsurf.immersion import (IDENTITY2, PAULI, RESIDUAL_COLUMNS,
                             _distance_to_exclusions, combine_euclidean,
                             combine_quaternionic, ew_integrals,
                             geometry_report, pauli_decompose, sym_tafel)
from wsurf.geometry import Obstacles
from wsurf.mesh import _allowed_nodes
from wsurf.pathplan import plan_path
from wsurf.special import ei
from wsurf.weierstrass import (WeierstrassData, build_numeric_data,
                               closed_form_data, compose, edge_moments,
                               ew_integrand, make_data, u_of_pair)


# the equation of the pair eta^2 = 1, chi = z / 10 at lambda = 1
CHI_OVER_TEN = parse_user_ode("p = 1\nq = 0\nr = -0.1\n")


def laguerre_data():
    return closed_form_data(get_equation("laguerre", {"alpha": 1}),
                            1, 0, 1, base_point=1 + 1j)


def scalar_ew_integrals(data, path, tol):
    """Reference: the three integrals as separate scalar quadratures."""
    pair = data.pair
    return np.array([
        contour_quad(lambda z: pair(z)[0], path, tol),
        contour_quad(lambda z: np.asarray(pair(z)[1]) ** 2
                     * np.asarray(pair(z)[0]), path, tol),
        contour_quad(lambda z: np.asarray(pair(z)[1])
                     * np.asarray(pair(z)[0]), path, tol),
    ])


class TestIntegrals:
    def test_laguerre_closed_forms(self):
        data = laguerre_data()
        z0 = 1 + 1j
        for z in (2 + 1j, 0.5 + 0.7j, -1 + 1.5j):
            path = plan_path(z0, z, data.ode.exclusions(),
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
            path = plan_path(z0, z, data.ode.exclusions(),
                             data.ode.cut_rays)
            fused = ew_integrals(data, path, tol=1e-11)
            ref = scalar_ew_integrals(data, path, tol=1e-11)
            assert np.max(np.abs(fused - ref)) <= 1e-12, (eq, z)

    def test_additivity(self):
        data = laguerre_data()
        a, b, c = 1 + 1j, 2 + 2j, 0.5 + 1.5j
        whole = combine_euclidean(
            *ew_integrals(data, straight_path(a, c), tol=1e-11))
        parts = combine_euclidean(
            *ew_integrals(data, straight_path(a, b), tol=1e-11)) + \
            combine_euclidean(
                *ew_integrals(data, straight_path(b, c), tol=1e-11))
        assert np.max(np.abs(whole - parts)) <= 1e-9


class TestRepresentations:
    def test_plane_is_flat_strip(self, plane_data):
        for xi in (1 + 0j, 2 - 1j, 0.5 + 3j):
            F = combine_euclidean(
                *ew_integrals(plane_data, straight_path(0j, xi)))
            want = np.array([0.5 * xi.real, -0.5 * xi.imag, 0.0])
            assert np.max(np.abs(F - want)) <= 1e-12

    def test_plane_quaternionic_real_displacement(self, plane_data):
        d = 1.5
        m = combine_quaternionic(
            *ew_integrals(plane_data, straight_path(0j, d + 0j)))
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
        F = combine_euclidean(*ew_integrals(data, path, tol=1e-11))
        m = combine_quaternionic(*ew_integrals(data, path, tol=1e-11))
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

    @settings(max_examples=40, deadline=None)
    @given(z=st.complex_numbers(max_magnitude=3))
    def test_enneper_closed_forms(self, z):
        """Enneper's surface, eta^2 = 1 and chi = z: Q = -1 and
        e^(u/2) = 1 + |z|^2, and every residual but Liouville's vanishes
        to rounding."""
        data = WeierstrassData(
            pair=lambda w: (np.ones_like(np.asarray(w, dtype=complex)),
                            np.asarray(w, dtype=complex)),
            c1=1.0, c2=0.0, lam=1.0, base_point=0j, source="closed_form",
            ode=parse_user_ode("p = 1\nq = 0\nr = -1\n"))
        rep = geometry_report(data, z)
        e_u = (1 + abs(z) ** 2) ** 2
        assert rep.hopf == -1
        assert abs(rep.conformal_factor - e_u) <= 1e-12 * e_u
        assert rep.conformality <= 1e-10 * e_u
        assert rep.metric <= 1e-10 * e_u
        assert rep.mean_curvature <= 1e-10
        assert rep.hopf_residual <= 1e-10
        assert rep.liouville <= 1e-3

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
        # the circle shrinks with the distance to the nearest singular
        # point, so only the singular points themselves have none
        data = closed_form_data(get_equation("legendre"), 1, 0, 1)
        for c, _r in data.ode.exclusions():
            with pytest.raises(StencilOutsideDomain):
                geometry_report(data, c)

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


def log_conformal_factor(data, z):
    """u at z, from the pair."""
    return u_of_pair(*data.pair(np.asarray(z, dtype=complex)))


def reference_report(data, xi, tol=1e-12):
    """The report at one point, computed point by point: one contour_quad
    per leg of the circle, and the circle's Fourier coefficients of F as
    explicit sums."""
    xi = complex(xi)
    dist = min((abs(xi - c) for c, _r in data.ode.exclusions()),
               default=np.inf)
    h = 1e-3 * min(max(1.0, abs(xi)), dist if np.isfinite(dist) else 1.0)
    if h == 0:
        raise StencilOutsideDomain(f"{xi} lies on a singular point")
    n = CIRCLE_POINTS
    roots = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    F = [2.0 * combine_euclidean(*contour_quad(
        ew_integrand(data), straight_path(xi, xi + h * w), tol))
        for w in roots]

    def coefficient(j):
        return sum(Fk * w ** -j for Fk, w in zip(F, roots)) / n

    dF = coefficient(1) / h
    d2F = 2.0 * coefficient(2) / h ** 2
    lap = 4.0 * coefficient(0).real / h ** 2
    eta_sq, chi = data.pair(np.asarray(xi, dtype=complex))
    half = float(np.abs(eta_sq) * (1 + np.abs(chi) ** 2))
    u, e_u = 2.0 * math.log(half), half * half
    q = data.hopf(xi)
    # F_x = 2 Re F_z and F_y = -2 Im F_z
    normal = np.cross(dF.real, -dF.imag)
    normal = normal / np.linalg.norm(normal)
    # rounding costs the circle mean of u about ulp(u) / h^2 in Delta u,
    # so it is summed in the report's own order
    u_mean, _, _ = holo_derivative(lambda w: log_conformal_factor(data, w),
                                   xi, r=h)
    _, _, hopf_holomorphy = holo_derivative(data.hopf, xi, r=h)
    return dict(
        u=u, conformal_factor=e_u, hopf=q, step=h,
        conformality=abs(np.sum(dF * dF)),
        metric=abs(float(np.sum(dF * np.conj(dF)).real) - 0.5 * e_u),
        mean_curvature=abs(2.0 / e_u * float(np.dot(0.25 * lap, normal))),
        hopf_residual=abs(complex(np.dot(d2F, normal)) - q),
        hopf_holomorphy=hopf_holomorphy,
        liouville=abs((u_mean.real - u) / h ** 2 - 2.0 * abs(q) ** 2 / e_u))


RESIDUAL_FIELDS = tuple(RESIDUAL_COLUMNS.values())


def assert_matches_reference(data, zs):
    """The batched report at zs against one reference_report per point:
    residuals to 1e-7, data and step to 1e-12 relative, same failures."""
    rep = geometry_report(data, zs)
    assert rep.z.shape == rep.u.shape == rep.liouville.shape == zs.shape
    failed = []
    for k, z in enumerate(zs):
        try:
            ref = reference_report(data, z)
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


def allowed_points(data, grid):
    points = grid.points()
    return points[_allowed_nodes(points, data)]


def default_case(eq, n=12):
    d = get_equation(eq).default_domain
    grid = GridSpec(d.kind, d.ranges, (n, n), d.base_point)
    return make_data(get_equation(eq), base_point=grid.base_point), grid


class TestBatchedReport:
    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_default_grids_match_per_point_reports(self, eq):
        data, grid = default_case(eq)
        assert_matches_reference(data, allowed_points(data, grid))

    @pytest.mark.parametrize("eq,lam,grid", [
        ("hermite", 1.0, GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)),
                                  (50, 50), 0j)),
        ("bessel", -0.5, GridSpec("polar", ((0.01, 2.0), (0.0, 2 * math.pi)),
                                  (30, 30), 1 + 0j)),
    ])
    def test_residual_workload_grids_match_per_point_reports(self, eq, lam,
                                                             grid):
        data = make_data(get_equation(eq), lam=lam,
                         base_point=grid.base_point)
        assert_matches_reference(data, allowed_points(data, grid))

    def test_failing_point_isolated(self):
        data = laguerre_data()
        zs = np.array([2 + 1j, 0j, -1 + 0.5j, 1.5 - 2j])
        rep = assert_matches_reference(data, zs)
        assert list(rep.failures) == [1]
        assert isinstance(rep.failures[1], StencilOutsideDomain)
        assert np.isnan(rep.u[1]) and np.isinf(rep.metric[1])
        for k in (0, 2, 3):
            single = geometry_report(data, zs[k])
            for name in RESIDUAL_FIELDS + ("u", "hopf"):
                assert abs(getattr(rep, name)[k]
                           - getattr(single, name)) <= 1e-12, name
        with pytest.raises(StencilOutsideDomain):
            geometry_report(data, zs[1])

    def test_point_beyond_the_coordinate_range(self):
        # the squares of its coordinates overflow, and the suite runs with
        # RuntimeWarnings as errors: the point fails with OutOfRange and
        # the others keep their reports
        data = laguerre_data()
        zs = np.array([2 + 1j, 1e200 + 1e200j, -1 + 0.5j])
        rep = geometry_report(data, zs)
        assert list(rep.failures) == [1]
        assert isinstance(rep.failures[1], OutOfRange)
        assert np.isnan(rep.u[1]) and np.isinf(rep.metric[1])
        for k in (0, 2):
            single = geometry_report(data, zs[k])
            for name in RESIDUAL_FIELDS + ("u", "hopf"):
                assert abs(getattr(rep, name)[k]
                           - getattr(single, name)) <= 1e-12, name
        with pytest.raises(OutOfRange):
            geometry_report(data, zs[1])

    @pytest.mark.parametrize("bad", ["legs", "raises", "nan"])
    def test_failing_point_isolated_from_the_others(self, bad):
        # The point 5 fails: "legs" makes eta^2 nan right of Re z = 4, so
        # its stencil legs fail; "raises" makes the ODE's r, so Q = r/p,
        # raise there, so the Hopf evaluation fails; "nan" makes eta^2
        # nan at z = 5 exactly, which no quadrature node or stencil
        # neighbour hits, so only the evaluations at the point itself are
        # not finite.
        def eta_sq(z):
            z = np.asarray(z, dtype=complex)
            worse = z.real > 4 if bad == "legs" else z == 5
            return np.where(worse & (bad != "raises"), np.nan, 1 + 0 * z)

        def r(z):
            z = np.asarray(z, dtype=complex)
            if bad == "raises" and np.any(z.real > 4):
                raise SingularPoint(complex(z.flat[np.argmax(z.real)]))
            return -0.1 + 0 * z

        data = WeierstrassData(
            pair=lambda z: (eta_sq(z), 0.1 * np.asarray(z, dtype=complex)),
            c1=1.0, c2=0.0, lam=1.0, base_point=0j, source="closed_form",
            ode=dataclasses.replace(CHI_OVER_TEN, r=r))
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

    def test_every_leg_raising_is_recorded(self):
        # eta^2 raises right of Re z = 4, so no stencil leg of the one
        # point returns a value that would tell the integrand's width
        def eta_sq(z):
            z = np.asarray(z, dtype=complex)
            if np.any(z.real > 4):
                raise SingularPoint(complex(z.flat[np.argmax(z.real)]))
            return 1 + 0 * z

        data = WeierstrassData(
            pair=lambda z: (eta_sq(z), 0.1 * np.asarray(z, dtype=complex)),
            c1=1.0, c2=0.0, lam=1.0, base_point=0j, source="closed_form",
            ode=CHI_OVER_TEN)
        rep = geometry_report(data, np.array([5 + 0j]))
        assert list(rep.failures) == [0]
        assert isinstance(rep.failures[0], SingularPoint)
        assert np.isinf(rep.metric[0]) and np.isnan(rep.hopf[0])
        with pytest.raises(SingularPoint):
            geometry_report(data, 5 + 0j)

    def test_a_point_fails_on_u_before_q(self):
        # eta^2 is nan at exactly 5 and at exactly the first circle point
        # of 2 - 1j, which no quadrature node hits, and the ODE's r raises
        # at 5 and on the upper half of that circle: both points fail on
        # u, as when u and then Q were evaluated pass by pass
        c = 2 - 1j
        w = c + 1e-3 * CIRCLE[0]

        def eta_sq(z):
            z = np.asarray(z, dtype=complex)
            return np.where((z == 5) | (z == w), np.nan, 1 + 0 * z)

        def r(z):
            z = np.asarray(z, dtype=complex)
            bad = (z == 5) | ((np.abs(z - c) < 0.01) & (z.imag > -1 + 5e-4))
            if np.any(bad):
                raise SingularPoint(complex(z.flat[np.argmax(bad)]))
            return -0.1 + 0 * z

        data = WeierstrassData(
            pair=lambda z: (eta_sq(z), 0.1 * np.asarray(z, dtype=complex)),
            c1=1.0, c2=0.0, lam=1.0, base_point=0j, source="closed_form",
            ode=dataclasses.replace(CHI_OVER_TEN, r=r))
        rep = geometry_report(data, np.array([1 - 2j, 5 + 0j, c]))
        assert sorted(rep.failures) == [1, 2]
        for k, z in ((1, 5), (2, w)):
            assert type(rep.failures[k]) is EvaluationFailure
            assert rep.failures[k].z == z
            with pytest.raises(EvaluationFailure):
                geometry_report(data, [5 + 0j, c][k - 1])

    def test_scalar_call_returns_python_scalars(self):
        rep = geometry_report(laguerre_data(), 2 + 1j)
        assert type(rep.z) is complex and type(rep.hopf) is complex
        for name in RESIDUAL_FIELDS + ("u", "conformal_factor", "step"):
            assert type(getattr(rep, name)) is float, name
        assert rep.failures == {}


def report_legs(data, zs, monkeypatch):
    """(a, b, rows, tol) of the one weierstrass.edge_rows call of the
    report at zs."""
    seen = []

    def spy(data, a, b, tol):
        rows, failures = weierstrass.edge_rows(data, a, b, tol)
        seen.append((a, b, rows, tol))
        return rows, failures

    monkeypatch.setattr(immersion, "edge_rows", spy)
    geometry_report(data, zs)
    monkeypatch.undo()
    (call,) = seen
    return call


class TestCircleDiameters:
    """The report's legs k and k + 4 are one diameter, one GK15 panel on
    a closed form, except at points on a cut ray; on the numeric route
    their rows are those of the legs in their own order."""

    @pytest.mark.parametrize("eq", ["legendre_assoc", "chebyshev1",
                                    "chebyshev2"])
    def test_points_on_a_cut_ray_take_one_panel_per_leg(self, eq,
                                                        monkeypatch):
        data, grid = default_case(eq)
        zs = allowed_points(data, grid)
        on_ray = Obstacles(rays=data.ode.cut_rays).on_ray(zs)
        assert on_ray.any() and not on_ray.all()
        a, b, rows, tol = report_legs(data, zs, monkeypatch)
        dist = _distance_to_exclusions(data, zs)
        h = 1e-3 * np.minimum(np.maximum(1.0, np.abs(zs)),
                              np.where(np.isfinite(dist), dist, 1.0))
        for z, r, ray in zip(zs, h, on_ray):
            legs = np.flatnonzero(a == z)
            ends = z + r * CIRCLE
            if not ray:
                # the other points' legs come as diameters
                assert np.array_equal(b[legs],
                                      ends[immersion.DIAMETERS])
                continue
            assert np.array_equal(b[legs], ends)
            for k in legs:
                one, failures = weierstrass.edge_rows(data, a[k:k + 1],
                                                      b[k:k + 1], tol)
                assert not failures
                assert np.array_equal(rows[k], one[0])

    def test_numeric_route_rows_are_those_of_the_legs_in_order(
            self, monkeypatch):
        data = build_numeric_data(parse_user_ode(
            "params = alpha=2\np = z - 0.5\nq = 1.5 - z\nr = alpha\n"
            "singularities = 0.5\n"))
        grid = GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (5, 5), 0j)
        zs = allowed_points(data, grid)
        a, b, rows, tol = report_legs(data, zs, monkeypatch)
        back = np.argsort(immersion.DIAMETERS)
        a, b, rows = (x.reshape(len(zs), CIRCLE_POINTS, -1)[:, back]
                      .reshape(len(a), -1) for x in (a, b, rows))
        want, failures = weierstrass.edge_rows(data, a[:, 0], b[:, 0], tol)
        assert not failures and np.array_equal(rows, want)
        got = geometry_report(data, zs)
        monkeypatch.setattr(immersion, "DIAMETERS", np.arange(CIRCLE_POINTS))
        want = geometry_report(data, zs)
        for name in RESIDUAL_FIELDS + ("u", "conformal_factor", "hopf"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestMomentLegs:
    """The numeric route's circle legs: edge moments from the pair at
    the point, against GK15 legs and the closed form's report."""

    @staticmethod
    def legal_circles(data, grid):
        """(xi, h): a default-grid case's allowed points whose eight
        circle legs cross no cut ray (across a cut the closed form
        jumps, while moments continue it analytically), with the
        report's radii."""
        xi = allowed_points(data, grid)
        dist = _distance_to_exclusions(data, xi)
        h = 1e-3 * np.minimum(np.maximum(1.0, np.abs(xi)),
                              np.where(np.isfinite(dist), dist, 1.0))
        ends = xi[:, None] + h[:, None] * CIRCLE
        clear = Obstacles(data.ode.exclusions(), data.ode.cut_rays) \
            .segment_clear(np.repeat(xi, CIRCLE_POINTS), ends.ravel())
        keep = clear.reshape(-1, CIRCLE_POINTS).all(axis=1)
        return xi[keep], h[keep]

    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_moment_legs_match_gk15_legs(self, eq):
        # on the numeric pair, the circle legs by GK15 of its integrand
        # (every node a store lookup) and by edge moments composed with
        # the pair at the point (no lookup on the legs)
        closed, grid = default_case(eq, 6)
        data = build_numeric_data(closed.ode)
        xi, h = self.legal_circles(closed, grid)
        a = np.repeat(xi, CIRCLE_POINTS)
        b = (xi[:, None] + h[:, None] * CIRCLE).ravel()
        want, failures = gk15_segments(ew_integrand(data), a, b, 1e-12)
        assert failures == {}
        moments, failures = edge_moments(data.ode, data.lam, a, b, 1e-12)
        assert failures == {}
        eta_sq, chi, legs = compose(*np.repeat(np.stack(data.pair(xi)),
                                               CIRCLE_POINTS, axis=1),
                                    moments)
        want, legs = (x.reshape(-1, CIRCLE_POINTS, 3) for x in (want, legs))
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert np.max(np.abs(legs - want) / scale) <= 1e-13
        u, exact = u_of_pair(eta_sq, chi), log_conformal_factor(closed, b)
        assert np.max(np.abs(u - exact) / np.maximum(1.0, np.abs(exact))) \
            <= 1e-13

    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_numeric_report_matches_the_closed_form(self, eq):
        # the report of the numeric pair, with the pair at the points
        # looked up or given, against the closed form's
        closed, grid = default_case(eq, 6)
        numeric = build_numeric_data(closed.ode)
        xi, _ = self.legal_circles(closed, grid)
        want = geometry_report(closed, xi)
        assert want.failures == {}
        e_u = want.conformal_factor
        for pair in (None, closed.pair(xi)):
            got = geometry_report(numeric, xi, pair=pair)
            assert got.failures == {}
            assert np.max(np.abs(got.u - want.u)) <= 1e-12
            assert np.max(np.abs(got.conformal_factor - e_u) / e_u) <= 1e-12
            assert np.max(np.abs(got.hopf - want.hopf)
                          / np.maximum(1.0, np.abs(want.hopf))) <= 1e-12
            for name in RESIDUAL_COLUMNS.values():
                # the Liouville residual is rounding noise ulp(u) / h^2
                bound = 1e-6 if name == "liouville" else 1e-9
                diff = np.abs(getattr(got, name) - getattr(want, name))
                assert np.max(diff / np.maximum(1.0, e_u)) <= bound, name
