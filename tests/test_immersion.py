"""Immersion representations and the finite-difference geometry report."""

import numpy as np
import pytest

from wsurf.catalog import EQUATION_IDS, get_equation
from wsurf.contour import contour_quad, straight_path
from wsurf.errors import StencilOutsideDomain
from wsurf.immersion import (IDENTITY2, PAULI, combine_euclidean,
                             combine_quaternionic, ew_integrals,
                             geometry_report, immerse_ew, pauli_decompose,
                             sym_tafel, to_quaternionic)
from wsurf.pathplan import plan_path
from wsurf.special import ei
from wsurf.weierstrass import closed_form_data


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
