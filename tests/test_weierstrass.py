"""Closed-form and numeric Weierstrass pairs and their verification."""

import numpy as np
import pytest

from wsurf.catalog import get_equation, load_user_ode
from wsurf.weierstrass import (CachedAntiderivative, WeierstrassData,
                               build_chi, build_eta, build_numeric_data,
                               closed_form_data, make_data,
                               verify_weierstrass)

SAFE_POINTS = (2 + 1j, 0.5 + 0.8j, -0.7 + 1.4j, 1.5 + 0.3j, -1.2 + 2j)


class TestClosedForms:
    def test_laguerre_pair(self):
        ode = get_equation("laguerre", {"alpha": 1})
        data = closed_form_data(ode, 1, 0, 1)
        for z in SAFE_POINTS:
            assert abs(complex(data.eta_sq(z)) - np.exp(z) / z) <= 1e-13
            assert abs(complex(data.chi(z)) - np.exp(-z)) <= 1e-13
        assert abs(data.chi_prime(2.0) + np.exp(-2.0)) <= 1e-13

    def test_laguerre_hopf(self):
        # Q = -eta^2 chi' collapses to 1/z for the laguerre pair
        data = closed_form_data(get_equation("laguerre"), 1, 0, 1)
        z = 2 + 1j
        assert abs(data.hopf(z) - 1.0 / z) <= 1e-13

    def test_legendre_pair(self):
        ode = get_equation("legendre", {"alpha": 1})
        data = closed_form_data(ode, c1=1, c2=0.5, lam=2)
        for z in SAFE_POINTS:
            assert abs(complex(data.eta_sq(z)) - 1 / (1 - z * z)) <= 1e-13
            assert abs(complex(data.chi(z)) + (2 * z + 0.5) / 2) <= 1e-13

    def test_conformal_factor_identity(self):
        data = closed_form_data(get_equation("laguerre"), 1, 0, 1)
        z = 1.3 + 0.4j
        half = abs(complex(data.eta_sq(z))) * (1 + abs(complex(data.chi(z))) ** 2)
        assert abs(data.conformal_factor(z) - half * half) <= 1e-13
        assert abs(data.log_conformal_factor(z) - 2 * np.log(half)) <= 1e-13

    def test_all_catalog_rows_satisfy_identities(self):
        for eq in ("laguerre", "legendre", "legendre_assoc", "bessel",
                   "chebyshev1", "chebyshev2", "laguerre_assoc", "hermite",
                   "gegenbauer", "jacobi"):
            ode = get_equation(eq)
            data = closed_form_data(ode, 1, 0, 1)
            assert data is not None, eq
            pts = [z for z in SAFE_POINTS]
            report = verify_weierstrass(data, ode, pts)
            assert report.max_residual() <= 1e-8, (eq, report)

    def test_bad_constants(self):
        ode = get_equation("laguerre")
        with pytest.raises(ValueError):
            closed_form_data(ode, c1=0)
        with pytest.raises(ValueError):
            closed_form_data(ode, lam=0)


class TestNumericRoute:
    def test_build_eta_laguerre(self):
        ode = get_equation("laguerre")
        eta = build_eta(ode, c1=2.0)
        for z in (2 + 0.5j, 0.8 + 1.2j, -1 + 1j):
            assert abs(complex(eta(z)) - np.exp(z) / (2 * z)) <= 1e-9

    def test_build_eta_constant_when_q_zero(self):
        ode = load_user_ode("p = 1\nq = 0\nr = 1\n")
        eta = build_eta(ode, c1=1.0)
        vals = [complex(eta(z)) for z in (0.5j, 1 + 1j, -2 + 0.3j)]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-11

    def test_build_eta_bessel(self):
        ode = get_equation("bessel")
        eta = build_eta(ode, c1=1.0)
        for z in (0.5 + 0.5j, 1.5 + 1j, -1 + 0.8j):
            assert abs(complex(eta(z)) - 1.0 / z) <= 1e-9

    def test_build_chi_constant_when_r_zero(self):
        ode = load_user_ode("p = 1\nq = 1\nr = 0\n")
        data = build_numeric_data(ode, c1=1, c2=3.0, lam=2.0)
        for z in (0.4 + 0.2j, -1 + 1j):
            assert abs(complex(data.chi(z)) - 1.5) <= 1e-10

    def test_numeric_matches_closed_laguerre(self):
        ode = get_equation("laguerre")
        data = build_numeric_data(ode)
        cf = closed_form_data(ode, 1, 0, 1)
        for z in (2 + 1j, 0.5 + 1.5j, -0.8 + 0.9j):
            assert abs(complex(data.eta_sq(z)) - complex(cf.eta_sq(z))) <= 1e-9
            assert abs(complex(data.chi(z)) - complex(cf.chi(z))) <= 1e-9

    def test_make_data_prefers_closed_form(self):
        ode = get_equation("laguerre")
        assert make_data(ode).source == "closed_form"
        user = load_user_ode("p = z\nq = 1 - z\nr = 1\nsingularities = 0\n")
        assert make_data(user).source == "numeric"


class TestVerification:
    def test_detects_perturbation_with_linear_scaling(self):
        ode = get_equation("laguerre")
        base = closed_form_data(ode, 1, 0, 1)
        pts = [2 + 1j, 1 + 2j, 0.7 + 0.7j]

        def perturbed(eps):
            return WeierstrassData(
                eta_sq=base.eta_sq,
                chi=lambda z, e=eps: np.exp(-np.asarray(z, dtype=complex)) + e * np.asarray(z),
                c1=1, c2=0, lam=1, base_point=base.base_point,
                source="closed_form",
                exclusions=base.exclusions, cut_rays=base.cut_rays)

        clean = verify_weierstrass(base, ode, pts).max_residual()
        r1 = verify_weierstrass(perturbed(0.01), ode, pts).chi_residual
        r2 = verify_weierstrass(perturbed(0.001), ode, pts).chi_residual
        assert clean <= 1e-8
        assert r1 > 1e-3
        assert abs(r1 / r2 - 10.0) <= 2.0     # residual scales linearly in eps


class TestCachedAntiderivative:
    def test_matches_closed_form(self):
        cache = CachedAntiderivative(lambda z: np.exp(z), 0j)
        for z in (1 + 1j, -2 + 0.5j, 3j):
            assert abs(cache(z) - (np.exp(z) - 1)) <= 1e-10

    def test_initial_value_offsets(self):
        cache = CachedAntiderivative(lambda z: 2 * z, 1 + 0j, initial_value=5.0)
        # F(z) = z^2 + 4 with F(1) = 5
        assert abs(cache(2 + 1j) - ((2 + 1j) ** 2 + 4)) <= 1e-10

    @pytest.mark.parametrize("integrand, anchor_value, primitive", [
        (lambda z: 1.0 / z, 0j, np.log),
        (lambda z: np.stack([1.0 / z, 2 * z], axis=-1), np.zeros(2),
         lambda z: np.array([np.log(z), z * z - 1])),
    ], ids=["scalar", "vector"])
    def test_order_independent(self, integrand, anchor_value, primitive):
        def fresh():
            return CachedAntiderivative(
                integrand, 1 + 0j, exclusions=((0j, 0.02),),
                cuts=((0j, -1 + 0j),), initial_value=anchor_value)
        a = fresh()
        direct = a(-1 + 1j)
        b = fresh()
        for z in (2 + 0j, 2 + 2j, 1j, -0.5 + 0.5j):
            b(z)
        assert np.max(np.abs(b(-1 + 1j) - direct)) <= 1e-9
        assert np.max(np.abs(direct - primitive(-1 + 1j))) <= 1e-9
        assert np.max(np.abs(b(1 + 0j) - anchor_value)) == 0.0

    def test_routes_around_obstacles(self):
        cache = CachedAntiderivative(
            lambda z: 1.0 / z, 1 + 0j,
            exclusions=((0j, 0.5),), cuts=((0j, -1 + 0j),))
        # -1+0.01j needs a detour; the value is still log of the endpoint
        z = -1 + 0.01j
        assert abs(cache(z) - np.log(z)) <= 1e-9


class TestArrayCalls:
    @pytest.mark.parametrize("prefer,rtol", [("closed_form", 1e-14),
                                             ("numeric", 1e-8)])
    def test_array_calls_match_scalar_calls(self, prefer, rtol):
        # scalar calls must stay Python scalars: `wsurf sample` formats
        # complex values by isinstance
        data = make_data(get_equation("laguerre"), prefer=prefer)
        zs = np.array(SAFE_POINTS)
        for name, kind in (("log_conformal_factor", float), ("hopf", complex),
                           ("chi_prime", complex),
                           ("conformal_factor", float)):
            fn = getattr(data, name)
            scalar = [fn(z) for z in SAFE_POINTS]
            assert all(type(v) is kind for v in scalar), name
            batch = fn(zs)
            assert batch.shape == zs.shape
            assert np.allclose(batch, scalar, rtol=rtol, atol=0), name
