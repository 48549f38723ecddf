"""Closed-form and numeric Weierstrass pairs and their verification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsurf.catalog import EQUATION_IDS, get_equation, parse_user_ode
from wsurf.errors import (EvaluationFailure, PathPlanningFailure,
                          SingularPoint)
import wsurf.weierstrass as weierstrass
from wsurf import contour
from wsurf.contour import gk15_segments, straight_path
from wsurf.geometry import Obstacles
from wsurf.immersion import ew_integrand
from wsurf.linearproblem import integrate_wavefunction, potential_matrix
from wsurf.weierstrass import (CachedAntiderivative, WeierstrassData,
                               build_numeric_data, closed_form_data,
                               make_data, verify_weierstrass)

from test_contour import _outcome, pooled_gk15, same_failures

SAFE_POINTS = (2 + 1j, 0.5 + 0.8j, -0.7 + 1.4j, 1.5 + 0.3j, -1.2 + 2j)


class TestClosedForms:
    def test_laguerre_pair(self):
        ode = get_equation("laguerre", {"alpha": 1})
        data = closed_form_data(ode, 1, 0, 1)
        for z in SAFE_POINTS:
            assert abs(complex(data.pair(z)[0]) - np.exp(z) / z) <= 1e-13
            assert abs(complex(data.pair(z)[1]) - np.exp(-z)) <= 1e-13

    def test_laguerre_hopf(self):
        # Q = -eta^2 chi' collapses to 1/z for the laguerre pair
        data = closed_form_data(get_equation("laguerre"), 1, 0, 1)
        z = 2 + 1j
        assert abs(data.hopf(z) - 1.0 / z) <= 1e-13

    def test_legendre_pair(self):
        ode = get_equation("legendre", {"alpha": 1})
        data = closed_form_data(ode, c1=1, c2=0.5, lam=2)
        for z in SAFE_POINTS:
            assert abs(complex(data.pair(z)[0]) - 1 / (1 - z * z)) <= 1e-13
            assert abs(complex(data.pair(z)[1]) + (2 * z + 0.5) / 2) <= 1e-13

    def test_conformal_factor_identity(self):
        data = closed_form_data(get_equation("laguerre"), 1, 0, 1)
        z = 1.3 + 0.4j
        half = (abs(complex(data.pair(z)[0]))
                * (1 + abs(complex(data.pair(z)[1])) ** 2))
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
            report = verify_weierstrass(data, pts)
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
        pair = build_numeric_data(ode, c1=2.0).pair
        for z in (2 + 0.5j, 0.8 + 1.2j, -1 + 1j):
            assert abs(complex(pair(z)[0]) - np.exp(z) / (2 * z)) <= 1e-9

    def test_build_eta_constant_when_q_zero(self):
        ode = parse_user_ode("p = 1\nq = 0\nr = 1\n")
        pair = build_numeric_data(ode, c1=1.0).pair
        vals = [complex(pair(z)[0]) for z in (0.5j, 1 + 1j, -2 + 0.3j)]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-11

    def test_build_eta_bessel(self):
        ode = get_equation("bessel")
        pair = build_numeric_data(ode, c1=1.0).pair
        for z in (0.5 + 0.5j, 1.5 + 1j, -1 + 0.8j):
            assert abs(complex(pair(z)[0]) - 1.0 / z) <= 1e-9

    def test_build_chi_constant_when_r_zero(self):
        ode = parse_user_ode("p = 1\nq = 1\nr = 0\n")
        data = build_numeric_data(ode, c1=1, c2=3.0, lam=2.0)
        for z in (0.4 + 0.2j, -1 + 1j):
            assert abs(complex(data.pair(z)[1]) - 1.5) <= 1e-10

    def test_numeric_matches_closed_laguerre(self):
        ode = get_equation("laguerre")
        data = build_numeric_data(ode)
        cf = closed_form_data(ode, 1, 0, 1)
        for z in (2 + 1j, 0.5 + 1.5j, -0.8 + 0.9j):
            assert abs(complex(data.pair(z)[0])
                       - complex(cf.pair(z)[0])) <= 1e-9
            assert abs(complex(data.pair(z)[1])
                       - complex(cf.pair(z)[1])) <= 1e-9

    @pytest.mark.parametrize("lam", [1.0, 2 - 1j])
    def test_hopf_is_exact(self, lam):
        # chi' = -(r/p)/(lambda eta^2) by construction, so Q = r/(lambda p)
        # with no difference quotient of chi; the README ODE's r/p is
        # 2/(z - 0.5)
        ode = parse_user_ode("params = alpha=2\np = z - 0.5\nq = 1.5 - z\n"
                             "r = alpha\nsingularities = 0.5\n")
        data = build_numeric_data(ode, lam=lam)
        zs = np.array(SAFE_POINTS)
        exact = 2 / (lam * (zs - 0.5))
        scalar = np.array([data.hopf(z) for z in SAFE_POINTS])
        for q in (scalar, data.hopf(zs)):
            assert np.max(np.abs(q - exact) / np.abs(exact)) <= 1e-14

    def test_hopf_needs_no_lookup(self, monkeypatch):
        # Q = r/(lambda p) comes from the ODE alone, never from the store
        # of (log eta^2, chi) behind the numeric pair or its panel chain
        ode = parse_user_ode("params = alpha=2\np = z - 0.5\nq = 1.5 - z\n"
                             "r = alpha\nsingularities = 0.5\n")
        data = build_numeric_data(ode)
        lookups, chains = [], []
        lookup = CachedAntiderivative._lookup_array
        monkeypatch.setattr(
            CachedAntiderivative, "_lookup_array",
            lambda store, z: lookups.append(z) or lookup(store, z))
        chain = weierstrass.panel_lanes
        monkeypatch.setattr(weierstrass, "panel_lanes",
                            lambda *args: chains.append(args) or chain(*args))
        data.hopf(2 + 1j)
        data.hopf(np.array(SAFE_POINTS))
        assert lookups == [] and chains == []
        data.pair(2 + 1j)
        assert len(lookups) == 1 and len(chains) == 1

    def test_one_lookup_per_pair_consumer(self, monkeypatch):
        # every consumer reads eta^2 and chi from one call of the pair,
        # so one lookup of the (log eta^2, chi) store per evaluation
        data = build_numeric_data(parse_user_ode(
            "params = alpha=2\np = z - 0.5\nq = 1.5 - z\nr = alpha\n"
            "singularities = 0.5\n"))
        wf = integrate_wavefunction(data, (1.0, 0.0),
                                    straight_path(2 + 1j, 1 + 2j))
        consumers = {
            "ew_integrand": ew_integrand(data),
            "conformal_factor": data.conformal_factor,
            "log_conformal_factor": data.log_conformal_factor,
            "potential_matrix": lambda z: potential_matrix(data, z),
            "psi": wf.psi,
            "verify_weierstrass": lambda z: verify_weierstrass(
                data, np.atleast_1d(z)),
        }
        lookups = []
        lookup = CachedAntiderivative._lookup_array
        monkeypatch.setattr(
            CachedAntiderivative, "_lookup_array",
            lambda store, z: lookups.append(z) or lookup(store, z))
        for name, consumer in consumers.items():
            for z in (SAFE_POINTS[0], np.array(SAFE_POINTS)):
                lookups.clear()
                consumer(z)
                assert len(lookups) == 1, (name, np.ndim(z))

    def test_singular_point_names_the_zero_of_p(self):
        # the leg -1 -> 1 puts the middle Kronrod node, not the first
        # one, on the zero of p
        ode = parse_user_ode("p = z\nq = 1\nr = 1\n")
        for k in (0, 1):
            pair = build_numeric_data(ode, base_point=-1.0).pair
            for z in (1 + 0j, np.array([1 + 0j])):
                with pytest.raises(SingularPoint) as info:
                    pair(z)[k]
                assert info.value.z == 0

    def test_make_data_prefers_closed_form(self):
        ode = get_equation("laguerre")
        assert make_data(ode).source == "closed_form"
        user = parse_user_ode("p = z\nq = 1 - z\nr = 1\nsingularities = 0\n")
        assert make_data(user).source == "numeric"

    @pytest.mark.parametrize("eq", ["laguerre", "laguerre_assoc", "user"])
    def test_one_closed_form_lookup(self, eq, monkeypatch):
        # laguerre has a closed form, laguerre_assoc at alpha = 0.5 and
        # the user ODE have none
        ode = (parse_user_ode("p = z\nq = 1 - z\nr = 1\nsingularities = 0\n")
               if eq == "user" else get_equation(
                   eq, {"alpha": 0.5} if eq == "laguerre_assoc" else None))
        calls = []
        closed_form = weierstrass.closed_form_data

        def counted(*args, **kwargs):
            calls.append(args)
            return closed_form(*args, **kwargs)
        monkeypatch.setattr(weierstrass, "closed_form_data", counted)
        data = build_numeric_data(ode, c1=2.0, c2=0.5, lam=1.5,
                                  base_point=1 + 1j)
        z = np.array([2 + 1j, 0.5 + 1.5j])
        data.pair(z)[0], data.pair(z)[1]
        assert len(calls) == 1
        assert (data.source, data.base_point) == ("numeric", 1 + 1j)
        assert (data.c1, data.c2, data.lam) == (2.0, 0.5, 1.5)
        # the pair is anchored at the base point
        cf = closed_form(ode, 2.0, 0.5, 1.5)
        eta0, chi0 = ((cf.pair(1 + 1j)[0], cf.pair(1 + 1j)[1])
                      if cf is not None else (1 / 2.0, 0.5 / 1.5))
        assert abs(complex(data.pair(1 + 1j)[0]) - eta0) == 0.0
        assert abs(complex(data.pair(1 + 1j)[1]) - chi0) == 0.0

    @pytest.mark.parametrize("kw", [{"c1": 0}, {"lam": 0}],
                             ids=["c1", "lambda"])
    def test_zero_constant_rejected_for_user_odes(self, kw):
        # the numeric route divides by both constants
        user = parse_user_ode("p = z\nq = 1 - z\nr = 1\nsingularities = 0\n")
        with pytest.raises(ValueError, match="must be nonzero"):
            make_data(user, **kw)


class TestVerification:
    def test_detects_perturbation_with_linear_scaling(self):
        ode = get_equation("laguerre")
        base = closed_form_data(ode, 1, 0, 1)
        pts = [2 + 1j, 1 + 2j, 0.7 + 0.7j]

        def perturbed(eps):
            def chi(z):
                z = np.asarray(z, dtype=complex)
                return np.exp(-z) + eps * z
            return dataclasses.replace(
                base, pair=lambda z: (base.pair(z)[0], chi(z)))

        clean = verify_weierstrass(base, pts).max_residual()
        r1 = verify_weierstrass(perturbed(0.01), pts).chi_residual
        r2 = verify_weierstrass(perturbed(0.001), pts).chi_residual
        assert clean <= 1e-8
        assert r1 > 1e-3
        assert abs(r1 / r2 - 10.0) <= 2.0     # residual scales linearly in eps

    def test_ode_is_required(self):
        with pytest.raises(TypeError, match="ode"):
            WeierstrassData(pair=np.exp, c1=1, c2=0, lam=1,
                            base_point=0j, source="closed_form")

    def test_samples_are_python_scalars(self):
        ode = get_equation("laguerre")
        report = verify_weierstrass(build_numeric_data(ode), SAFE_POINTS)
        assert [row[0] for row in report.samples] == list(SAFE_POINTS)
        assert all(type(z) is complex and type(a) is float
                   and type(b) is float for z, a, b in report.samples)
        assert report.max_residual() == max(
            max(a, b) for _, a, b in report.samples)
        assert verify_weierstrass(make_data(ode), []).samples == ()


class TestPanelChain:
    """The numeric pair's Chebyshev-panel chain against closed forms."""

    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_matches_closed_form(self, eq):
        # off the cuts, on both sides of them: each conjugate lies across
        # the real-axis cuts of the equations that have them
        ode = get_equation(eq)
        data, closed = build_numeric_data(ode), closed_form_data(ode)
        upper = np.array(SAFE_POINTS + (-1.5 + 0.3j, 0.3 + 0.2j, -0.4 + 0.3j))
        for z in (upper, np.conj(upper)):
            for k in (0, 1):
                want = closed.pair(z)[k]
                assert np.max(np.abs(data.pair(z)[k] - want)
                              / np.abs(want)) <= 1e-12, eq

    def test_zero_of_q_over_p(self):
        # the README ODE's q/p = (1.5 - z)/(z - 0.5) vanishes at 1.5, a
        # node of its 25 x 25 grid, and rounding leaves q/p no relative
        # accuracy on a short leg there: the legs from a stored point
        # nearby converge all the same, to the closed form
        # eta^2 = e^z / (1 - 2z), chi = 4 (1 - e^-z)
        data = build_numeric_data(parse_user_ode(_README_ODE))
        data.pair(1.4993)
        for z in (1.5 + 0j, np.array([1.5 + 1e-4j, 1.5005 - 1e-4j])):
            z = np.asarray(z)
            assert np.allclose(data.pair(z)[0], np.exp(z) / (1 - 2 * z),
                               rtol=1e-12, atol=0)
            assert np.allclose(data.pair(z)[1], 4 * (1 - np.exp(-z)),
                               rtol=1e-12, atol=0)


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_nearest_across_the_leaf_size(self, data):
        # stores of up to a few hundred points, scanned in chunks of as
        # few as one query; a lattice makes ties, and keeps dx^2 + dy^2
        # exact; queries are lattice points and stored ones
        def points(size):
            xy = data.draw(arrays(np.int64, (size, 2), fill=st.nothing(),
                                  elements=st.integers(-64, 64)))
            return (xy[:, 0] + 1j * xy[:, 1]) / 16

        cache = CachedAntiderivative(None, points(1)[0])
        sizes = st.lists(st.integers(1, 160) | st.integers(1, 8),
                         min_size=1, max_size=4)
        scan = data.draw(st.integers(1, 2000))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(weierstrass, "_SCAN_ITEMS", scan)
            for size in data.draw(sizes):
                cache._insert(points(size), np.zeros(size))
                stored = cache._points[:cache._size]
                picks = st.lists(st.integers(0, len(stored) - 1),
                                 max_size=8)
                z = np.concatenate([points(data.draw(st.integers(1, 8))),
                                    stored[data.draw(picks)]])
                near = cache._nearest(z)
                # the scan's arithmetic
                dx = stored.real - z.real[:, None]
                dy = stored.imag - z.imag[:, None]
                dist = np.sqrt(dx * dx + dy * dy)
                assert np.array_equal(dist[np.arange(len(z)), near],
                                      dist.min(axis=1))
                # hypot rounds differently, by an ulp at most
                dense = np.abs(stored - z[:, None]).min(axis=1)
                assert np.all(np.abs(stored[near] - z)
                              <= dense * (1 + 2 * np.finfo(float).eps))

    def test_routes_around_obstacles(self):
        cache = CachedAntiderivative(
            lambda z: 1.0 / z, 1 + 0j,
            exclusions=((0j, 0.5),), cuts=((0j, -1 + 0j),))
        # -1+0.01j needs a detour; the value is still log of the endpoint
        z = -1 + 0.01j
        assert abs(cache(z) - np.log(z)) <= 1e-9


class TestArrayCalls:
    @pytest.mark.parametrize("source,rtol", [("closed_form", 1e-14),
                                             ("numeric", 1e-8)])
    def test_array_calls_match_scalar_calls(self, source, rtol):
        # scalar calls must stay Python scalars: `wsurf sample` formats
        # complex values by isinstance
        build = {"closed_form": closed_form_data,
                 "numeric": build_numeric_data}[source]
        data = build(get_equation("laguerre"))
        zs = np.array(SAFE_POINTS)
        for name, kind in (("log_conformal_factor", float), ("hopf", complex),
                           ("conformal_factor", float)):
            fn = getattr(data, name)
            scalar = [fn(z) for z in SAFE_POINTS]
            assert all(type(v) is kind for v in scalar), name
            batch = fn(zs)
            assert batch.shape == zs.shape
            assert np.allclose(batch, scalar, rtol=rtol, atol=0), name


def _per_point(cache, z):
    """The cache's values at an array z, one scalar call per element."""
    values = np.array([cache(complex(w)) for w in z.ravel()])
    return values.reshape(z.shape + values.shape[1:])


def _close(a, b, tol=1e-9):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))


# (integrand, primitive, anchor, exclusions, cuts): bessel's cut plane and
# legendre's two discs with their outward cuts
_OBSTACLE_CASES = {
    "bessel": (lambda z: 1.0 / z, np.log, 1 + 0j, ((0j, 0.02),),
               ((0j, -1 + 0j),)),
    "legendre": (lambda z: 1.0 / (1 - z * z), np.arctanh, 0j,
                 ((1 + 0j, 0.02), (-1 + 0j, 0.02)),
                 ((1 + 0j, 1 + 0j), (-1 + 0j, -1 + 0j))),
}
# each one's nearest point in a first batch of the others lies across a cut
_ACROSS_CUTS = (-1.5 + 0.3j, -1.5 - 0.3j, 1.5 + 0.3j, 1.5 - 0.3j,
                -0.3 + 0.1j, -0.3 - 0.1j)


_README_ODE = ("id = my-equation\nparams = alpha=2\np = z - 0.5\n"
               "q = 1.5 - z\nr = alpha\nsingularities = 0.5\n")


def _pair_per_point(data, z):
    """(eta^2, chi) of a numeric pair at an array z, each point looked up
    on its own, in order."""
    return np.array([[data.pair(complex(w))[0], data.pair(complex(w))[1]]
                     for w in z.ravel()]).reshape(z.shape + (2,))


def _pair(data, z):
    return np.stack([data.pair(z)[0], data.pair(z)[1]], axis=-1)


class TestBatchedAntiderivative:
    """Array calls of CachedAntiderivative against one scalar call per
    point, which is kept here as the reference."""

    @pytest.mark.parametrize("eq", EQUATION_IDS + ("user",))
    def test_numeric_data_matches_per_point_lookups(self, eq):
        ode = (parse_user_ode(_README_ODE) if eq == "user"
               else get_equation(eq))
        # the conjugates of 1.5 + 0.3j and -1.5 + 0.3j lie across a cut
        first = np.array([2 + 1j, -0.7 + 1.4j, 1.5 + 0.3j, -1.5 + 0.3j])
        second = np.conj(first)
        batched, reference = build_numeric_data(ode), build_numeric_data(ode)
        for z in (first, second):
            assert _close(_pair(batched, z), _pair_per_point(reference, z)), eq

    @settings(max_examples=20, deadline=None)
    @given(eq=st.sampled_from(["bessel", "legendre"]),
           points=st.lists(st.complex_numbers(max_magnitude=3.0).filter(
               lambda z: abs(z.imag) > 1e-3 and min(abs(z - 1), abs(z + 1),
                                                   abs(z)) > 0.05),
               min_size=1, max_size=12),
           stored=st.integers(0, 4))
    def test_numeric_pair_point_sets(self, eq, points, stored):
        # the pair's store on bessel's cut plane and legendre's two discs
        # with their outward cuts: batched lookups equal per-point ones
        # and the closed form
        ode = get_equation(eq)
        batched, reference = build_numeric_data(ode), build_numeric_data(ode)
        closed = closed_form_data(ode)
        first = np.array(_ACROSS_CUTS[::2] + tuple(points[:stored]))
        second = np.array(_ACROSS_CUTS[1::2] + tuple(points)
                          + tuple(first[:2]))         # exact store hits
        for z in (first, second):
            got = _pair(batched, z)
            assert _close(got, _pair_per_point(reference, z), 1e-12)
            assert _close(got, _pair(closed, z), 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from(sorted(_OBSTACLE_CASES)),
           points=st.lists(st.complex_numbers(max_magnitude=3.0).filter(
               lambda z: abs(z.imag) > 1e-3 and min(abs(z - 1), abs(z + 1),
                                                   abs(z)) > 0.05),
               min_size=1, max_size=12),
           repeats=st.lists(st.integers(0, 11), max_size=6),
           stored=st.integers(0, 4))
    def test_point_sets(self, case, points, repeats, stored):
        integrand, primitive, anchor, exclusions, cuts = _OBSTACLE_CASES[case]

        def fresh():
            return CachedAntiderivative(integrand, anchor, exclusions, cuts)
        batched, reference = fresh(), fresh()
        first = np.array(_ACROSS_CUTS[::2] + tuple(points[:stored]))
        second = np.array(_ACROSS_CUTS[1::2] + tuple(points)
                          + tuple(points[k % len(points)] for k in repeats)
                          + tuple(first[:2]))         # exact store hits
        for z in (first, second):
            got, want = batched(z), _per_point(reference, z)
            assert got.shape == z.shape
            assert _close(got, want)
            assert _close(got, primitive(z))

    def test_failed_point_raises_its_error(self):
        integrand, primitive, anchor, exclusions, cuts = \
            _OBSTACLE_CASES["bessel"]
        cache = CachedAntiderivative(integrand, anchor, exclusions, cuts)
        inside = 0.005 + 0.005j                       # in the disc at 0
        good = np.array([2 + 1j, -1 + 1j, -1 - 0.5j])
        with pytest.raises(PathPlanningFailure, match="inside exclusion"):
            cache(np.array([good[0], inside, good[1], np.nan, good[2]]))
        with pytest.raises(EvaluationFailure):
            cache(np.array([good[0], np.nan, inside]))
        later = np.concatenate([good, [0.5j, -2 - 2j]])
        assert _close(cache(later), primitive(later))
        assert _close(cache(-2 - 2.1j), np.log(-2 - 2.1j))

    def test_point_chained_to_a_failed_path_fails_too(self):
        # -1.4-0.3j starts from -1.5-0.3j, whose path around bessel's cut
        # passes the origin, where the integrand is broken for a while
        broken = [False]

        def integrand(z):
            return np.where(broken[0] & (np.abs(z) < 0.5), np.nan, 1.0 / z)
        cache = CachedAntiderivative(integrand, 1 + 0j, ((0j, 0.02),),
                                     ((0j, -1 + 0j),))
        cache(-1.5 + 0.3j)
        broken[0] = True
        with pytest.raises(EvaluationFailure):
            cache(np.array([-1.5 - 0.3j, -1.4 - 0.3j]))
        broken[0] = False
        z = np.array([-1.4 - 0.3j, -1.5 - 0.3j])
        assert _close(cache(z), np.log(z))

    def test_values_are_not_views_of_the_store(self):
        cache = CachedAntiderivative(
            lambda z: np.stack([np.exp(z), 2 * z], axis=-1), 0j,
            initial_value=np.array([1.0, 0.0]))
        z = np.array([[1 + 1j, 0j], [-1 + 0.5j, 1 + 1j]])
        for _ in range(2):                     # new points, then all hits
            values = cache(z)
            assert values.shape == (2, 2, 2)
            assert not np.shares_memory(values, cache._values)
            values[...] = 99.0
        assert _close(cache(z)[..., 0], np.exp(z))
        assert _close(cache(z)[..., 1], z * z)
        assert _close(cache(1 + 1j), [np.exp(1 + 1j), 2j])


class TestEdgeMoments:
    """Edge moments from zeros, composed with a start state, against the
    pair and a GK15 quadrature of the Weierstrass integrand."""

    @settings(max_examples=60, deadline=None)
    @given(eq=st.sampled_from(EQUATION_IDS),
           lam=st.sampled_from([1.0, -0.5 + 0.2j]),
           a=st.complex_numbers(max_magnitude=2.0),
           d=st.complex_numbers(min_magnitude=1e-6, max_magnitude=1.0))
    def test_compose_matches_gk15(self, eq, lam, a, d):
        # a legal leg: both ends outside the discs, no disc or cut met
        ode = get_equation(eq)
        b = a + d
        assume(all(abs(w - c) > 0.1 for c, _ in ode.exclusions()
                   for w in (a, b)))
        assume(Obstacles(ode.exclusions(), ode.cut_rays).segment_clear(a, b))
        data = closed_form_data(ode, lam=lam)
        eta_sq, chi = data.pair(a)
        moments, failed = weierstrass.edge_moments(ode, lam, [a], [b], 1e-12)
        assert failed == {}
        eta_b, chi_b, increments = weierstrass.compose(eta_sq, chi, moments)
        # GK15 held to a tolerance on the integrals' scale, which its
        # error estimate cannot meet in absolute terms on large values
        scale = max(1.0, np.max(np.abs(increments)))
        want, failed = gk15_segments(ew_integrand(data), [a], [b],
                                     1e-12 * scale)
        assert failed == {}
        assert np.max(np.abs(increments - want)) <= 1e-11 * scale
        for got, exact in ((eta_b, data.pair(b)[0]), (chi_b, data.pair(b)[1])):
            assert abs(got[0] - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_failing_edge_is_isolated(self):
        # ode.ratios raises near 0.75 alone: the edge through it fails
        # with that error, and the others keep their batch's values
        ode = get_equation("hermite")

        class Spotted(type(ode)):
            def ratios(self, z):
                if np.any(np.abs(np.asarray(z) - 0.75) < 0.05):
                    raise SingularPoint(0.75)
                return super().ratios(z)

        spotted = Spotted(**{f.name: getattr(ode, f.name)
                             for f in dataclasses.fields(ode)})
        a = np.array([0j, 0.5 + 0j, 1j, -1 + 0.5j])
        b = np.array([0.5 + 0j, 1 + 0j, 1 + 1j, -0.5 + 0.5j])
        want, failed = weierstrass.edge_moments(ode, 1.0, a, b, 1e-10)
        assert failed == {}
        got, failed = weierstrass.edge_moments(spotted, 1.0, a, b, 1e-10)
        assert list(failed) == [1]
        assert isinstance(failed[1], SingularPoint)
        assert np.isnan(got[1]).all()
        keep = [0, 2, 3]
        assert np.array_equal(got[keep], want[keep])


def _hermite_panels(mids, halves):
    """The GK15 nodes mid + half _XK of the panels, and the halves."""
    mid, half = np.asarray(mids, complex), np.asarray(halves, complex)
    return mid[:, None] + half[:, None] * contour._XK, half


def _carry_band(data, n, nodes, half, chi):
    """The rounding band of hermite's carried chi against the pair's at
    each node: the carry's truncation allowance, the rule that accepts a
    panel, |k half| ROUNDING_FLOOR sum_k w_k |g_k| (k = 2n/(lambda c1^2),
    g = e^{-z^2}); then 16 units of roundoff (gamma_15 for the 15-term
    product, one for the sums) of what rounds:
    - the carry's terms |k half| |S_jk| |g_k|, each g_k off by about
      |z_k|^2 + 1 units from the rounding of z_k^2;
    - scipy's erf at the node and at the midpoint, each off by erf'
      times the rounding of z^2 over 2z, |k| |g| |z| in chi, and by a
      few units of 1 + |erf z| (it subtracts e^{-z^2} w(iz) from 1; up
      to 8.6 units of 1 near |z| = 0.05 against mpmath), so of
      |k| sqrt(pi)/2 plus the values of chi and of c2/lambda."""
    u = np.finfo(float).eps / 2
    k = 2 * n / (data.lam * data.c1 ** 2)
    g = 1 / np.abs(np.exp(nodes * nodes))
    r = np.abs(nodes)
    kh = np.abs(k * half)[:, None]
    carry = kh * ((g * (1 + r * r)) @ np.abs(contour.GK_S).T)
    conditioning = np.abs(k) * (g * r + (g * r)[:, 7:8])
    values = (np.abs(chi) + np.abs(chi[:, 7:8]) + 2 * np.abs(
        k * np.sqrt(np.pi) / 2) + 2 * np.abs(data.c2 / data.lam))
    trunc = kh * contour.ROUNDING_FLOOR * (g @ contour._WK)[:, None]
    return trunc + 16 * u * (carry + conditioning + values)


_NONZERO = st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0)


class TestHermitePanels:
    """Hermite's pair.panels: one erf per GK15 panel, carried to its
    nodes, equal to the pair up to rounding, and the pair's own bits on
    a panel the carry cannot resolve."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 2.5, 7]), c1=_NONZERO, lam=_NONZERO,
           c2=st.complex_numbers(max_magnitude=100.0),
           panels=st.lists(st.tuples(
               st.complex_numbers(max_magnitude=4.0),
               st.floats(-3, 0.5), st.floats(0, 2 * np.pi)),
               min_size=1, max_size=12))
    def test_carried_chi_matches_erf(self, n, c1, lam, c2, panels):
        data = closed_form_data(get_equation("hermite", {"n": n}),
                                c1, c2, lam)
        mid, size, angle = map(np.array, zip(*panels))
        nodes, half = _hermite_panels(mid, 10 ** size * np.exp(1j * angle))
        eta_sq, chi = data.pair.panels(nodes, half)
        want_eta, want_chi = data.pair(nodes)
        assert np.array_equal(eta_sq, want_eta)
        _, ok = contour.gk15_carry(np.exp(-nodes * nodes))
        band = _carry_band(data, n, nodes, half, want_chi)
        assert np.all(np.abs(chi - want_chi)[ok] <= band[ok])
        assert np.array_equal(chi[~ok], want_chi[~ok])

    def test_unresolved_panel_is_the_pair_bit_for_bit(self):
        # a 6-unit panel from 1 + 3i and a panel that overflows take erf at
        # every node; the short one between them carries
        data = closed_form_data(get_equation("hermite"), 0.5 + 1j, 2, 0.3j)
        nodes, half = _hermite_panels([1 + 3j, 0.2 + 0.1j, 27 + 0j],
                                      [3 + 0j, 0.01j, 0.5 + 0j])
        with np.errstate(over="ignore", invalid="ignore"):
            _, ok = contour.gk15_carry(1 / np.exp(nodes * nodes))
        assert ok.tolist() == [False, True, False]
        got, want = data.pair.panels(nodes, half), data.pair(nodes)
        for g, w in zip(got, want):
            assert np.array_equal(g[[0, 2]], w[[0, 2]], equal_nan=True)
        assert not np.array_equal(got[1][1], want[1][1])

    def test_ew_integrand_forwards_panels(self):
        hermite = closed_form_data(get_equation("hermite"), lam=-0.5 + 0.2j)
        f = ew_integrand(hermite)
        nodes, half = _hermite_panels([0.3 - 0.4j, -1 + 1.5j], [0.02, 0.1j])
        e, x = hermite.pair.panels(nodes, half)
        assert np.array_equal(f.panels(nodes, half),
                              np.stack([e, x ** 2 * e, x * e], axis=-1))
        laguerre = closed_form_data(get_equation("laguerre"))
        assert not hasattr(ew_integrand(laguerre), "panels")

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bits_do_not_depend_on_chunks_or_threads(self, chunk, workers):
        # short edges, legs that bisect (some of whose panels take erf at
        # every node), and legs into the overflow beyond |z| = 26
        data = closed_form_data(get_equation("hermite"), lam=-0.5 + 0.2j)
        f = ew_integrand(data)
        serial = lambda z: f(z)
        serial.panels = f.panels
        a = np.array([0j, 0.1 + 0.1j, 1 + 3j, -2 + 1j, 20 + 0j, 0.5j, 3 - 2j])
        b = np.array([0.02 + 0j, 0.1 + 0.13j, -1 - 2j, 2.5 - 1j, 27 + 0j,
                      28j, 3.3 - 2.1j])
        want = _outcome(serial, a, b, 1e-10)
        assert sorted(want[1]) == [4, 5]
        with pooled_gk15(workers, chunk):
            for g in (serial, f):
                got = _outcome(g, a, b, 1e-10)
                assert np.array_equal(got[0], want[0], equal_nan=True)
                assert same_failures(got[1], want[1])
