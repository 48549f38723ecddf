"""Equation catalog: coefficients, classical solutions, grids, user ODEs."""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import hermite as _herm
from numpy.polynomial import laguerre as _lag
from numpy.polynomial import legendre as _leg
from scipy import special as sps

from wsurf.catalog import (DEFAULT_PARAMS, EQUATION_IDS, GridSpec,
                           coefficient_ratios, get_equation, get_fixture,
                           load_user_ode, parse_user_ode, reference_surface)
from wsurf.cli import run_pipeline
from wsurf.errors import (OutsideFixtureDomain, SingularPoint,
                          UnknownEquation)
from wsurf.weierstrass import build_numeric_data


def test_catalog_ids():
    assert len(EQUATION_IDS) == 10
    assert len(set(EQUATION_IDS)) == 10
    for eq in EQUATION_IDS:
        assert eq in DEFAULT_PARAMS


_PM_ONE = (1 + 0j, -1 + 0j)
_REAL_CUTS = ((1 + 0j, 1 + 0j), (-1 + 0j, -1 + 0j))
_NEG_CUT = ((0j, -1 + 0j),)
_TURN = 6.283185307179586

# each id's params, singular points, cut rays, default grid (kind, ranges,
# base point; every one 50 x 50) and the base point of its numeric pair
CATALOG_TABLE = {
    "legendre": ({"alpha": 1}, _PM_ONE, _REAL_CUTS,
                 ("polar", ((0.02, 8.0), (0.0, 18.84955592153876)), 0.5 + 1j),
                 0j),
    "legendre_assoc": ({"alpha": 1, "m": 1}, _PM_ONE, _REAL_CUTS,
                       ("polar", ((0.02, 5.0), (0.0, _TURN)), -1 - 1j), 0j),
    "bessel": ({"p": 0.0}, (0j,), _NEG_CUT,
               ("polar", ((0.01, 2.0), (0.0, _TURN)), 1 + 0j), 1 + 0j),
    "chebyshev1": ({"n": 1}, _PM_ONE, _REAL_CUTS,
                   ("polar", ((0.02, 10.0), (0.0, _TURN)), 1 + 0j), 0j),
    "chebyshev2": ({"n": 1}, _PM_ONE, _REAL_CUTS,
                   ("polar", ((0.02, 10.0), (0.0, _TURN)), 1 + 0j), 0j),
    "laguerre": ({"alpha": 1}, (0j,), _NEG_CUT,
                 ("polar", ((0.02, 3.0), (0.0, _TURN)), 1 + 1j), 1 + 0j),
    "laguerre_assoc": ({"alpha": 1, "n": 2}, (0j,), _NEG_CUT,
                       ("cartesian", ((-3.0, 3.0), (0.015625, 3.0)), 3 + 3j),
                       1 + 0j),
    "hermite": ({"n": 1}, (), (),
                ("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), 1 + 3j), 0j),
    "gegenbauer": ({"alpha": 0.5, "n": 1}, _PM_ONE, _REAL_CUTS,
                   ("polar", ((0.01, 10.0), (0.0, _TURN)), 0j), 0j),
    "jacobi": ({"alpha": 1, "beta": 2, "n": 1}, _PM_ONE, _REAL_CUTS,
               ("cartesian", ((-0.99, 0.0), (0.0, 0.99)), 0j), 0j),
}


def test_catalog_records():
    assert EQUATION_IDS == tuple(CATALOG_TABLE)
    assert tuple(DEFAULT_PARAMS) == EQUATION_IDS
    for eq, (params, sing, cuts, (kind, ranges, base), pair_base) \
            in CATALOG_TABLE.items():
        ode = get_equation(eq)
        assert DEFAULT_PARAMS[eq] == params
        assert (ode.params, ode.singularities, ode.cut_rays) \
            == (params, sing, cuts), eq
        assert ode.default_domain == GridSpec(kind, ranges, (50, 50), base)
        assert (ode.valid_region is not None) == (eq == "jacobi")
        assert build_numeric_data(ode).base_point == pair_base, eq
    # jacobi's region is |z| < 1 and |z + 1| < 2 |alpha|
    inside = get_equation("jacobi", {"alpha": 0.25}).valid_region
    assert inside(-0.8 + 0.1j) and not inside(-0.2 + 0.1j)
    assert not inside(-0.9 + 0.5j)
    # and it is vectorized: an array gives the per-point answers, here
    # on both sides of each of its two circles
    z = get_equation("jacobi").default_domain.points()
    for region in (inside, get_equation("jacobi").valid_region):
        assert np.array_equal(region(z),
                              [[region(w) for w in row] for row in z])


def test_unknown_equation():
    with pytest.raises(UnknownEquation):
        get_equation("airy")


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        get_equation("laguerre", {"beta": 1})
    for value in ("2", True, np.array(2.0)):
        with pytest.raises(ValueError, match="parameter alpha of jacobi"):
            get_equation("jacobi", {"alpha": value})


# Reference builders of each catalog id's coefficients in plain numpy,
# one operation order each: the compiled texts must match them bit for
# bit.

def _legendre(par):
    a = par["alpha"]
    return (lambda z: 1 - z * z,
            lambda z: -2 * z,
            lambda z: a * (a + 1) * np.ones_like(np.asarray(z, dtype=complex)))


def _legendre_assoc(par):
    a, m = par["alpha"], par["m"]
    return (lambda z: 1 - z * z,
            lambda z: -2 * z,
            lambda z: a * (a + 1) - m * m / (1 - z * z))


def _bessel(par):
    nu = par["p"]
    return (lambda z: z * z,
            lambda z: z,
            lambda z: z * z - nu * nu)


def _chebyshev(n_eff_sq):
    return (lambda z: 1 - z * z,
            lambda z: -z,
            lambda z: n_eff_sq * np.ones_like(np.asarray(z, dtype=complex)))


def _laguerre(par):
    a = par["alpha"]
    return (lambda z: np.asarray(z, dtype=complex),
            lambda z: 1 - z,
            lambda z: a * np.ones_like(np.asarray(z, dtype=complex)))


def _laguerre_assoc(par):
    a, n = par["alpha"], par["n"]
    return (lambda z: np.asarray(z, dtype=complex),
            lambda z: a + 1 - z,
            lambda z: n * np.ones_like(np.asarray(z, dtype=complex)))


def _hermite(par):
    n = par["n"]
    return (lambda z: np.ones_like(np.asarray(z, dtype=complex)),
            lambda z: -2 * z,
            lambda z: -2 * n * np.ones_like(np.asarray(z, dtype=complex)))


def _gegenbauer(par):
    a, n = par["alpha"], par["n"]
    return (lambda z: 1 - z * z,
            lambda z: -(2 * a + 1) * np.ones_like(np.asarray(z, dtype=complex)),
            lambda z: n * (n + 2 * a) * np.ones_like(np.asarray(z, dtype=complex)))


def _jacobi(par):
    a, b, n = par["alpha"], par["beta"], par["n"]
    return (lambda z: 1 - z * z,
            lambda z: b - a - (a + b + 2) * z,
            lambda z: n * (n + a + b + 1) * np.ones_like(np.asarray(z, dtype=complex)))


_REFERENCE_COEFFICIENTS = {
    "legendre": _legendre, "legendre_assoc": _legendre_assoc,
    "bessel": _bessel,
    "chebyshev1": lambda par: _chebyshev(par["n"] ** 2),
    "chebyshev2": lambda par: _chebyshev(par["n"] * (par["n"] + 2)),
    "laguerre": _laguerre, "laguerre_assoc": _laguerre_assoc,
    "hermite": _hermite, "gegenbauer": _gegenbauer, "jacobi": _jacobi,
}


def _same_bits(got, want):
    """got and want as complex arrays of one shape and the same bytes:
    signed zeros, infinities and nan payloads included."""
    got, want = (np.asarray(v, dtype=complex) for v in (got, want))
    return got.shape == want.shape and got.tobytes() == want.tobytes()


_PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-4, 4, allow_nan=False))
# parameters as the CLI and user files give them, floats: an int is
# folded as its float, so an exact zero such as legendre's alpha*(alpha
# + 1) at alpha = -1 takes an IEEE sign, where int arithmetic has none
_PARAM = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-4, 6).map(float),
                   st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(eq=st.sampled_from(EQUATION_IDS), data=st.data(),
       parts=st.lists(st.tuples(_PART, _PART), min_size=1, max_size=8))
def test_coefficients_match_reference_bit_for_bit(eq, data, parts):
    par = {name: data.draw(_PARAM, label=name) for name in DEFAULT_PARAMS[eq]}
    ode = get_equation(eq, par)
    reference = _REFERENCE_COEFFICIENTS[eq](dict(DEFAULT_PARAMS[eq], **par))
    z = np.array([complex(x, y) for x, y in parts])
    # a zero of 1 - z*z makes legendre_assoc's r infinite in both
    with np.errstate(all="ignore"):
        for got, want in zip((ode.p, ode.q, ode.r), reference):
            assert _same_bits(got(z), want(z)), (eq, par)
            # a point reaches coefficient_ratios as a Python complex,
            # which hands it to p, q and r as a 0-d array
            for w in map(complex, z):
                w = np.asarray(w, dtype=complex)
                assert _same_bits(got(w), want(w)), (eq, par, w)
    # a cache keyed on == would give -0.0 the constants of 0.0, or the
    # other way round
    for n in (0.0, -0.0):
        got = get_equation("chebyshev2", {"n": n}).r(z)
        assert _same_bits(got, _chebyshev(n * (n + 2))[2](z)), n


@pytest.mark.parametrize("eq", EQUATION_IDS)
def test_complex_parameters(eq, rng):
    # equal values; a product with (1+0j) may flip the sign of a zero
    # imaginary part, so not always the same bits
    par = {name: complex(*rng.uniform(-3, 3, 2)) for name in DEFAULT_PARAMS[eq]}
    ode = get_equation(eq, par)
    z = rng.uniform(-3, 3, 20) + 1j * rng.uniform(-3, 3, 20)
    for got, want in zip((ode.p, ode.q, ode.r),
                         _REFERENCE_COEFFICIENTS[eq](par)):
        assert np.array_equal(got(z), want(z))


@pytest.mark.parametrize("eq", EQUATION_IDS)
def test_ratios_do_not_depend_on_the_batch(eq, rng):
    # numpy may reuse a large temporary on the right of a product, and
    # swapping a complex product's operands changes its rounding
    z = rng.uniform(-3, 3, (1000, 24)) + 1j * rng.uniform(-3, 3, (1000, 24))
    ode = get_equation(eq)
    qp, rp = ode.ratios(z)
    for i, row in enumerate(z):
        row_qp, row_rp = ode.ratios(row)
        assert _same_bits(qp[i], row_qp) and _same_bits(rp[i], row_rp), i


class TestCoefficientRatios:
    def test_laguerre(self):
        ode = get_equation("laguerre", {"alpha": 1})
        qp, rp = coefficient_ratios(ode, 2.0)
        assert abs(qp - (-0.5)) <= 1e-14
        assert abs(rp - 0.5) <= 1e-14

    def test_legendre(self):
        ode = get_equation("legendre", {"alpha": 1})
        qp, rp = coefficient_ratios(ode, 2j)
        assert abs(qp - (-4j / 5)) <= 1e-14
        assert abs(rp - 2 / 5) <= 1e-14

    def test_jacobi(self):
        ode = get_equation("jacobi", {"alpha": 1, "beta": 2, "n": 1})
        qp, rp = coefficient_ratios(ode, 0.0)
        assert abs(qp - 1.0) <= 1e-14
        assert abs(rp - 5.0) <= 1e-14

    def test_singular_point(self):
        ode = get_equation("laguerre")
        assert ode.singularities == (0j,)
        with pytest.raises(SingularPoint):
            coefficient_ratios(ode, 0.0)
        with pytest.raises(SingularPoint):
            coefficient_ratios(get_equation("legendre"), 1.0)


def _solution_derivatives(eq_id, params):
    """(w, w', w'') as exact callables for the catalog's known solutions."""
    if eq_id == "laguerre":
        a = int(params["alpha"])
        c = np.zeros(a + 1)
        c[a] = 1.0
        return tuple(
            (lambda z, cc=ck: _lag.lagval(np.asarray(z, dtype=complex), cc))
            for ck in (c, _lag.lagder(c), _lag.lagder(c, 2)))
    if eq_id == "legendre":
        a = int(params["alpha"])
        c = np.zeros(a + 1)
        c[a] = 1.0
        return tuple(
            (lambda z, cc=ck: _leg.legval(np.asarray(z, dtype=complex), cc))
            for ck in (c, _leg.legder(c), _leg.legder(c, 2)))
    if eq_id == "chebyshev1":
        n = int(params["n"])
        c = np.zeros(n + 1)
        c[n] = 1.0
        return tuple(
            (lambda z, cc=ck: _cheb.chebval(np.asarray(z, dtype=complex), cc))
            for ck in (c, _cheb.chebder(c), _cheb.chebder(c, 2)))
    if eq_id == "hermite":
        m = -int(params["n"])
        c = np.zeros(m + 1)
        c[m] = 1.0
        return tuple(
            (lambda z, cc=ck: _herm.hermval(np.asarray(z, dtype=complex), cc))
            for ck in (c, _herm.hermder(c), _herm.hermder(c, 2)))
    if eq_id in ("laguerre_assoc", "jacobi"):
        if eq_id == "laguerre_assoc":
            poly = sps.genlaguerre(int(params["n"]), params["alpha"])
        else:
            poly = sps.jacobi(int(params["n"]), params["alpha"], params["beta"])
        d1, d2 = poly.deriv(), poly.deriv(2)
        return (lambda z: poly(np.asarray(z, dtype=complex)),
                lambda z: d1(np.asarray(z, dtype=complex)),
                lambda z: d2(np.asarray(z, dtype=complex)))
    if eq_id == "bessel":
        # J0' = -J1 and J0'' = -J0 + J1/z
        return (lambda z: sps.jv(0, np.asarray(z, dtype=complex)),
                lambda z: -sps.jv(1, np.asarray(z, dtype=complex)),
                lambda z: -sps.jv(0, np.asarray(z, dtype=complex))
                + sps.jv(1, np.asarray(z, dtype=complex)) / z)
    raise KeyError(eq_id)


def classical_solution(eq_id, params):
    """A known solution of the cataloged ODE, or None if out of scope.

    Only families expressible with polynomial recurrences or scipy's
    complex-capable functions are provided; they are used purely as
    residual-test inputs.
    """
    par = dict(DEFAULT_PARAMS[eq_id])
    par.update(params or {})
    if eq_id == "laguerre":
        a = int(par["alpha"])
        c = np.zeros(a + 1)
        c[a] = 1.0
        return lambda z: _lag.lagval(np.asarray(z, dtype=complex), c)
    if eq_id == "legendre":
        a = int(par["alpha"])
        c = np.zeros(a + 1)
        c[a] = 1.0
        return lambda z: _leg.legval(np.asarray(z, dtype=complex), c)
    if eq_id == "chebyshev1":
        n = int(par["n"])
        c = np.zeros(n + 1)
        c[n] = 1.0
        return lambda z: _cheb.chebval(np.asarray(z, dtype=complex), c)
    if eq_id == "hermite":
        # the catalog's r = -2n, so H_m solves it with n = -m
        m = -int(par["n"])
        if m < 0:
            return None
        c = np.zeros(m + 1)
        c[m] = 1.0
        return lambda z: _herm.hermval(np.asarray(z, dtype=complex), c)
    if eq_id == "laguerre_assoc":
        n, a = int(par["n"]), par["alpha"]
        poly = sps.genlaguerre(n, a)
        return lambda z: poly(np.asarray(z, dtype=complex))
    if eq_id == "jacobi":
        n, a, b = int(par["n"]), par["alpha"], par["beta"]
        poly = sps.jacobi(n, a, b)
        return lambda z: poly(np.asarray(z, dtype=complex))
    if eq_id == "bessel":
        nu = par["p"]
        return lambda z: sps.jv(nu, np.asarray(z, dtype=complex))
    # chebyshev2 (non-integer order after the n -> sqrt(n)sqrt(n+2)
    # substitution) and the as-printed gegenbauer equation have no
    # polynomial solutions in scope
    return None


_SOLUTION_CASES = [
    ("laguerre", {"alpha": 1}), ("laguerre", {"alpha": 3}),
    ("legendre", {"alpha": 2}), ("chebyshev1", {"n": 3}),
    ("hermite", {"n": -2}), ("laguerre_assoc", {"alpha": 1, "n": 2}),
    ("jacobi", {"alpha": 1, "beta": 2, "n": 1}), ("bessel", {"p": 0.0}),
]


@pytest.mark.parametrize("eq_id,params", _SOLUTION_CASES)
def test_classical_solution_satisfies_ode(eq_id, params, rng):
    ode = get_equation(eq_id, params)
    w = classical_solution(eq_id, params)
    assert w is not None
    w0, w1, w2 = _solution_derivatives(eq_id, params)
    checked = 0
    while checked < 50:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if any(abs(z - s) < 0.2 for s in ode.singularities):
            continue
        checked += 1
        val = complex(w(z))
        assert abs(val - complex(w0(z))) <= 1e-12 * max(1.0, abs(val))
        t1 = complex(ode.p(z)) * complex(w2(z))
        t2 = complex(ode.q(z)) * complex(w1(z))
        t3 = complex(ode.r(z)) * val
        scale = 1.0 + abs(t1) + abs(t2) + abs(t3)
        assert abs(t1 + t2 + t3) <= 1e-8 * scale


def test_solutions_out_of_scope():
    assert classical_solution("chebyshev2", {"n": 1}) is None
    assert classical_solution("gegenbauer", {"alpha": 0.5, "n": 1}) is None
    assert classical_solution("hermite", {"n": 1}) is None


class TestGridSpec:
    def test_polar_points(self):
        g = GridSpec("polar", ((1.0, 2.0), (0.0, np.pi)), (3, 3))
        pts = g.points()
        assert pts.shape == (3, 3)
        assert abs(pts[0, 0] - 1.0) <= 1e-15
        assert abs(pts[2, 2] - 2.0 * np.exp(1j * np.pi)) <= 1e-15

    def test_cartesian_points(self):
        g = GridSpec("cartesian", ((0.0, 1.0), (0.0, 2.0)), (2, 2))
        assert np.allclose(g.points(), [[0, 2j], [1, 1 + 2j]])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec("spherical", ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            GridSpec("polar", ((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            GridSpec("polar", ((0, 1), (0, 1)), (1, 5))


class TestUserOde:
    TEXT = """# a user copy of the laguerre equation
id = mylag
params = alpha=1
p = z
q = 1 - z
r = alpha
singularities = 0
"""

    def test_load_and_ratios(self):
        ode = parse_user_ode(self.TEXT)
        assert ode.id == "mylag"
        qp, rp = coefficient_ratios(ode, 2.0)
        assert abs(qp + 0.5) <= 1e-14
        assert abs(rp - 0.5) <= 1e-14
        assert ode.singularities == (0j,)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "eq.txt"
        path.write_text(self.TEXT)
        ode = load_user_ode(str(path))
        assert abs(complex(ode.p(3.0)) - 3.0) <= 1e-15

    def test_power_caret(self):
        ode = parse_user_ode("p = 1 - z^2\nq = -2*z\nr = 2\n")
        assert abs(complex(ode.p(2j)) - 5.0) <= 1e-14

    def test_rejects_disallowed_symbols(self):
        with pytest.raises(ValueError):
            parse_user_ode("p = __import__('os')\nq = 1\nr = 1\n")
        with pytest.raises(ValueError):
            parse_user_ode("p = open\nq = 1\nr = 1\n")
        with pytest.raises(ValueError):
            parse_user_ode("p = w\nq = 1\nr = 1\n")

    def test_z_free_coefficients_take_the_shape_of_z(self):
        ode = parse_user_ode("p = 1\nq = 0\nr = 1\n")
        values = ode.p(np.zeros(4))
        assert values.shape == (4,)
        assert np.all(values == 1)
        assert ode.q(np.ones((2, 3))).shape == (2, 3)
        assert np.ndim(ode.p(0.5j)) == 0 and ode.p(0.5j) == 1

    def test_coefficient_ratios_on_arrays(self):
        ode = parse_user_ode("p = z - 0.5\nq = 1\nr = z\n"
                             "singularities = 0.5\n")
        z = np.array([2 + 1j, -1 + 0.5j])
        qp, rp = ode.ratios(z)
        assert qp.shape == rp.shape == (2,)
        assert np.allclose(qp, [ode.ratios(w)[0] for w in z], rtol=1e-15)
        assert np.allclose(rp, [ode.ratios(w)[1] for w in z], rtol=1e-15)
        with pytest.raises(SingularPoint) as info:
            ode.ratios(np.array([2 + 1j, 0.5 + 0j]))
        assert info.value.z == 0.5

    @pytest.mark.parametrize("eq", ["laguerre", "bessel"])
    def test_rejects_catalog_ids(self, eq):
        # a catalog id would pick that equation's closed form, whatever
        # the coefficients say
        with pytest.raises(ValueError, match=f"--eq {eq}"):
            parse_user_ode(f"id = {eq}\np = z\nq = 1 - z\nr = 1\n")

    @pytest.mark.parametrize("text", ["", "z +", "(z"])
    def test_rejects_malformed_coefficients(self, text):
        with pytest.raises(ValueError, match="malformed expression"):
            parse_user_ode(f"p = {text}\nq = 1\nr = 1\n")

    def test_requires_all_coefficients(self):
        with pytest.raises(ValueError):
            parse_user_ode("p = z\nq = 1\n")

    def test_folds_constant_subexpressions(self):
        ode = parse_user_ode("params = alpha=3\np = 1\nq = z\nr = alpha^2\n")
        assert ode.r(2j) == 9.0
        # folds of exp and log are numpy scalars, which compile() refuses
        ode = parse_user_ode("params = alpha=3\np = exp(alpha)\n"
                             "q = log(2) - z\nr = exp(1)*z\n")
        assert ode.p(2j) == pytest.approx(np.exp(3.0), rel=1e-15)
        assert ode.q(2j) == pytest.approx(np.log(2.0) - 2j, rel=1e-15)
        assert ode.r(2j) == pytest.approx(np.e * 2j, rel=1e-15)
        ode = parse_user_ode("p = 1\nq = z\nr = log(2)\n")
        assert ode.r(0.5) == pytest.approx(np.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("expr", ["3^2^22", "1/0"])
    def test_rejects_hostile_constants(self, expr, tmp_path):
        # 3^2^22 used to be evaluated as a Python int on every call
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(repr(expr))):
            parse_user_ode(f"p = 1\nq = z\nr = {expr}\n")
        assert time.perf_counter() - start < 1.0
        path = tmp_path / "hostile.ode"
        path.write_text(f"p = 1\nq = z\nr = {expr}\n")
        out = tmp_path / "s.obj"
        assert run_pipeline(["surface", "--ode-file", str(path),
                             "--out", str(out)]) == 2


class TestFixtures:
    def test_in_scope_fixtures(self):
        for eq in ("laguerre", "legendre", "bessel", "chebyshev1",
                   "gegenbauer", "jacobi"):
            fx = get_fixture(eq)
            assert fx is not None
            # the chebyshev anchor sits on an excluded singular point;
            # the difference vanishes at the anchor wherever it is legal
            if fx.domain_contains(fx.base_point):
                assert np.allclose(reference_surface(fx, fx.base_point), 0.0)

    def test_out_of_scope_fixtures(self):
        for eq in ("legendre_assoc", "hermite", "laguerre_assoc"):
            assert get_fixture(eq) is None

    def test_domain_rejection(self):
        fx = get_fixture("laguerre")
        assert not fx.domain_contains(0.0)
        with pytest.raises(OutsideFixtureDomain):
            reference_surface(fx, 0.001 + 0.001j)
