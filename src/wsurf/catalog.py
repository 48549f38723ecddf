"""Registry of the classical second-order ODEs and their figure fixtures.

Each catalog equation is one record: its default parameters, its
coefficients p, q, r of

    p(nu; z) w'' + q(nu; z) w' + r(nu; z) w = 0

as texts in the user-ODE grammar, the singular points, the branch-cut
rays used when comparing against principal-branch closed forms, a
default grid on which the surface is well resolved, the base point of
its Weierstrass pair and, for jacobi, a validity region.  A user file's
flat key/value text becomes the same record, and one constructor makes
either into a LinearODE, compiling each text once per parameter set.
"""

import ast
import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import (EvaluationFailure, OutsideFixtureDomain, SingularPoint,
                     UnknownEquation)
from .geometry import Obstacles

SINGULARITY_RADIUS = 0.02


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid; polar grids are (r, theta), cartesian (x, y)."""

    kind: str                    # "polar" | "cartesian"
    ranges: tuple                # ((a0, a1), (b0, b1))
    resolution: tuple = (50, 50)
    base_point: complex = 0j

    def __post_init__(self):
        if self.kind not in ("polar", "cartesian"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        (a0, a1), (b0, b1) = self.ranges
        if not (a1 > a0 and b1 > b0):
            raise ValueError("grid ranges must be nonempty")
        n1, n2 = self.resolution
        if n1 < 2 or n2 < 2:
            raise ValueError("resolution must be >= 2 in each direction")

    def points(self):
        """Complex grid nodes as an (n1, n2) array, row-major in axis 0."""
        (a0, a1), (b0, b1) = self.ranges
        n1, n2 = self.resolution
        av = np.linspace(a0, a1, n1)
        bv = np.linspace(b0, b1, n2)
        A, B = np.meshgrid(av, bv, indexing="ij")
        if self.kind == "polar":
            return A * np.exp(1j * B)
        return A + 1j * B


@dataclass(frozen=True)
class LinearODE:
    """Second-order linear complex ODE with bound parameters."""

    id: str
    params: dict
    p: object                    # callable z -> complex, vectorized
    q: object
    r: object
    singularities: tuple = ()
    default_domain: GridSpec = None
    valid_region: object = None  # optional callable, vectorized
    cut_rays: tuple = ()         # (anchor, direction) pairs
    pair_base: complex = 0j      # default base point of the (eta^2, chi) pair

    def ratios(self, z):
        return coefficient_ratios(self, z)

    def exclusions(self):
        return tuple((s, SINGULARITY_RADIUS) for s in self.singularities)


def coefficient_ratios(ode, z):
    """(q/p, r/p) at z, raising SingularPoint at zeros of p and
    EvaluationFailure where a ratio is not finite.

    For an array z, two arrays of its shape, and the error names the
    first point where p vanishes or is not finite, or else the first
    where q/p or r/p is not finite; for a point, two Python complex
    numbers.  p, q and r are evaluated with numpy's warnings off, since
    these errors report the points where they would warn.
    """
    zs = np.asarray(z, dtype=complex)
    bad = np.zeros(zs.shape, dtype=bool)
    for s in ode.singularities:
        bad |= np.abs(zs - s) < 1e-12
    with np.errstate(all="ignore"):
        pv = np.asarray(ode.p(zs), dtype=complex)
        bad |= (pv == 0) | ~np.isfinite(pv)
        if bad.any():
            raise SingularPoint(complex(zs.flat[np.argmax(bad.ravel())]))
        qp = np.asarray(ode.q(zs), dtype=complex) / pv
        rp = np.asarray(ode.r(zs), dtype=complex) / pv
    bad = ~(np.isfinite(qp) & np.isfinite(rp))
    if bad.any():
        w = complex(zs.flat[np.argmax(bad.ravel())])
        raise EvaluationFailure(
            w, f"ODE coefficients are not finite at z={w}")
    if zs.ndim == 0:
        return complex(qp), complex(rp)
    return qp, rp


_REAL_AXIS_CUTS = ((1.0 + 0j, 1.0 + 0j), (-1.0 + 0j, -1.0 + 0j))
_NEG_AXIS_CUT = ((0j, -1.0 + 0j),)
_PLUS_MINUS_ONE = (1 + 0j, -1 + 0j)


def _jacobi_region(par):
    two_abs_alpha = 2 * abs(par["alpha"])

    def inside(z):
        return (np.abs(z) < 1) & (np.abs(z + 1) < two_abs_alpha)

    return inside


@dataclass(frozen=True)
class _Entry:
    """One equation: its default parameters, its coefficient texts (p,
    q, r), whose order of operations fixes their rounding, singular
    points, cut rays, default grid, the base point of its Weierstrass
    pair and its validity region's builder (params -> (z -> bool))."""

    params: dict
    coefficients: tuple
    singularities: tuple
    cut_rays: tuple
    domain: GridSpec
    pair_base: complex = 0j
    region: object = None


_CATALOG = {
    "legendre": _Entry(
        {"alpha": 1}, ("1 - z*z", "-2*z", "alpha*(alpha + 1)"),
        _PLUS_MINUS_ONE, _REAL_AXIS_CUTS,
        GridSpec("polar", ((0.02, 8.0), (0.0, 6 * np.pi)), (50, 50),
                 0.5 + 1j)),
    "legendre_assoc": _Entry(
        {"alpha": 1, "m": 1},
        ("1 - z*z", "-2*z", "alpha*(alpha + 1) - m*m/(1 - z*z)"),
        _PLUS_MINUS_ONE, _REAL_AXIS_CUTS,
        GridSpec("polar", ((0.02, 5.0), (0.0, 2 * np.pi)), (50, 50),
                 -1 - 1j)),
    "bessel": _Entry(
        {"p": 0.0}, ("z*z", "z", "z*z - p*p"), (0j,), _NEG_AXIS_CUT,
        GridSpec("polar", ((0.01, 2.0), (0.0, 2 * np.pi)), (50, 50), 1 + 0j),
        pair_base=1 + 0j),
    "chebyshev1": _Entry(
        {"n": 1}, ("1 - z*z", "-z", "n^2"), _PLUS_MINUS_ONE, _REAL_AXIS_CUTS,
        GridSpec("polar", ((0.02, 10.0), (0.0, 2 * np.pi)), (50, 50),
                 1 + 0j)),
    "chebyshev2": _Entry(
        {"n": 1}, ("1 - z*z", "-z", "n*(n + 2)"), _PLUS_MINUS_ONE,
        _REAL_AXIS_CUTS,
        GridSpec("polar", ((0.02, 10.0), (0.0, 2 * np.pi)), (50, 50),
                 1 + 0j)),
    "laguerre": _Entry(
        {"alpha": 1}, ("z", "1 - z", "alpha"), (0j,), _NEG_AXIS_CUT,
        GridSpec("polar", ((0.02, 3.0), (0.0, 2 * np.pi)), (50, 50), 1 + 1j),
        pair_base=1 + 0j),
    "laguerre_assoc": _Entry(
        {"alpha": 1, "n": 2}, ("z", "alpha + 1 - z", "n"), (0j,),
        _NEG_AXIS_CUT,
        GridSpec("cartesian", ((-3.0, 3.0), (1 / 64, 3.0)), (50, 50), 3 + 3j),
        pair_base=1 + 0j),
    "hermite": _Entry(
        {"n": 1}, ("1", "-2*z", "-2*n"), (), (),
        GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (50, 50), 1 + 3j)),
    "gegenbauer": _Entry(
        # first-derivative coefficient kept exactly as printed in the
        # source table: constant -(2*alpha+1), with no factor of z
        {"alpha": 0.5, "n": 1},
        ("1 - z*z", "-(2*alpha + 1)", "n*(n + 2*alpha)"),
        _PLUS_MINUS_ONE, _REAL_AXIS_CUTS,
        GridSpec("polar", ((0.01, 10.0), (0.0, 2 * np.pi)), (50, 50), 0j)),
    "jacobi": _Entry(
        {"alpha": 1, "beta": 2, "n": 1},
        ("1 - z*z", "beta - alpha - (alpha + beta + 2)*z",
         "n*(n + alpha + beta + 1)"), _PLUS_MINUS_ONE, _REAL_AXIS_CUTS,
        GridSpec("cartesian", ((-0.99, 0.0), (0.0, 0.99)), (50, 50), 0j),
        region=_jacobi_region),
}

EQUATION_IDS = tuple(_CATALOG)
DEFAULT_PARAMS = {eq_id: entry.params for eq_id, entry in _CATALOG.items()}


def get_equation(eq_id, params=None):
    """Fully populated LinearODE for one of the cataloged equations;
    ValueError for a parameter that is not a number (bool excluded) or
    that makes a coefficient's z-free part overflow, as for a user
    file."""
    entry = _CATALOG.get(eq_id)
    if entry is None:
        raise UnknownEquation(eq_id)
    par = dict(entry.params)
    if params:
        unknown = set(params) - set(par)
        if unknown:
            raise ValueError(f"unknown parameters for {eq_id}: {sorted(unknown)}")
        for name, value in params.items():
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Number)):
                raise ValueError(f"parameter {name} of {eq_id} is not a "
                                 f"number: {value!r}")
        par.update(params)
    return _linear_ode(eq_id, entry, par)


def _linear_ode(ode_id, entry, params):
    """The LinearODE of a record at the parameter values params."""
    items = tuple((name, value, repr(value)) for name, value in params.items())
    p, q, r = (_compiled(text, items) for text in entry.coefficients)
    return LinearODE(
        id=ode_id, params=params, p=p, q=q, r=r,
        singularities=entry.singularities, default_domain=entry.domain,
        valid_region=None if entry.region is None else entry.region(params),
        cut_rays=entry.cut_rays, pair_base=entry.pair_base)


# ---------------------------------------------------------------------------
# figure-caption fixtures

@dataclass(frozen=True)
class ClosedFormFixture:
    """Closed-form reference surface from a figure caption."""

    equation_id: str
    params: dict
    constants: dict              # c1, c2, lambda (and k1/k2 when stated)
    base_point: complex
    grid: GridSpec
    primitive: object            # callable z -> np.array(3) complex primitives
    combine: object              # callable (delta triple) -> np.array(3) real
    cut_rays: tuple = ()
    excluded: tuple = field(default_factory=tuple)   # (center, radius)

    def domain_contains(self, xi):
        return Obstacles(self.excluded).point_legal(complex(xi))


def reference_surface(fixture, xi):
    """Caption closed form F0, differenced between the base point and xi."""
    xi = complex(xi)
    if not fixture.domain_contains(xi):
        raise OutsideFixtureDomain(f"{xi} outside fixture domain")
    if xi == fixture.base_point:
        return np.zeros(3)
    g1 = np.asarray(fixture.primitive(xi))
    g0 = np.asarray(fixture.primitive(fixture.base_point))
    return fixture.combine(g1 - g0)


def _half_re_im_re(delta):
    return np.array([0.5 * delta[0].real, -0.5 * delta[1].imag, delta[2].real])


def _fixture(eq_id, constants, primitive, combine, cut_rays=None):
    """The caption fixture of a cataloged equation at its default
    parameters, on its default grid and from that grid's base point,
    outside its singular discs and with its cut rays unless given."""
    entry = _CATALOG[eq_id]
    return ClosedFormFixture(
        eq_id, dict(entry.params), constants, entry.domain.base_point,
        entry.domain, primitive, combine,
        cut_rays=entry.cut_rays if cut_rays is None else cut_rays,
        excluded=tuple((s, SINGULARITY_RADIUS) for s in entry.singularities))


def get_fixture(eq_id):
    """Figure-caption fixture for the given equation, if one is in scope."""
    if eq_id == "laguerre":
        def prim(z):
            return np.array([
                special.ei(z) - special.ei(-z),
                special.ei(z) + special.ei(-z),
                np.log(z),
            ])
        # Ei(z) and Ei(-z) make both half-axes branch lines
        return _fixture("laguerre",
                        {"c1": 1, "c2": 0, "lambda": 1, "k1": 1, "k2": 1},
                        prim, _half_re_im_re,
                        cut_rays=((0j, -1 + 0j), (0j, 1 + 0j)))
    if eq_id == "legendre":
        def prim(z):
            lp, lm = np.log(1 + z), np.log(1 - z)
            return np.array([z, lp - lm - z, -(lp + lm)])

        def comb(d):
            return np.array([0.5 * d[0].real, -0.5 * d[1].imag, 0.5 * d[2].real])
        return _fixture("legendre",
                        {"c1": 1, "c2": 0, "lambda": -2, "k1": 1, "k2": -1},
                        prim, comb)
    if eq_id == "bessel":
        def prim(z):
            return np.array([
                np.log(z) - z ** 4 / 4,
                np.log(z) + z ** 4 / 4,
                0.5 * z ** 2,
            ])
        return _fixture("bessel",
                        {"c1": 1, "c2": 0, "lambda": -0.5, "k1": 1, "k2": 1},
                        prim, _half_re_im_re)
    if eq_id in ("chebyshev1", "chebyshev2"):
        def prim(z):
            s = special.arcsin(z)
            return np.array([s - s ** 3 / 3, s + s ** 3 / 3, 0.5 * s ** 2])
        return _fixture("chebyshev1",
                        {"c1": 1, "c2": 0, "lambda": -1, "k1": 1, "k2": 1},
                        prim, _half_re_im_re)
    if eq_id == "gegenbauer":
        def prim(z):
            lp, lm = np.log(1 + z), np.log(1 - z)
            return np.array([-2 * (lp + lm), lp - lm - z, z])

        def comb(d):
            return np.array([0.5 * d[0].real, -d[1].imag, d[2].real])
        return _fixture("gegenbauer",
                        {"c1": 1, "c2": 0, "lambda": 1, "k1": 1, "k2": -1},
                        prim, comb)
    if eq_id == "jacobi":
        def prim(z):
            lm = np.log(1 - z)       # Re equals Re log(z-1); offset cancels
            lp = np.log(1 + z)
            head = (-6 * z * (z + 1) + 4) / ((z - 1) * (z + 1) ** 2) + 3 * (lp - lm)
            tail = (25.0 / 9.0) * (2.25 * z ** 4 + 5 * z ** 3 - 8.5 * z ** 2
                                   - 55 * z + 32 / (1 - z) - 48 * lm + 56.25)
            return np.array([head - tail, head + tail,
                             2 / (z - 1) + 3 * lm])

        def comb(d):
            return np.array([d[0].real / 32, -d[1].imag / 32,
                             -(5.0 / 12.0) * d[2].real])
        return _fixture("jacobi",
                        {"c1": 1, "c2": 0, "lambda": -1, "k1": 1, "k2": 1},
                        prim, comb)
    # legendre_assoc (its published reference data is internally
    # inconsistent), hermite (closed form needs a 2F2 outside the special
    # function set) and laguerre_assoc have no usable closed-form fixture
    return None


# ---------------------------------------------------------------------------
# user-defined equations

_FUNCTIONS = {"exp": np.exp, "log": np.log}
_FOLD_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv,
                ast.Pow: operator.pow}
_FOLD_UNOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}


class _ConstantFolder(ast.NodeTransformer):
    """Replaces every z-free subexpression by its floating-point value.

    Folding once at compile time keeps huge integer powers such as
    3^2^22 out of every integrand call; a fold that overflows, divides
    by zero or leaves a non-finite value raises ValueError.
    """

    def __init__(self, text, params):
        self.text = text
        self.params = params

    def _fold(self, node, fn, *args):
        try:
            with np.errstate(all="raise"):
                value = fn(*(complex(a) if isinstance(a, complex) else float(a)
                             for a in args))
        except (ArithmeticError, ValueError):
            value = math.nan
        if not np.isfinite(value):
            raise ValueError(
                f"constant subexpression is not finite (overflow, division "
                f"by zero or a log outside its domain) in {self.text!r}")
        # compile() takes only built-in numbers, not numpy scalars
        value = complex(value) if np.iscomplexobj(value) else float(value)
        return ast.copy_location(ast.Constant(value), node)

    def visit_Name(self, node):
        if node.id in self.params:
            return self._fold(node, operator.pos, self.params[node.id])
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.left, ast.Constant) \
                and isinstance(node.right, ast.Constant):
            return self._fold(node, _FOLD_BINOPS[type(node.op)],
                              node.left.value, node.right.value)
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.operand, ast.Constant):
            return self._fold(node, _FOLD_UNOPS[type(node.op)],
                              node.operand.value)
        return node

    def visit_Call(self, node):
        self.generic_visit(node)
        if len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
            return self._fold(node, _FUNCTIONS[node.func.id],
                              node.args[0].value)
        return node


def _compile_expr(text, params):
    """Compile an arithmetic expression over z and named parameters.

    Grammar: + - * / ^ exp log parentheses and numeric literals; ^ means
    power.  Subexpressions free of z are folded to floating-point
    constants here, once.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError:
        raise ValueError(f"malformed expression: {text!r}") from None
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Constant, ast.BinOp,
                             ast.UnaryOp, ast.Add, ast.Sub, ast.Mult,
                             ast.Div, ast.Pow, ast.USub, ast.UAdd)):
            continue
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in _FUNCTIONS
                    and not node.keywords):
                continue
            raise ValueError(f"disallowed call in expression: {text!r}")
        if isinstance(node, ast.Name):
            if node.id in _FUNCTIONS or node.id == "z" or node.id in params:
                continue
            raise ValueError(f"unknown symbol {node.id!r} in {text!r}")
        if isinstance(node, ast.Load):
            continue
        raise ValueError(f"disallowed syntax in expression: {text!r}")
    tree = ast.fix_missing_locations(
        _ConstantFolder(text, params).visit(tree))
    code = compile(tree, "<ode-expression>", "eval")

    def fn(z, _code=code):
        env = dict(_FUNCTIONS, z=np.asarray(z, dtype=complex))
        value = eval(_code, {"__builtins__": {}}, env)
        if np.shape(value) != np.shape(z):
            # a z-free expression is one constant; give it z's shape
            value = np.full(np.shape(z), value, dtype=complex)
        return value

    return fn


@functools.lru_cache(maxsize=256)
def _compiled(text, items):
    """_compile_expr over (name, value, repr(value)) items: the reprs
    tell -0.0 from 0.0, which fold to constants of different signs."""
    return _compile_expr(text, {name: value for name, value, _ in items})


def parse_complex(text):
    """A finite complex number from a literal a+bi (or plain a, bi).

    Raises ValueError for a malformed literal and for nan or inf parts.
    """
    try:
        value = complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def load_user_ode(path):
    """Load a user-defined LinearODE from the file at path; see
    parse_user_ode for its format."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_user_ode(fh.read())


def parse_user_ode(text):
    """A user-defined LinearODE from flat key = value text.

    Recognized keys: id, params (comma list of name=value), p, q, r,
    singularities (comma list of complex literals).  Coefficients are
    arithmetic expressions over z and the named parameters.  A catalog
    id is refused: get_equation gives those equations.
    """
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    if "p" not in entries or "q" not in entries or "r" not in entries:
        raise ValueError("user ODE needs p, q and r entries")
    ode_id = entries.get("id", "user")
    if ode_id in EQUATION_IDS:
        raise ValueError(f"user ODE id {ode_id!r} names a catalog equation; "
                         f"use --eq {ode_id} for it, or pick another id")
    params = {}
    for item in entries.get("params", "").split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        params[name.strip()] = float(value)
    sing = tuple(parse_complex(s)
                 for s in entries.get("singularities", "").split(",") if s.strip())
    domain = GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (50, 50), 0j)
    entry = _Entry(params, (entries["p"], entries["q"], entries["r"]), sing,
                   (), domain)
    return _linear_ode(ode_id, entry, params)
