"""Registry of the classical second-order ODEs and their figure fixtures.

Each catalog entry stores the coefficients p, q, r of

    p(nu; z) w'' + q(nu; z) w' + r(nu; z) w = 0

as vectorized complex callables bound to a parameter set, together with
the singular points, the branch-cut rays used when comparing against
principal-branch closed forms, and a default grid on which the surface
is well resolved.  User-defined equations can be loaded from a flat
key/value text file.
"""

import ast
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import hermite as _herm
from numpy.polynomial import laguerre as _lag
from numpy.polynomial import legendre as _leg
from scipy import special as _sps

from . import special
from .errors import OutsideFixtureDomain, SingularPoint, UnknownEquation
from .geometry import Obstacles

SINGULARITY_RADIUS = 0.02

EQUATION_IDS = (
    "legendre", "legendre_assoc", "bessel", "chebyshev1", "chebyshev2",
    "laguerre", "laguerre_assoc", "hermite", "gegenbauer", "jacobi",
)


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
    valid_region: object = None  # optional callable z -> bool
    cut_rays: tuple = ()         # (anchor, direction) pairs

    def ratios(self, z):
        return coefficient_ratios(self, z)

    def exclusions(self, radius=SINGULARITY_RADIUS):
        return tuple((s, radius) for s in self.singularities)


def coefficient_ratios(ode, z):
    """(q/p, r/p) at z, raising SingularPoint at zeros of p."""
    zc = complex(z)
    for s in ode.singularities:
        if abs(zc - s) < 1e-12:
            raise SingularPoint(zc)
    pv = complex(ode.p(zc))
    if pv == 0 or not np.isfinite(pv):
        raise SingularPoint(zc)
    return complex(ode.q(zc)) / pv, complex(ode.r(zc)) / pv


_REAL_AXIS_CUTS = ((1.0 + 0j, 1.0 + 0j), (-1.0 + 0j, -1.0 + 0j))
_NEG_AXIS_CUT = ((0j, -1.0 + 0j),)

DEFAULT_PARAMS = {
    "legendre": {"alpha": 1},
    "legendre_assoc": {"alpha": 1, "m": 1},
    "bessel": {"p": 0.0},
    "chebyshev1": {"n": 1},
    "chebyshev2": {"n": 1},
    "laguerre": {"alpha": 1},
    "laguerre_assoc": {"alpha": 1, "n": 2},
    "hermite": {"n": 1},
    "gegenbauer": {"alpha": 0.5, "n": 1},
    "jacobi": {"alpha": 1, "beta": 2, "n": 1},
}


def _builders():
    def legendre(par):
        a = par["alpha"]
        return (lambda z: 1 - z * z,
                lambda z: -2 * z,
                lambda z: a * (a + 1) * np.ones_like(np.asarray(z, dtype=complex)))

    def legendre_assoc(par):
        a, m = par["alpha"], par["m"]
        return (lambda z: 1 - z * z,
                lambda z: -2 * z,
                lambda z: a * (a + 1) - m * m / (1 - z * z))

    def bessel(par):
        nu = par["p"]
        return (lambda z: z * z,
                lambda z: z,
                lambda z: z * z - nu * nu)

    def chebyshev(n_eff_sq):
        return (lambda z: 1 - z * z,
                lambda z: -z,
                lambda z: n_eff_sq * np.ones_like(np.asarray(z, dtype=complex)))

    def laguerre(par):
        a = par["alpha"]
        return (lambda z: np.asarray(z, dtype=complex),
                lambda z: 1 - z,
                lambda z: a * np.ones_like(np.asarray(z, dtype=complex)))

    def laguerre_assoc(par):
        a, n = par["alpha"], par["n"]
        return (lambda z: np.asarray(z, dtype=complex),
                lambda z: a + 1 - z,
                lambda z: n * np.ones_like(np.asarray(z, dtype=complex)))

    def hermite(par):
        n = par["n"]
        return (lambda z: np.ones_like(np.asarray(z, dtype=complex)),
                lambda z: -2 * z,
                lambda z: -2 * n * np.ones_like(np.asarray(z, dtype=complex)))

    def gegenbauer(par):
        # first-derivative coefficient kept exactly as printed in the
        # source table: constant -(2*alpha+1), with no factor of z
        a, n = par["alpha"], par["n"]
        return (lambda z: 1 - z * z,
                lambda z: -(2 * a + 1) * np.ones_like(np.asarray(z, dtype=complex)),
                lambda z: n * (n + 2 * a) * np.ones_like(np.asarray(z, dtype=complex)))

    def jacobi(par):
        a, b, n = par["alpha"], par["beta"], par["n"]
        return (lambda z: 1 - z * z,
                lambda z: b - a - (a + b + 2) * z,
                lambda z: n * (n + a + b + 1) * np.ones_like(np.asarray(z, dtype=complex)))

    return {
        "legendre": legendre,
        "legendre_assoc": legendre_assoc,
        "bessel": bessel,
        "chebyshev1": lambda par: chebyshev(par["n"] ** 2),
        "chebyshev2": lambda par: chebyshev(par["n"] * (par["n"] + 2)),
        "laguerre": laguerre,
        "laguerre_assoc": laguerre_assoc,
        "hermite": hermite,
        "gegenbauer": gegenbauer,
        "jacobi": jacobi,
    }


_BUILDERS = _builders()

_DOMAINS = {
    "laguerre": GridSpec("polar", ((0.02, 3.0), (0.0, 2 * np.pi)),
                         (50, 50), 1 + 1j),
    "legendre": GridSpec("polar", ((0.02, 8.0), (0.0, 6 * np.pi)),
                         (50, 50), 0.5 + 1j),
    "legendre_assoc": GridSpec("polar", ((0.02, 5.0), (0.0, 2 * np.pi)),
                               (50, 50), -1 - 1j),
    "bessel": GridSpec("polar", ((0.01, 2.0), (0.0, 2 * np.pi)),
                       (50, 50), 1 + 0j),
    "chebyshev1": GridSpec("polar", ((0.02, 10.0), (0.0, 2 * np.pi)),
                           (50, 50), 1 + 0j),
    "chebyshev2": GridSpec("polar", ((0.02, 10.0), (0.0, 2 * np.pi)),
                           (50, 50), 1 + 0j),
    "laguerre_assoc": GridSpec("cartesian", ((-3.0, 3.0), (1 / 64, 3.0)),
                               (50, 50), 3 + 3j),
    "hermite": GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)),
                        (50, 50), 1 + 3j),
    "gegenbauer": GridSpec("polar", ((0.01, 10.0), (0.0, 2 * np.pi)),
                           (50, 50), 0j),
    "jacobi": GridSpec("cartesian", ((-0.99, 0.0), (0.0, 0.99)),
                       (50, 50), 0j),
}

_SINGULARITIES = {
    "legendre": (1 + 0j, -1 + 0j),
    "legendre_assoc": (1 + 0j, -1 + 0j),
    "bessel": (0j,),
    "chebyshev1": (1 + 0j, -1 + 0j),
    "chebyshev2": (1 + 0j, -1 + 0j),
    "laguerre": (0j,),
    "laguerre_assoc": (0j,),
    "hermite": (),
    "gegenbauer": (1 + 0j, -1 + 0j),
    "jacobi": (1 + 0j, -1 + 0j),
}

_CUTS = {
    "legendre": _REAL_AXIS_CUTS,
    "legendre_assoc": _REAL_AXIS_CUTS,
    "bessel": _NEG_AXIS_CUT,
    "chebyshev1": _REAL_AXIS_CUTS,
    "chebyshev2": _REAL_AXIS_CUTS,
    "laguerre": _NEG_AXIS_CUT,
    "laguerre_assoc": _NEG_AXIS_CUT,
    "hermite": (),
    "gegenbauer": _REAL_AXIS_CUTS,
    "jacobi": _REAL_AXIS_CUTS,
}


def _jacobi_region(par):
    two_abs_alpha = 2 * abs(par["alpha"])

    def inside(z):
        return (abs(z) < 1) and (abs(z + 1) < two_abs_alpha)

    return inside


def get_equation(eq_id, params=None):
    """Fully populated LinearODE for one of the cataloged equations."""
    if eq_id not in _BUILDERS:
        raise UnknownEquation(eq_id)
    par = dict(DEFAULT_PARAMS[eq_id])
    if params:
        unknown = set(params) - set(par)
        if unknown:
            raise ValueError(f"unknown parameters for {eq_id}: {sorted(unknown)}")
        par.update(params)
    p, q, r = _BUILDERS[eq_id](par)
    region = _jacobi_region(par) if eq_id == "jacobi" else None
    return LinearODE(
        id=eq_id, params=par, p=p, q=q, r=r,
        singularities=_SINGULARITIES[eq_id],
        default_domain=_DOMAINS[eq_id],
        valid_region=region,
        cut_rays=_CUTS[eq_id],
    )


# ---------------------------------------------------------------------------
# classical solutions (for residual checks only)

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
        poly = _sps.genlaguerre(n, a)
        return lambda z: poly(np.asarray(z, dtype=complex))
    if eq_id == "jacobi":
        n, a, b = int(par["n"]), par["alpha"], par["beta"]
        poly = _sps.jacobi(n, a, b)
        return lambda z: poly(np.asarray(z, dtype=complex))
    if eq_id == "bessel":
        nu = par["p"]
        return lambda z: _sps.jv(nu, np.asarray(z, dtype=complex))
    # chebyshev2 (non-integer order after the n -> sqrt(n)sqrt(n+2)
    # substitution) and the as-printed gegenbauer equation have no
    # polynomial solutions in scope
    return None


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


def get_fixture(eq_id):
    """Figure-caption fixture for the given equation, if one is in scope."""
    if eq_id == "laguerre":
        def prim(z):
            return np.array([
                special.ei(z) - special.ei(-z),
                special.ei(z) + special.ei(-z),
                np.log(z),
            ])
        return ClosedFormFixture(
            "laguerre", {"alpha": 1},
            {"c1": 1, "c2": 0, "lambda": 1, "k1": 1, "k2": 1},
            1 + 1j,
            _DOMAINS["laguerre"],
            prim, _half_re_im_re,
            # Ei(z) and Ei(-z) make both half-axes branch lines
            cut_rays=((0j, -1 + 0j), (0j, 1 + 0j)),
            excluded=((0j, SINGULARITY_RADIUS),),
        )
    if eq_id == "legendre":
        def prim(z):
            lp, lm = np.log(1 + z), np.log(1 - z)
            return np.array([z, lp - lm - z, -(lp + lm)])

        def comb(d):
            return np.array([0.5 * d[0].real, -0.5 * d[1].imag, 0.5 * d[2].real])
        return ClosedFormFixture(
            "legendre", {"alpha": 1},
            {"c1": 1, "c2": 0, "lambda": -2, "k1": 1, "k2": -1},
            0.5 + 1j,
            _DOMAINS["legendre"],
            prim, comb,
            cut_rays=_REAL_AXIS_CUTS,
            excluded=((1 + 0j, SINGULARITY_RADIUS), (-1 + 0j, SINGULARITY_RADIUS)),
        )
    if eq_id == "bessel":
        def prim(z):
            return np.array([
                np.log(z) - z ** 4 / 4,
                np.log(z) + z ** 4 / 4,
                0.5 * z ** 2,
            ])
        return ClosedFormFixture(
            "bessel", {"p": 0.0},
            {"c1": 1, "c2": 0, "lambda": -0.5, "k1": 1, "k2": 1},
            1 + 0j,
            _DOMAINS["bessel"],
            prim, _half_re_im_re,
            cut_rays=_NEG_AXIS_CUT,
            excluded=((0j, SINGULARITY_RADIUS),),
        )
    if eq_id in ("chebyshev1", "chebyshev2"):
        def prim(z):
            s = special.arcsin(z)
            return np.array([s - s ** 3 / 3, s + s ** 3 / 3, 0.5 * s ** 2])
        return ClosedFormFixture(
            "chebyshev1", {"n": 1},
            {"c1": 1, "c2": 0, "lambda": -1, "k1": 1, "k2": 1},
            1 + 0j,
            _DOMAINS["chebyshev1"],
            prim, _half_re_im_re,
            cut_rays=_REAL_AXIS_CUTS,
            excluded=((1 + 0j, SINGULARITY_RADIUS), (-1 + 0j, SINGULARITY_RADIUS)),
        )
    if eq_id == "gegenbauer":
        def prim(z):
            lp, lm = np.log(1 + z), np.log(1 - z)
            return np.array([-2 * (lp + lm), lp - lm - z, z])

        def comb(d):
            return np.array([0.5 * d[0].real, -d[1].imag, d[2].real])
        return ClosedFormFixture(
            "gegenbauer", {"alpha": 0.5, "n": 1},
            {"c1": 1, "c2": 0, "lambda": 1, "k1": 1, "k2": -1},
            0j,
            _DOMAINS["gegenbauer"],
            prim, comb,
            cut_rays=_REAL_AXIS_CUTS,
            excluded=((1 + 0j, SINGULARITY_RADIUS), (-1 + 0j, SINGULARITY_RADIUS)),
        )
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
        return ClosedFormFixture(
            "jacobi", {"alpha": 1, "beta": 2, "n": 1},
            {"c1": 1, "c2": 0, "lambda": -1, "k1": 1, "k2": 1},
            0j,
            _DOMAINS["jacobi"],
            prim, comb,
            cut_rays=_REAL_AXIS_CUTS,
            excluded=((1 + 0j, SINGULARITY_RADIUS), (-1 + 0j, SINGULARITY_RADIUS)),
        )
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
            return self._fold(node, float, self.params[node.id])
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


def _compile_expr(text, param_names):
    """Compile an arithmetic expression over z and named parameters.

    Grammar: + - * / ^ exp log parentheses and numeric literals; ^ means
    power.  Subexpressions free of z are folded to floating-point
    constants here, once.
    """
    source = text.replace("^", "**")
    tree = ast.parse(source, mode="eval")
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
            if node.id in _FUNCTIONS or node.id == "z" or node.id in param_names:
                continue
            raise ValueError(f"unknown symbol {node.id!r} in {text!r}")
        if isinstance(node, ast.Load):
            continue
        raise ValueError(f"disallowed syntax in expression: {text!r}")
    tree = ast.fix_missing_locations(
        _ConstantFolder(text, dict(param_names)).visit(tree))
    code = compile(tree, "<ode-expression>", "eval")

    def fn(z, _code=code):
        env = dict(_FUNCTIONS, z=np.asarray(z, dtype=complex))
        return eval(_code, {"__builtins__": {}}, env)

    return fn


def _parse_complex_literal(text):
    text = text.strip().replace(" ", "")
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None


def load_user_ode(path_or_text):
    """Load a user-defined LinearODE from flat key = value text.

    Recognized keys: id, params (comma list of name=value), p, q, r,
    singularities (comma list of complex literals).  Coefficients are
    arithmetic expressions over z and the named parameters.
    """
    if "\n" in str(path_or_text) or "=" in str(path_or_text):
        text = str(path_or_text)
    else:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip() if key.strip() != "params" \
            else line.partition("=")[2].strip()
    if "p" not in entries or "q" not in entries or "r" not in entries:
        raise ValueError("user ODE needs p, q and r entries")
    params = {}
    for item in entries.get("params", "").split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        params[name.strip()] = float(value)
    p = _compile_expr(entries["p"], params)
    q = _compile_expr(entries["q"], params)
    r = _compile_expr(entries["r"], params)
    sing = tuple(_parse_complex_literal(s)
                 for s in entries.get("singularities", "").split(",") if s.strip())
    domain = GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (50, 50), 0j)
    return LinearODE(
        id=entries.get("id", "user"), params=params, p=p, q=q, r=r,
        singularities=sing, default_domain=domain,
        valid_region=None, cut_rays=(),
    )


def factorial(n):
    return math.factorial(int(n))
