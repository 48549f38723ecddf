"""Grid sampling, mesh assembly and OBJ/PLY/CSV export."""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import SINGULARITY_RADIUS, get_equation
from .contour import contour_quad, straight_path
from .errors import (EmptyMesh, EvaluationFailure, IoFailure,
                     WsurfError)
from .immersion import (RESIDUAL_COLUMNS, combine_euclidean,
                        combine_quaternionic, ew_integrand, geometry_report,
                        sym_tafel)
from .weierstrass import CachedAntiderivative, make_data


@dataclass(frozen=True)
class ImmersionSample:
    """Everything the pipeline knows about the surface at one point."""

    z: complex
    F: np.ndarray                # real triple
    Ftilde: np.ndarray           # su(2) immersion matrix
    Fst: np.ndarray              # Sym-Tafel matrix
    u: float
    Q: complex
    residuals: dict = field(default_factory=dict)


def _node_allowed(z, ode, data):
    for c, r in data.exclusions:
        # boundary slack: grid rings at exactly the exclusion radius stay in
        if abs(z - c) < max(r, SINGULARITY_RADIUS) * (1.0 - 1e-12):
            return False
    if ode is not None and ode.valid_region is not None \
            and not ode.valid_region(z):
        return False
    return True


def _staging_point(data, xi0):
    """None, or a nearby regular point when xi0 sits on a singularity."""
    for c, r in data.exclusions:
        if abs(xi0 - c) <= max(r, SINGULARITY_RADIUS):
            direction = 1 + 0j
            for anchor, d in data.cut_rays:
                if abs(anchor - c) < 1e-9:
                    direction = complex(d) / abs(complex(d))
                    break
            return xi0 + 0.5j * direction
    return None


def _regularized_leg(f, a, b, tol):
    """int_a^b f along the segment with z = a + (b-a) t^2, f vector-valued.

    The quadratic substitution absorbs inverse-square-root (and milder)
    integrable singularities of f at the start point a.
    """
    dz = b - a

    def g(t):
        t = np.asarray(t, dtype=complex)
        return f(a + dz * t * t) * 2.0 * dz * t[..., None]

    return contour_quad(g, straight_path(0.0, 1.0), tol)


def ew_cache(data, xi0, tol=1e-11):
    """Memoized antiderivative of ew_integrand(data) from xi0.

    ``i1, i2, i3 = cache(z)`` are int eta^2, int chi^2 eta^2 and
    int chi eta^2 from xi0 to z.  When xi0 lies on a singular point with
    integrable integrands, the first leg is integrated under a
    regularizing substitution and the cache is anchored at a nearby
    regular staging point instead.
    """
    xi0 = complex(xi0)
    f = ew_integrand(data)
    staging = _staging_point(data, xi0)
    if staging is None:
        return CachedAntiderivative(f, xi0, data.exclusions, data.cut_rays,
                                    tol, initial_value=np.zeros(3))
    return CachedAntiderivative(
        f, staging, data.exclusions, data.cut_rays, tol,
        initial_value=_regularized_leg(f, xi0, staging, tol))


def immersion_at(data, xi0, z, tol=1e-11):
    """(F, Ftilde) at z for the immersion vanishing at xi0."""
    i1, i2, i3 = ew_cache(data, xi0, tol)(z)
    return combine_euclidean(i1, i2, i3), combine_quaternionic(i1, i2, i3)


def sample_point(data, cache, z):
    """ImmersionSample at z, without residuals, from an ew_cache."""
    z = complex(z)
    i1, i2, i3 = cache(z)
    return ImmersionSample(
        z=z, F=combine_euclidean(i1, i2, i3),
        Ftilde=combine_quaternionic(i1, i2, i3),
        Fst=sym_tafel(complex(data.chi(z))),
        u=data.log_conformal_factor(z), Q=data.hopf(z))


def _sample_mask(ode, data, grid, with_residuals, tol):
    """Row-major sampling of the grid; returns (samples, mask, fail count)."""
    points = grid.points()
    n1, n2 = points.shape
    cache = ew_cache(data, grid.base_point, tol)

    mask = np.zeros((n1, n2), dtype=bool)
    samples = {}
    failures = 0
    for i in range(n1):
        for j in range(n2):
            z = complex(points[i, j])
            if not _node_allowed(z, ode, data):
                continue
            try:
                sample = sample_point(data, cache, z)
                if with_residuals:
                    try:
                        res = geometry_report(
                            data, z, tol=min(tol, 1e-12)).as_dict()
                    except WsurfError:
                        res = dict.fromkeys(RESIDUAL_COLUMNS, math.inf)
                    sample = replace(sample, residuals=res)
                if not np.all(np.isfinite(sample.F)):
                    raise EvaluationFailure(z, f"non-finite immersion at {z}")
            except WsurfError:
                failures += 1
                continue
            mask[i, j] = True
            samples[(i, j)] = sample
    return samples, mask, failures


def sample_grid(equation, params=None, constants=None, grid=None,
                data=None, with_residuals=True, tol=1e-10):
    """Immersion samples over a grid, row-major, masked nodes dropped.

    ``equation`` is a catalog id, a LinearODE, or None when prebuilt
    WeierstrassData is passed directly.  Raises EvaluationFailure when
    more than half of the admissible nodes fail.
    """
    samples, mask, _ = _sample_with_mask(
        equation, params, constants, grid, data, with_residuals, tol)
    n1, n2 = mask.shape
    return [samples[(i, j)] for i in range(n1) for j in range(n2)
            if mask[i, j]]


def _sample_with_mask(equation, params=None, constants=None, grid=None,
                      data=None, with_residuals=True, tol=1e-10):
    ode = None
    if isinstance(equation, str):
        ode = get_equation(equation, params)
    elif equation is not None:
        ode = equation
    if data is None:
        if ode is None:
            raise ValueError("need an equation or prebuilt data")
        cs = dict(constants or {})
        data = make_data(ode,
                         c1=cs.get("c1", 1.0), c2=cs.get("c2", 0.0),
                         lam=cs.get("lambda", 1.0),
                         base_point=grid.base_point if grid is not None else None)
    if grid is None:
        if ode is None or ode.default_domain is None:
            raise ValueError("no grid given and the equation has no default")
        grid = ode.default_domain

    samples, mask, failures = _sample_mask(ode, data, grid, with_residuals, tol)
    admissible = int(mask.sum()) + failures
    if admissible == 0:
        raise EmptyMesh("no admissible grid nodes")
    if failures > 0.5 * admissible:
        raise EvaluationFailure(
            None, f"{failures}/{admissible} grid nodes failed to evaluate")
    return samples, mask, grid


@dataclass
class SurfaceMesh:
    """Vertex/face container built over a sampling grid.

    Faces are quads between 2x2 blocks of unmasked nodes; indices refer
    to the compacted vertex list.
    """

    vertices: np.ndarray         # (n, 3) float
    mask: np.ndarray             # (n1, n2) bool, True = valid node
    faces: list                  # 4-tuples of vertex indices
    points: np.ndarray           # (n,) complex parameter values
    attributes: dict             # name -> (n,) float array

    def vertex_count(self):
        return len(self.vertices)


def build_mesh(equation, params=None, constants=None, grid=None,
               data=None, with_residuals=True, tol=1e-10):
    """Sample a grid and assemble the quad mesh over the unmasked nodes."""
    samples, mask, grid = _sample_with_mask(
        equation, params, constants, grid, data, with_residuals, tol)
    return mesh_from_samples(samples, mask)


def mesh_from_samples(samples, mask):
    n1, n2 = mask.shape
    index = -np.ones((n1, n2), dtype=int)
    verts, pts = [], []
    attrs = {"u": [], "absQ": [], "H_residual": []}
    extra = [k for k in RESIDUAL_COLUMNS if k != "meanCurvature"]
    have_extra = any(k in s.residuals for s in samples.values() for k in extra)
    if have_extra:
        for k in extra:
            attrs[k] = []
    count = 0
    for i in range(n1):
        for j in range(n2):
            if not mask[i, j]:
                continue
            s = samples[(i, j)]
            index[i, j] = count
            count += 1
            verts.append(s.F)
            pts.append(s.z)
            attrs["u"].append(s.u)
            attrs["absQ"].append(abs(s.Q))
            attrs["H_residual"].append(s.residuals.get("meanCurvature", 0.0))
            if have_extra:
                for k in extra:
                    attrs[k].append(s.residuals.get(k, 0.0))
    if count == 0:
        raise EmptyMesh("all grid nodes are masked")
    faces = []
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            block = index[i:i + 2, j:j + 2]
            if np.all(block >= 0):
                faces.append((int(block[0, 0]), int(block[1, 0]),
                              int(block[1, 1]), int(block[0, 1])))
    return SurfaceMesh(
        vertices=np.array(verts, dtype=float),
        mask=mask, faces=faces,
        points=np.array(pts, dtype=complex),
        attributes={k: np.array(v, dtype=float) for k, v in attrs.items()},
    )


def _g17(x):
    return format(float(x), ".17g")


def _render_obj(mesh):
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {_g17(v[0])} {_g17(v[1])} {_g17(v[2])}")
    for f in mesh.faces:
        lines.append("f " + " ".join(str(i + 1) for i in f))
    return "\n".join(lines) + "\n"


def _render_ply(mesh):
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(mesh.vertices)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(mesh.faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for v in mesh.vertices:
        lines.append(f"{_g17(v[0])} {_g17(v[1])} {_g17(v[2])}")
    for f in mesh.faces:
        lines.append("4 " + " ".join(str(i) for i in f))
    return "\n".join(lines) + "\n"


def _render_csv(mesh):
    lines = ["re,im,F1,F2,F3,u,absQ,H_residual"]
    u = mesh.attributes["u"]
    absq = mesh.attributes["absQ"]
    hres = mesh.attributes["H_residual"]
    for k, v in enumerate(mesh.vertices):
        z = mesh.points[k]
        lines.append(",".join([
            _g17(z.real), _g17(z.imag),
            _g17(v[0]), _g17(v[1]), _g17(v[2]),
            _g17(u[k]), _g17(absq[k]), _g17(hres[k]),
        ]))
    return "\n".join(lines) + "\n"


_RENDERERS = {"obj": _render_obj, "ply": _render_ply, "csv": _render_csv}


def export_mesh(mesh, fmt, destination):
    """Write the mesh in the given format; returns bytes written."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown mesh format {fmt!r}")
    if mesh.vertex_count() == 0:
        raise EmptyMesh("refusing to export a mesh with no vertices")
    if not np.all(np.isfinite(mesh.vertices)):
        raise EvaluationFailure(None, "mesh contains non-finite vertices")
    payload = _RENDERERS[fmt](mesh).encode("ascii")
    try:
        with open(destination, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return len(payload)


def import_csv(path):
    """Read back a CSV export as (points, vertices, attributes)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    cols = {name: np.array([float(r[k]) for r in rows])
            for k, name in enumerate(header)}
    points = cols["re"] + 1j * cols["im"]
    vertices = np.column_stack([cols["F1"], cols["F2"], cols["F3"]])
    attrs = {k: cols[k] for k in ("u", "absQ", "H_residual")}
    return points, vertices, attrs
