"""Grid sampling, mesh assembly and OBJ/PLY/CSV export."""

from dataclasses import dataclass, field

import numpy as np

from .catalog import SINGULARITY_RADIUS, get_equation
from .contour import contour_quad, gk15_segments, straight_path
from .errors import (EmptyMesh, EvaluationFailure, IoFailure,
                     WsurfError)
from .geometry import Obstacles
from .immersion import (combine_euclidean, combine_quaternionic,
                        ew_integrand, geometry_report, sym_tafel)
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


def _staging_point(obstacles, xi0):
    """None, or a nearby regular point when xi0 sits on a singularity:
    half a unit across the singularity's cut ray, if it has one."""
    for c, r in obstacles.discs:
        if abs(xi0 - c) <= max(r, SINGULARITY_RADIUS):
            return xi0 + 0.5j * next(
                (d for p, d in obstacles.rays if abs(p - c) < 1e-9), 1 + 0j)
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
    staging = _staging_point(Obstacles(data.exclusions, data.cut_rays), xi0)
    anchor, start = (xi0, np.zeros(3)) if staging is None else (
        staging, _regularized_leg(f, xi0, staging, tol))
    return CachedAntiderivative(f, anchor, data.exclusions, data.cut_rays,
                                tol, initial_value=start)


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


def _allowed_nodes(points, ode, data):
    """(n1, n2) bool: nodes outside every exclusion disc and inside the
    equation's validity region."""
    allowed = np.ones(points.shape, dtype=bool)
    for c, r in data.exclusions:
        # boundary slack: grid rings at exactly the exclusion radius stay in
        allowed &= np.abs(points - c) >= max(r, SINGULARITY_RADIUS) * (1.0 - 1e-12)
    if ode is not None and ode.valid_region is not None:
        for k in np.flatnonzero(allowed):
            allowed.flat[k] = bool(ode.valid_region(complex(points.flat[k])))
    return allowed


def _grid_edges(points, allowed, cache):
    """Legal 4-neighbour edges between allowed nodes, as flat node index
    arrays (u, v) with u < v.  Legality is the cache's obstacles: the
    edge keeps out of its exclusion discs and crosses no cut ray."""
    index = np.arange(points.size).reshape(points.shape)
    u = np.concatenate([index[:-1, :].ravel(), index[:, :-1].ravel()])
    v = np.concatenate([index[1:, :].ravel(), index[:, 1:].ravel()])
    keep = allowed.flat[u] & allowed.flat[v]
    u, v = u[keep], v[keep]
    legal = cache.obstacles.segment_clear(points.flat[u], points.flat[v])
    return u[legal], v[legal]


def _adjacency(n, u, v, live):
    """CSR (indptr, neighbour, edge id) of the live edges, both ways."""
    e = np.flatnonzero(live)
    src = np.concatenate([u[e], v[e]])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return (indptr, np.concatenate([v[e], u[e]])[order],
            np.concatenate([e, e])[order])


def _bfs(adjacency, sources, visited, parent_edge, levels):
    """Breadth-first search from sources, level by level.

    Marks every node it reaches in ``visited``, records the edge it came
    along in ``parent_edge`` and appends each level's nodes to
    ``levels``; within a level a node takes the first edge in frontier
    order, so the tree is deterministic.
    """
    indptr, neighbour, edge = adjacency
    frontier = np.asarray(sources, dtype=int)
    visited[frontier] = True
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        pos = np.repeat(starts - np.cumsum(counts) + counts, counts) \
            + np.arange(counts.sum())
        fresh = ~visited[neighbour[pos]]
        frontier, first = np.unique(neighbour[pos][fresh], return_index=True)
        visited[frontier] = True
        parent_edge[frontier] = edge[pos][fresh][first]
        if frontier.size:
            levels.append(frontier)


def _tree_integrals(points, allowed, cache):
    """Antiderivative values (n1 * n2, 3) at the allowed nodes, and the
    mask of nodes that failed.

    The legal grid edges form a graph.  Each connected component is
    rooted at its node nearest the cache anchor, whose value is one
    cache lookup; a root whose lookup raises a WsurfError counts as a
    failed node and the next-nearest node becomes the root.  The edges
    of a breadth-first spanning forest are integrated in one
    gk15_segments call, and node values are the root value plus the
    edge values summed level by level down the tree.  Any edge that
    does not reach the cache tolerance is dropped and the forest is
    rebuilt around it.
    """
    z = points.ravel()
    n = z.size
    u, v = _grid_edges(points, allowed, cache)
    live = np.ones(len(u), dtype=bool)
    integrated = np.zeros(len(u), dtype=bool)
    edge_value = np.zeros((len(u), 3), dtype=complex)
    failed = np.zeros(n, dtype=bool)
    roots = {}
    candidates = np.flatnonzero(allowed.ravel())
    candidates = candidates[np.argsort(np.abs(z[candidates] - cache.anchor),
                                       kind="stable")]
    while True:
        adjacency = _adjacency(n, u, v, live)
        visited = failed.copy()
        parent_edge = np.full(n, -1)
        levels = []
        if roots:
            _bfs(adjacency, list(roots), visited, parent_edge, levels)
        for node in candidates:
            if visited[node]:
                continue
            try:
                value = cache(complex(z[node]))
                if not np.isfinite(value).all():
                    raise EvaluationFailure(complex(z[node]))
            except WsurfError:
                failed[node] = visited[node] = True
                continue
            roots[node] = value
            _bfs(adjacency, [node], visited, parent_edge, levels)
        tree = parent_edge[parent_edge >= 0]
        todo = tree[~integrated[tree]]
        if todo.size == 0:
            break
        values, errors, failures = gk15_segments(
            cache.integrand, z[u[todo]], z[v[todo]], cache.tol)
        bad = errors.reshape(len(todo), -1).max(axis=1) > cache.tol
        bad[list(failures)] = True
        edge_value[todo[~bad]] = values.reshape(len(todo), -1)[~bad]
        integrated[todo[~bad]] = True
        if not bad.any():
            break
        live[todo[bad]] = False

    value = np.full((n, 3), np.nan, dtype=complex)
    for node, root_value in roots.items():
        value[node] = root_value
    for level in levels:
        e = parent_edge[level]
        forward = v[e] == level
        parent = np.where(forward, u[e], v[e])
        value[level] = value[parent] + np.where(
            forward[:, None], edge_value[e], -edge_value[e])
    return value, failed


def _pointwise(fn, zs):
    """(fn(zs), ok): one array call; when it raises a WsurfError, node
    by node, with ok False and nan where fn raised."""
    try:
        return np.asarray(fn(zs)), np.ones(len(zs), dtype=bool)
    except WsurfError:
        pass
    out = np.full(len(zs), np.nan, dtype=complex)
    ok = np.zeros(len(zs), dtype=bool)
    for k, z in enumerate(zs):
        try:
            out[k] = fn(z)
            ok[k] = True
        except WsurfError:
            continue
    return out, ok


@dataclass(frozen=True)
class GridSamples:
    """Immersion data at the sampled nodes of a grid, row-major."""

    mask: np.ndarray             # (n1, n2) bool, True = sampled node
    points: np.ndarray           # (n,) complex parameter values
    integrals: np.ndarray        # (n, 3): int eta^2, chi^2 eta^2, chi eta^2
    F: np.ndarray                # (n, 3) Euclidean immersion
    u: np.ndarray                # (n,) log conformal factor
    Q: np.ndarray                # (n,) Hopf differential coefficient
    residuals: dict              # RESIDUAL_COLUMNS key -> (n,), or empty
    failures: int                # admissible nodes that failed


def _sample_mask(ode, data, grid, with_residuals, tol):
    """GridSamples over the grid, with the geometry residuals if asked.

    Makes no per-node quadrature: the integrals come from
    _tree_integrals, and u and Q from one array call each.  A node
    fails when its root lookup fails, its immersion is not finite, or
    u or Q raise a WsurfError there; a node whose residual report fails
    gets inf residuals instead.
    """
    points = grid.points()
    allowed = _allowed_nodes(points, ode, data)
    value, failed = _tree_integrals(
        points, allowed, ew_cache(data, grid.base_point, tol))
    ok = allowed.ravel() & ~failed
    with np.errstate(invalid="ignore"):
        ok[ok] = np.isfinite(combine_euclidean(*value[ok].T)).all(axis=0)
    zs = points.ravel()[ok]
    u, ok_u = _pointwise(data.log_conformal_factor, zs)
    Q, ok_q = _pointwise(data.hopf, zs)
    good = ok_u & ok_q
    ok[ok] = good
    zs, u, Q = zs[good], u[good].real, Q[good]
    residuals = {}
    if with_residuals:
        residuals = geometry_report(data, zs, tol=min(tol, 1e-12)).as_dict()
    integrals = value[ok]
    return GridSamples(
        mask=ok.reshape(points.shape), points=zs, integrals=integrals,
        F=combine_euclidean(*integrals.T).T, u=u.astype(float),
        Q=Q.astype(complex), residuals=residuals,
        failures=int(allowed.sum() - ok.sum()))


def sample_grid(equation, params=None, constants=None, grid=None,
                data=None, with_residuals=True, tol=1e-10):
    """Immersion samples over a grid, row-major, masked nodes dropped.

    ``equation`` is a catalog id, a LinearODE, or None when prebuilt
    WeierstrassData is passed directly.  The samples are built from the
    arrays of _sample_mask.  Raises EvaluationFailure when more than
    half of the admissible nodes fail.
    """
    samples, data = _sample_with_mask(
        equation, params, constants, grid, data, with_residuals, tol)
    n = len(samples.points)
    chi = np.broadcast_to(data.chi(samples.points), (n,))
    return [ImmersionSample(
        z=complex(samples.points[k]), F=samples.F[k],
        Ftilde=combine_quaternionic(*samples.integrals[k]),
        Fst=sym_tafel(chi[k]), u=float(samples.u[k]),
        Q=complex(samples.Q[k]),
        residuals={name: float(column[k])
                   for name, column in samples.residuals.items()})
        for k in range(n)]


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

    samples = _sample_mask(ode, data, grid, with_residuals, tol)
    admissible = len(samples.points) + samples.failures
    if admissible == 0:
        raise EmptyMesh("no admissible grid nodes")
    if samples.failures > 0.5 * admissible:
        raise EvaluationFailure(
            None, f"{samples.failures}/{admissible} grid nodes failed "
                  f"to evaluate")
    return samples, data


@dataclass
class SurfaceMesh:
    """Vertex/face container built over a sampling grid.

    Faces are quads between 2x2 blocks of unmasked nodes; indices refer
    to the compacted vertex list.
    """

    vertices: np.ndarray         # (n, 3) float
    mask: np.ndarray             # (n1, n2) bool, True = valid node
    faces: np.ndarray            # (f, 4) int vertex indices
    points: np.ndarray           # (n,) complex parameter values
    attributes: dict             # name -> (n,) float array

    def vertex_count(self):
        return len(self.vertices)


def build_mesh(equation, params=None, constants=None, grid=None,
               data=None, with_residuals=True, tol=1e-10):
    """Sample a grid and assemble the quad mesh over the unmasked nodes."""
    samples, _ = _sample_with_mask(
        equation, params, constants, grid, data, with_residuals, tol)
    return mesh_from_samples(samples)


def mesh_from_samples(samples):
    """SurfaceMesh from GridSamples, all in arrays.

    Vertices are the sampled nodes in row-major order; a face joins
    every 2x2 block of sampled nodes.  Attributes are u, |Q| and the
    mean-curvature residual (0 without residuals), plus the other
    residual columns when the samples carry them.
    """
    mask = samples.mask
    if not mask.any():
        raise EmptyMesh("all grid nodes are masked")
    index = np.cumsum(mask.ravel()).reshape(mask.shape) - 1
    block = mask[:-1, :-1] & mask[1:, :-1] & mask[1:, 1:] & mask[:-1, 1:]
    faces = np.stack([index[:-1, :-1][block], index[1:, :-1][block],
                      index[1:, 1:][block], index[:-1, 1:][block]], axis=1)
    n = len(samples.points)
    attrs = {"u": samples.u, "absQ": np.abs(samples.Q),
             "H_residual": samples.residuals.get("meanCurvature",
                                                 np.zeros(n))}
    attrs.update((k, r) for k, r in samples.residuals.items()
                 if k != "meanCurvature")
    return SurfaceMesh(
        vertices=samples.F, mask=mask, faces=faces,
        points=samples.points,
        attributes={k: np.asarray(a, dtype=float) for k, a in attrs.items()},
    )


def _rows(fmt, array):
    """One fmt line per row of array; %.17g is the round-trip format."""
    return [fmt % tuple(row) for row in np.asarray(array).tolist()]


def _render_obj(mesh):
    lines = _rows("v %.17g %.17g %.17g", mesh.vertices)
    lines += _rows("f %d %d %d %d", np.asarray(mesh.faces) + 1)
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
    lines += _rows("%.17g %.17g %.17g", mesh.vertices)
    lines += _rows("4 %d %d %d %d", mesh.faces)
    return "\n".join(lines) + "\n"


def _render_csv(mesh):
    a = mesh.attributes
    columns = np.column_stack([
        mesh.points.real, mesh.points.imag, mesh.vertices,
        a["u"], a["absQ"], a["H_residual"]])
    lines = ["re,im,F1,F2,F3,u,absQ,H_residual"]
    lines += _rows(",".join(["%.17g"] * 8), columns)
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
