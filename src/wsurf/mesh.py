"""Grid sampling, mesh assembly and OBJ/PLY/CSV export."""

from dataclasses import dataclass, field

import numpy as np

from .contour import contour_quad, gk15_segments, straight_path
from .errors import (EmptyMesh, EvaluationFailure, IoFailure, WsurfError,
                     isolate_failures)
from .geometry import Obstacles
from .immersion import (combine_euclidean, combine_quaternionic,
                        ew_integrand, geometry_report, sym_tafel)
from .weierstrass import (CachedAntiderivative, compose, edge_moments,
                          u_of_pair)


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
        if abs(xi0 - c) <= r:
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
    exclusions, cuts = data.ode.exclusions(), data.ode.cut_rays
    staging = _staging_point(Obstacles(exclusions, cuts), xi0)
    anchor, start = (xi0, np.zeros(3)) if staging is None else (
        staging, _regularized_leg(f, xi0, staging, tol))
    return CachedAntiderivative(f, anchor, exclusions, cuts, tol,
                                initial_value=start)


def immersion_at(data, xi0, z, tol=1e-11):
    """(F, Ftilde) at z for the immersion vanishing at xi0."""
    i1, i2, i3 = ew_cache(data, xi0, tol)(z)
    return combine_euclidean(i1, i2, i3), combine_quaternionic(i1, i2, i3)


def sample_point(data, cache, z):
    """ImmersionSample at z, without residuals, from an ew_cache."""
    z = complex(z)
    i1, i2, i3 = cache(z)
    u, chi = data.u_and_chi(z)
    return ImmersionSample(
        z=z, F=combine_euclidean(i1, i2, i3),
        Ftilde=combine_quaternionic(i1, i2, i3),
        Fst=sym_tafel(complex(chi)), u=float(u), Q=data.hopf(z))


def _allowed_nodes(points, data):
    """(n1, n2) bool: nodes outside every exclusion disc and inside the
    validity region of the pair's equation."""
    ode = data.ode
    allowed = np.ones(points.shape, dtype=bool)
    for c, r in ode.exclusions():
        # boundary slack: grid rings at exactly the exclusion radius stay in
        allowed &= np.abs(points - c) >= r * (1.0 - 1e-12)
    if ode.valid_region is not None:
        allowed &= ode.valid_region(points)
    return allowed


def _grid_edges(points, allowed, obstacles):
    """Legal 4-neighbour edges between allowed nodes, as bool masks of
    shape (n1 - 1, n2) for the edges along axis 0 and (n1, n2 - 1) for
    those along axis 1, each set at its lower node.  An edge is legal
    when it keeps out of the exclusion discs and crosses no cut ray."""
    down = allowed[:-1, :] & allowed[1:, :]
    down[down] = obstacles.segment_clear(points[:-1, :][down],
                                         points[1:, :][down])
    right = allowed[:, :-1] & allowed[:, 1:]
    right[right] = obstacles.segment_clear(points[:, :-1][right],
                                           points[:, 1:][right])
    return down, right


def _grid_graph(down, right):
    """(u, v, edge) for _grid_edges' masks: the legal edges u[k] -- v[k]
    with u[k] < v[k], those along axis 0 first, and the (n + 1, 4) table
    of each node's edge ids up, left, right and down, len(u) where it
    has none; row n is the sentinel's, with none."""
    n1, n2 = right.shape[0], down.shape[1]
    n = n1 * n2
    index = np.arange(n).reshape(n1, n2)
    u = np.concatenate([index[:-1, :][down], index[:, :-1][right]])
    v = np.concatenate([index[1:, :][down], index[:, 1:][right]])
    along0, along1 = np.split(np.arange(len(u)), [np.count_nonzero(down)])
    edge = np.full((n + 1, 4), len(u))
    grid = edge[:n].reshape(n1, n2, 4)
    grid[1:, :, 0][down] = along0
    grid[:, 1:, 1][right] = along1
    grid[:, :-1, 2][right] = along1
    grid[:-1, :, 3][down] = along0
    return u, v, edge


def _neighbours(u, v, edge, keep):
    """(n + 1, 4) table of each node's neighbours up, left, right and
    down across the kept edges of a _grid_graph, n (the sentinel) where
    it has none."""
    n = len(edge) - 1
    other = np.append(u + v, 0).take(edge) - np.arange(n + 1)[:, None]
    return np.where(np.append(keep, False).take(edge), other, n)


def _search(table, root, depth):
    """Breadth-first search of a _neighbours table from root, one gather
    per level: sets depth[k] to the level of each node k reached.  depth
    has n + 1 entries, -1 at the nodes not reached yet and -2 at the
    sentinel n."""
    frontier, level = np.array([root]), 0
    claim = np.empty(len(depth), dtype=int)
    while frontier.size:
        depth[frontier] = level
        reached = table.take(frontier, axis=0).ravel()
        reached = reached[depth.take(reached) == -1]
        # a node met from several parents joins the next level once
        ticket = np.arange(len(reached))
        claim[reached] = ticket
        frontier = reached[claim.take(reached) == ticket]
        level += 1


def _parent_edges(table, edge, depth):
    """Each node's tree edge (-1 for roots and unreached nodes): the edge
    to its first neighbour one level up in the order up, left, right,
    down, which is its smallest, so the tree does not depend on the
    order in which the search met the neighbours."""
    up = (depth.take(table) == depth[:, None] - 1) & (depth > 0)[:, None]
    parent_edge = np.full(len(depth), -1)
    for j in (3, 2, 1, 0):              # the first direction writes last
        parent_edge = np.where(up[:, j], edge[:, j], parent_edge)
    return parent_edge[:-1]


def _tree_integrals(points, allowed, edges, cache, data=None):
    """Antiderivative values (n1 * n2, 3) at the allowed nodes, and the
    mask of nodes that failed; with the numeric pair data, values
    (n1 * n2, 5) whose last two columns are eta^2 and chi.

    The legal grid edges, _grid_edges' masks, form a graph.  Each
    connected component is rooted at its node nearest the cache anchor,
    whose value is one cache lookup (and, with data, one data.pair
    lookup); a root whose lookup raises a WsurfError counts as a failed
    node, its edges leave the graph, and the next-nearest node becomes
    the root.  The edges of a breadth-first spanning forest (_search,
    _parent_edges) are integrated in one call, and node values come
    level by level down the tree.  Without data, that is one
    gk15_segments call of the cache's integrand over the edges, and a
    node's value is its parent's plus its edge's.  With data, it is one
    weierstrass.edge_moments call over the edges, each from parent to
    child, and weierstrass.compose carries the parent's (eta^2, chi)
    and integrals along the edge: no store lookup past the roots.  Any
    edge that fails is dropped and the forest is rebuilt around it.
    """
    z = points.ravel()
    n = z.size
    u, v, edge = _grid_graph(*edges)
    # an edge's key is its index in u, v; on the moment route the edge
    # from v to u has its own key, its index plus len(u)
    tail, head = np.concatenate([u, v]), np.concatenate([v, u])
    live = np.ones(len(u), dtype=bool)
    # the values of the integrated edges, kept across forest rebuilds:
    # row slot[k] of the concatenated rows for key k, -1 until integrated
    slot = np.full(2 * len(u), -1)
    width = 3 if data is None else 5
    rows = [np.zeros((0, width), dtype=complex)]
    done = 0
    # nodes on a cut ray (except the anchor) fail without a lookup:
    # plan_path refuses them as endpoints and every edge to them crosses it
    failed = allowed.ravel() & cache.obstacles.on_ray(z) & (z != cache.anchor)
    roots = {}
    candidates = np.flatnonzero(allowed.ravel())
    candidates = candidates[np.argsort(np.abs(z[candidates] - cache.anchor),
                                       kind="stable")]
    while True:
        keep = live & ~failed[u] & ~failed[v]
        table = _neighbours(u, v, edge, keep)
        depth = np.full(n + 1, -1)
        depth[n] = -2
        for node in roots:
            _search(table, node, depth)
        k = 0
        while True:
            rest = candidates[k:]
            fresh = np.flatnonzero((depth[rest] < 0) & ~failed[rest])
            if not fresh.size:
                break
            k += fresh[0]
            node = candidates[k]
            try:
                value = cache(complex(z[node]))
                if data is not None:
                    value = np.append(value, data.pair(complex(z[node])))
                if not np.isfinite(value).all():
                    raise EvaluationFailure(complex(z[node]))
            except WsurfError:
                failed[node] = True
                keep = live & ~failed[u] & ~failed[v]
                table = _neighbours(u, v, edge, keep)
                continue
            roots[node] = value
            _search(table, node, depth)
        parent_edge = _parent_edges(table, edge, depth)
        child = np.flatnonzero(parent_edge >= 0)
        tree = parent_edge[child]
        if data is not None:
            tree = np.where(v[tree] == child, tree, tree + len(u))
        todo = tree[slot[tree] < 0]
        if todo.size == 0:
            break
        if data is None:
            values, failures = gk15_segments(
                cache.integrand, z[tail[todo]], z[head[todo]], cache.tol)
        else:
            values, failures = edge_moments(
                data.ode, data.lam, z[tail[todo]], z[head[todo]], cache.tol)
        bad = np.zeros(len(todo), dtype=bool)
        bad[list(failures)] = True
        good = todo[~bad]
        slot[good] = np.arange(done, done + len(good))
        done += len(good)
        values = values.reshape(len(todo), -1)
        rows.append(values[~bad] if failures else values)
        if not failures:
            break
        live[todo[bad] % len(u)] = False

    value = np.full((n, width), np.nan, dtype=complex)
    for node, root_value in roots.items():
        value[node] = root_value
    # the tree nodes level by level, each with its parent and its edge's
    # row, so each level is one gather-compute-scatter
    nodes = np.flatnonzero(depth > 0)
    nodes = nodes[np.argsort(depth[nodes], kind="stable")]
    e = parent_edge[nodes]
    forward = v[e] == nodes
    parent = np.where(forward, u[e], v[e])
    ends = np.cumsum(np.bincount(depth[nodes]))
    if data is None:
        step = np.concatenate(rows)[slot[e]]
        np.negative(step, out=step, where=~forward[:, None])
        for lo, hi in zip(ends[:-1], ends[1:]):
            value[nodes[lo:hi]] = value[parent[lo:hi]] + step[lo:hi]
        return value, failed
    step = np.concatenate(rows)[slot[np.where(forward, e, e + len(u))]]
    for lo, hi in zip(ends[:-1], ends[1:]):
        start = value[parent[lo:hi]]
        eta_sq, chi, increments = compose(start[:, 3], start[:, 4],
                                          step[lo:hi])
        value[nodes[lo:hi]] = np.column_stack(
            [start[:, :3] + increments, eta_sq, chi])
    return value, failed


@dataclass(frozen=True)
class GridSamples:
    """Immersion data at the sampled nodes of a grid, row-major."""

    mask: np.ndarray             # (n1, n2) bool, True = sampled node
    edges: tuple                 # _grid_edges' legal-edge masks
    points: np.ndarray           # (n,) complex parameter values
    integrals: np.ndarray        # (n, 3): int eta^2, chi^2 eta^2, chi eta^2
    F: np.ndarray                # (n, 3) Euclidean immersion
    u: np.ndarray                # (n,) log conformal factor
    chi: np.ndarray              # (n,) complex chi
    Q: np.ndarray                # (n,) Hopf differential coefficient
    residuals: dict              # RESIDUAL_COLUMNS key -> (n,), or empty
    failures: int                # admissible nodes that failed


def _sample_mask(data, grid, with_residuals, tol):
    """GridSamples over the grid, with the geometry residuals if asked.

    Makes no per-node quadrature: the integrals come from
    _tree_integrals, and Q from one array call.  On the numeric route
    (u, chi) come from the forest's (eta^2, chi) too, else from one array
    call of the pair.  A node fails when its root lookup fails, its
    immersion (or, on the numeric route, its pair) is not finite, or
    (u, chi) or Q raise a WsurfError there; a node whose residual report
    fails gets inf residuals instead.
    """
    points = grid.points()
    allowed = _allowed_nodes(points, data)
    cache = ew_cache(data, grid.base_point, tol)
    edges = _grid_edges(points, allowed, cache.obstacles)
    numeric = data.source == "numeric"
    value, failed = _tree_integrals(points, allowed, edges, cache,
                                    data if numeric else None)
    ok = allowed.ravel() & ~failed
    with np.errstate(invalid="ignore"):
        ok[ok] = (np.isfinite(combine_euclidean(*value[ok, :3].T)).all(axis=0)
                  & np.isfinite(value[ok, 3:]).all(axis=1))
    zs = points.ravel()[ok]
    if numeric:
        eta_sq, chi = value[ok, 3], value[ok, 4]
        u, failed_u = u_of_pair(eta_sq, chi), {}
    else:
        (u, chi), failed_u = isolate_failures(data.u_and_chi, zs)
    Q, failed_q = isolate_failures(data.hopf, zs)
    good = np.ones(len(zs), dtype=bool)
    good[list(failed_u) + list(failed_q)] = False
    ok[ok] = good
    zs, u, chi, Q = zs[good], u[good].real, chi[good], Q[good]
    residuals = {}
    if with_residuals:
        pair = (eta_sq[good], chi) if numeric else None
        residuals = geometry_report(data, zs, tol=min(tol, 1e-12),
                                    pair=pair).as_dict()
    integrals = value[ok, :3]
    return GridSamples(
        mask=ok.reshape(points.shape), edges=edges, points=zs,
        integrals=integrals, F=combine_euclidean(*integrals.T).T,
        u=u.astype(float), chi=chi, Q=Q.astype(complex), residuals=residuals,
        failures=int(allowed.sum() - ok.sum()))


def sample_grid(data, grid=None, with_residuals=True, tol=1e-10):
    """Immersion samples of a Weierstrass pair over a grid, row-major,
    masked nodes dropped; the grid defaults to the default domain of the
    pair's equation.  Raises EvaluationFailure when more than half of
    the admissible nodes fail.
    """
    samples = _sample_with_mask(data, grid, with_residuals, tol)
    n = len(samples.points)
    return [ImmersionSample(
        z=complex(samples.points[k]), F=samples.F[k],
        Ftilde=combine_quaternionic(*samples.integrals[k]),
        Fst=sym_tafel(samples.chi[k]), u=float(samples.u[k]),
        Q=complex(samples.Q[k]),
        residuals={name: float(column[k])
                   for name, column in samples.residuals.items()})
        for k in range(n)]


def _sample_with_mask(data, grid=None, with_residuals=True, tol=1e-10):
    """_sample_mask on the grid, or on the equation's default domain;
    raises EmptyMesh without admissible nodes and EvaluationFailure when
    more than half of them fail."""
    if grid is None:
        grid = data.ode.default_domain
    samples = _sample_mask(data, grid, with_residuals, tol)
    admissible = len(samples.points) + samples.failures
    if admissible == 0:
        raise EmptyMesh("no admissible grid nodes")
    if samples.failures > 0.5 * admissible:
        raise EvaluationFailure(
            None, f"{samples.failures}/{admissible} grid nodes failed "
                  f"to evaluate")
    return samples


@dataclass
class SurfaceMesh:
    """Vertex/face container built over a sampling grid.

    Faces are quads between 2x2 blocks of unmasked nodes joined by legal
    edges; indices refer to the compacted vertex list.
    """

    vertices: np.ndarray         # (n, 3) float
    mask: np.ndarray             # (n1, n2) bool, True = valid node
    faces: np.ndarray            # (f, 4) int vertex indices
    points: np.ndarray           # (n,) complex parameter values
    attributes: dict             # name -> (n,) float array

    def vertex_count(self):
        return len(self.vertices)


def build_mesh(data, grid=None, with_residuals=True, tol=1e-10):
    """Sample a Weierstrass pair over a grid (by default the default
    domain of its equation) and assemble the quad mesh over the unmasked
    nodes."""
    return mesh_from_samples(
        _sample_with_mask(data, grid, with_residuals, tol))


def mesh_from_samples(samples):
    """SurfaceMesh from GridSamples, all in arrays.

    Vertices are the sampled nodes in row-major order; a face joins
    every 2x2 block of sampled nodes whose four edges are legal, so no
    face bridges a cut ray or an exclusion disc.  Attributes are u, |Q| and the
    mean-curvature residual (0 without residuals), plus the other
    residual columns when the samples carry them.
    """
    mask = samples.mask
    if not mask.any():
        raise EmptyMesh("all grid nodes are masked")
    index = np.cumsum(mask.ravel()).reshape(mask.shape) - 1
    down, right = samples.edges
    block = (mask[:-1, :-1] & mask[1:, :-1] & mask[1:, 1:] & mask[:-1, 1:]
             & down[:, :-1] & down[:, 1:] & right[:-1, :] & right[1:, :])
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
    """One fmt line per row of array, each ending in a newline, from one
    % on the template repeated per row; %.17g is the round-trip format."""
    array = np.asarray(array)
    return ((fmt + "\n") * len(array)) % tuple(array.ravel().tolist())


def _render_obj(mesh):
    return (_rows("v %.17g %.17g %.17g", mesh.vertices)
            + _rows("f %d %d %d %d", np.asarray(mesh.faces) + 1))


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
    return ("\n".join(lines) + "\n" + _rows("%.17g %.17g %.17g", mesh.vertices)
            + _rows("4 %d %d %d %d", mesh.faces))


def _render_csv(mesh):
    a = mesh.attributes
    columns = np.column_stack([
        mesh.points.real, mesh.points.imag, mesh.vertices,
        a["u"], a["absQ"], a["H_residual"]])
    return ("re,im,F1,F2,F3,u,absQ,H_residual\n"
            + _rows(",".join(["%.17g"] * 8), columns))


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
            rows = fh.read().split()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    table = np.array([row.split(",") for row in rows],
                     dtype=float).reshape(-1, len(header))
    cols = dict(zip(header, table.T))
    # set the parts, not re + 1j * im, which turns a -0.0 into 0.0
    points = np.empty(len(table), dtype=complex)
    points.real, points.imag = cols["re"], cols["im"]
    vertices = np.column_stack([cols["F1"], cols["F2"], cols["F3"]])
    attrs = {k: cols[k] for k in ("u", "absQ", "H_residual")}
    return points, vertices, attrs
