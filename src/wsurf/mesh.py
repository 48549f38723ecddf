"""Grid sampling, mesh assembly and OBJ/PLY/CSV export."""

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .contour import contour_quad, straight_path
from .errors import (EmptyMesh, EvaluationFailure, IoFailure, WsurfError,
                     isolate_failures)
from .geometry import Obstacles, in_range
from .immersion import (combine_euclidean, combine_quaternionic,
                        geometry_report, sym_tafel)
from .weierstrass import (CachedAntiderivative, carry, edge_rows,
                          ew_integrand, u_of_pair)


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
    when it keeps out of the exclusion discs and crosses no cut ray, and
    neither end is beyond the coordinate range (that node's lookup
    fails with OutOfRange)."""
    allowed = allowed & in_range(points)
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


def _tree_integrals(points, allowed, edges, cache, data):
    """Node states (n1 * n2, 5) at the allowed nodes: the three
    Weierstrass integrals and (eta^2, chi), as in weierstrass.carry; and
    the mask of nodes that failed.

    The legal grid edges, _grid_edges' masks, form a graph.  Each
    connected component is rooted at its node nearest the cache anchor,
    whose state is one cache lookup and one data.pair lookup; a root
    whose lookups raise a WsurfError or are not finite counts as a
    failed node, its edges leave the graph, and the next-nearest node
    becomes the root.  The edges of a breadth-first spanning forest
    (_search, _parent_edges), each from parent to child, are one
    weierstrass.edge_rows call, and states come level by level down the
    tree by weierstrass.carry: no store lookup past the roots.  Any edge
    that fails is dropped and the forest is rebuilt around it.
    """
    z = points.ravel()
    n = z.size
    u, v, edge = _grid_graph(*edges)
    # an edge's key is its index in u, v from u to v, and its index plus
    # len(u) from v to u
    tail, head = np.concatenate([u, v]), np.concatenate([v, u])
    live = np.ones(len(u), dtype=bool)
    # the rows of the integrated edges, kept across forest rebuilds:
    # row slot[k] of the concatenated rows for key k, -1 until integrated
    slot = np.full(2 * len(u), -1)
    rows = [np.zeros((0, 5), dtype=complex)]
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
                # the pair on an array, as at the other nodes: a Python
                # complex would take Python's arithmetic in a closed form
                value = np.append(cache(complex(z[node])),
                                  data.pair(z[node:node + 1]))
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
        tree = np.where(v[tree] == child, tree, tree + len(u))
        todo = tree[slot[tree] < 0]
        if todo.size == 0:
            break
        values, failures = edge_rows(data, z[tail[todo]], z[head[todo]],
                                     cache.tol)
        bad = np.zeros(len(todo), dtype=bool)
        bad[list(failures)] = True
        good = todo[~bad]
        slot[good] = np.arange(done, done + len(good))
        done += len(good)
        rows.append(values[~bad] if failures else values)
        if not failures:
            break
        live[todo[bad] % len(u)] = False

    value = np.full((n, 5), np.nan, dtype=complex)
    for node, root_value in roots.items():
        value[node] = root_value
    # the tree nodes level by level, each with its parent and its edge's
    # row, so each level is one gather-compute-scatter
    nodes = np.flatnonzero(depth > 0)
    nodes = nodes[np.argsort(depth[nodes], kind="stable")]
    e = parent_edge[nodes]
    forward = v[e] == nodes
    parent = np.where(forward, u[e], v[e])
    # one batch of rows, the common case, is read in place
    rows = rows[-1] if len(rows) <= 2 else np.concatenate(rows)
    step = rows.take(slot[np.where(forward, e, e + len(u))], axis=0)
    ends = np.cumsum(np.bincount(depth[nodes]))
    for lo, hi in zip(ends[:-1], ends[1:]):
        value[nodes[lo:hi]] = carry(data, value.take(parent[lo:hi], axis=0),
                                    step[lo:hi])
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

    Makes no per-node quadrature: the integrals and (u, chi) come from
    _tree_integrals' node states, and Q from one array call.  A node
    fails when its root lookup fails, its state is not finite, or Q
    raises a WsurfError there; a node whose residual report fails gets
    inf residuals instead.
    """
    points = grid.points()
    allowed = _allowed_nodes(points, data)
    cache = ew_cache(data, grid.base_point, tol)
    edges = _grid_edges(points, allowed, cache.obstacles)
    value, failed = _tree_integrals(points, allowed, edges, cache, data)
    ok = allowed.ravel() & ~failed
    with np.errstate(invalid="ignore"):
        ok[ok] = (np.isfinite(combine_euclidean(*value[ok, :3].T)).all(axis=0)
                  & np.isfinite(value[ok, 3:]).all(axis=1))
    zs = points.ravel()[ok]
    Q, failed_q = isolate_failures(data.hopf, zs)
    good = np.ones(len(zs), dtype=bool)
    good[list(failed_q)] = False
    ok[ok] = good
    zs, Q, state = zs[good], Q[good], value[ok]
    integrals, eta_sq, chi = state[:, :3], state[:, 3], state[:, 4]
    residuals = {}
    if with_residuals:
        residuals = geometry_report(data, zs, tol=min(tol, 1e-12),
                                    pair=(eta_sq, chi)).as_dict()
    return GridSamples(
        mask=ok.reshape(points.shape), edges=edges, points=zs,
        integrals=integrals, F=combine_euclidean(*integrals.T).T,
        u=u_of_pair(eta_sq, chi), chi=chi, Q=Q.astype(complex),
        residuals=residuals, failures=int(allowed.sum() - ok.sum()))


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


# Text export.  A %.17g value is N * 10^(E - 16), N the 17-digit integer
# that %.17g rounds |x| to; N is made exactly in float64 (Dekker's
# two-product of |x| and a double-double 10^(16 - E)), and its digits
# become text by lookups in tables of 4-digit groups, all in uint64 words.
_BLOCK_ROWS = 4096          # rows rendered per block
_E_MAX = 99                 # fast %.17g path: |E| <= 99, two-digit exponents
_NE = 2 * _E_MAX + 3        # its tables run over E = -_E_MAX - 1 .. _E_MAX + 1
_TIE = 0.5 - 2.0 ** -40     # |s - rint(s)| below this rounds for certain
_U64 = np.uint64


def _ascii_words(strings, end=0):
    """Each ASCII string in a NUL-filled uint64: left-aligned, or ending
    at byte end - 1."""
    return np.frombuffer(b"".join(s.encode("ascii").rjust(end, b"\0")
                                  .ljust(8, b"\0") for s in strings), _U64)


def _quads():
    """(10000, 4) ASCII digits of 0000 .. 9999."""
    d = np.arange(10000)
    return (48 + np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10],
                          axis=1)).astype(np.uint8)


@functools.cache
def _float_tables():
    """Lookup tables of the %.17g path, built on first use.

    groups: 12 variants x 10000 words of a 4-digit group: all digits (0),
    a dot before digit q (1 + q), trailing zeros dropped (5), both (6 + q;
    no dot when only zeros follow it), and 0 and 5 one byte later (10,
    11), for the groups after the dot, or all of them where the digits
    have no dot.  variant[j - 1][2 * e + later]: 10000 times the variant
    of group j at exponent index e = E + _E_MAX + 1, by whether a later
    group is nonzero.  prefix[(sign * _NE + e) * 10 + d0]: sign, "0.000"
    part and first digit, ending at byte 6, or at 7 without a dot.
    exp_word, exp_bits: "e+dd" (or nothing) and its length in bits.
    powers: 10^(16 - E) as the double-double hi + lo, and hi's Veltkamp
    halves.
    """
    c = _quads()
    trail = np.logical_and.accumulate(c[:, ::-1] == 48, axis=1)[:, ::-1]
    kept = np.where(trail, 0, c)
    pieces = np.zeros((12, 10000, 8), np.uint8)
    pieces[0, :, :4] = pieces[10, :, 1:5] = c
    pieces[5, :, :4] = pieces[11, :, 1:5] = kept
    for q in range(4):
        for v, digits in ((1 + q, c), (6 + q, kept)):
            pieces[v, :, :q] = c[:, :q]
            pieces[v, :, q] = 46
            pieces[v, :, q + 1:5] = digits[:, q:]
        pieces[6 + q, trail[:, q], q] = 0
    E = np.arange(-_E_MAX - 1, _E_MAX + 2)
    fixed = (E >= -4) & (E <= 16)
    dot_group = np.where(fixed, np.where(E >= 0, E // 4 + 1, 0), 1)
    q = np.where(fixed & (E >= 0), E % 4, 0)
    dotless = fixed & ((E < 0) | (E == 16))
    variant = np.empty((4, _NE, 2), np.intp)
    for j in range(1, 5):
        for later in (0, 1):
            variant[j - 1, :, later] = 10000 * np.select(
                [j < dot_group, j == dot_group],
                [10 * dotless, (1 if later else 6) + q], 11 - later)
    sign_part = _ascii_words(
        [s + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "")
         for s in ("", "-") for e in E], end=6).reshape(2, _NE, 1)
    prefix = sign_part | ((48 + np.arange(10, dtype=_U64)) << _U64(48))
    prefix = np.where(dotless[:, None], prefix << _U64(8), prefix)
    exps = ["" if f else "e%+03d" % e for e, f in zip(E, fixed)]
    hi, lo = [], []
    for k in (16 - E).tolist():
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    t = hi * 134217729.0
    hh = t - (t - hi)
    return (pieces.view(_U64).ravel(), variant.reshape(4, -1),
            prefix.ravel(), _ascii_words(exps),
            np.array([8 * len(s) for s in exps], _U64),
            (hi, np.array(lo), hh, hi - hh))


@functools.cache
def _int_tables():
    """5 variants x 10000 words of a 4-digit group, its digits in bytes 1-4
    and byte 0 free for a sign: all digits (0), leading zeros dropped (1),
    and then a minus sign (2), and as 1 and 2 for the units group, where 0
    is "0" (3, 4)."""
    c = _quads()
    lead = np.logical_and.accumulate(c == 48, axis=1)
    pieces = np.zeros((5, 10000, 8), np.uint8)
    pieces[0, :, 1:5] = c
    pieces[1, :, 1:5] = np.where(lead, 0, c)
    pieces[2] = pieces[1]
    pieces[2, np.arange(1, 10000), lead.sum(axis=1)[1:]] = 45
    pieces[3] = pieces[1]
    pieces[3, 0, 4] = 48
    pieces[4] = pieces[2]
    return pieces.view(_U64).ravel()


def _scaled(a, e, powers):
    """(N, certain, above) for a > 0 and exponent indices e: N is
    a * 10^(16 - E) rounded half-even to an int64, certain is false where
    that rounding is not proven, and above is true where N exceeds the
    exact product.

    Dekker's two-product makes a * hi = h + l exactly; h >= 2^53 is an
    even integer wherever N has 17 digits, so h + rint(l + a * lo) rounds
    the product half-even.  Where 10^(16 - E) is a double (lo == 0) that
    is exact; elsewhere the error of the sum is below 2^-46 and the
    rounding holds when s is 2^-40 away from a tie.
    """
    hi, lo, hh, hl = (p.take(e) for p in powers)
    h = a * hi
    t = a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    s = ((ah * hh - h) + ah * hl + al * hh) + al * hl + a * lo
    r = np.rint(s)
    return (h.astype(np.int64) + r.astype(np.int64),
            (lo == 0) | (np.abs(s - r) < _TIE), s < r)


def _float_fields(x, seps):
    """(words, bad): words is (m, c, 4) uint64, each value of the (m, c)
    float array x as %.17g text ending at byte 23, or at 27 with an
    exponent, then its column's separator (seps); bad lists the flat
    indices of the values left to the caller: zero aside, those outside
    [1e-98, 1e98) or not finite, and the near-ties.
    """
    groups, variant, prefix, exp_word, exp_bits, powers = _float_tables()
    m, c = x.shape
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= 1e-98) & (a < 1e98)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp) + (_E_MAX + 1)
    N, ok, above = _scaled(a, e, powers)
    # log10 can miss E by one next to a power of ten
    high = N >= 10 ** 17
    low = N - above < 10 ** 16
    fix = np.flatnonzero(high | low)
    if len(fix):
        e[fix] += high[fix].astype(np.intp) - low[fix]
        n, sure, _ = _scaled(a[fix], e[fix], powers)
        N[fix] = n
        ok[fix] = sure & (n >= 10 ** 16) & (n < 10 ** 17)
    zero = x == 0
    N[zero] = 0
    e[zero] = _E_MAX + 1
    bad = np.flatnonzero(~((ok & fast) | zero))
    upper = N // 10 ** 8
    lower = N - upper * 10 ** 8
    d0 = upper // 10 ** 8
    g1 = (upper - d0 * 10 ** 8) // 10000
    g2 = upper - d0 * 10 ** 8 - g1 * 10000
    g3 = lower // 10000
    g4 = lower - g3 * 10000
    e2 = 2 * e
    later3 = g4 != 0
    later2 = later3 | (g3 != 0)
    later1 = later2 | (g2 != 0)
    w0 = prefix.take((np.signbit(x) * _NE + e) * 10 + d0)
    w1 = groups.take(g1 + variant[0].take(e2 + later1))
    w2 = groups.take(g2 + variant[1].take(e2 + later2))
    w3 = groups.take(g3 + variant[2].take(e2 + later3))
    w4 = groups.take(g4 + variant[3].take(e2))
    words = np.empty((m, c, 4), _U64)
    # group j starts at byte 7 + 4 (j - 1)
    words[..., 0] = (w0 | (w1 << _U64(56))).reshape(m, c)
    words[..., 1] = ((w1 >> _U64(8)) | (w2 << _U64(24))
                     | (w3 << _U64(56))).reshape(m, c)
    words[..., 2] = ((w2 >> _U64(40)) | (w3 >> _U64(8))
                     | (w4 << _U64(24))).reshape(m, c)
    words[..., 3] = (exp_word.take(e).reshape(m, c)
                     | (_ascii_words(seps) << exp_bits.take(e).reshape(m, c)))
    return words, bad


def _int_fields(v, seps):
    """(words, bad): words is (m, c, k) uint64, each value of the (m, c)
    int64 array v as %d text, then its column's separator (seps) at the
    end of the field, in as few words k as the widest value allows; bad
    lists the flat indices of -2^63, left to the caller."""
    table = _int_tables()
    m, c = v.shape
    v = v.ravel()
    neg = v < 0
    a = np.abs(v)
    bad = np.flatnonzero(a < 0)
    a[bad] = 0
    digits = 19 if len(bad) else len(str(int(a.max(initial=0))))
    sep_len = max(map(len, seps))
    k = -(-(1 + digits + sep_len) // 8)
    words = np.zeros((m * c, k), _U64)
    lead = np.ones(len(v), bool)
    for j in range(4 - (digits - 1) // 4, 5):
        unit = 10 ** (4 * (4 - j))
        g = a // unit
        a -= g * unit
        piece = table.take(g + 10000 * (lead * (1 + neg + 2 * (j == 4))))
        # the piece's digits end 4 (4 - j) bytes before the separator; of
        # the widest group, only bytes that no value fills fall off
        at = 8 * k - sep_len - 4 * (5 - j) - 1
        if at < 0:
            piece >>= _U64(-8 * at)
            at = 0
        word, shift = divmod(at, 8)
        words[:, word] |= piece << _U64(8 * shift)
        if shift > 3:
            words[:, word + 1] |= piece >> _U64(64 - 8 * shift)
        lead &= g == 0
    words = words.reshape(m, c, k)
    words[..., -1] |= _ascii_words(seps, end=8)
    return words, bad


def _rows(fmt, array):
    """The text of fmt % row + "\\n" for every row of array, as uint8
    blocks of at most _BLOCK_ROWS rows: the bytes of one % per row.

    fmt is literal text around %.17g or %d conversions, all of one kind,
    one per column of array; the text between two of them (and after the
    last, with the newline) is at most 4 characters.  Each value's text
    and the literal after it are written into NUL-filled uint64 words,
    and a block's NULs are dropped at the end.  Values the fast paths
    leave (see _float_fields and _int_fields) are written by one %
    on all of them per block.
    """
    head, *rest = re.split(r"(%\.17g|%d)", fmt)
    specs, seps = rest[0::2], rest[1::2]
    seps[-1] += "\n"
    floats = specs[0] == "%.17g"
    if any(s != specs[0] for s in specs) or max(map(len, seps)) > 4:
        raise ValueError(f"unsupported row template {fmt!r}")
    c = len(specs)
    array = np.asarray(array, dtype=float if floats else np.int64)
    array = array.reshape(-1, c)
    head = head.encode("ascii")
    head = np.frombuffer(head.rjust(-(-len(head) // 8) * 8, b"\0"), _U64)
    sep_bytes = np.frombuffer(
        b"".join(s.encode("ascii").rjust(4, b"\0") for s in seps),
        np.uint8).reshape(c, 4)
    fields = _float_fields if floats else _int_fields
    blocks = []
    for start in range(0, len(array), _BLOCK_ROWS):
        rows = array[start:start + _BLOCK_ROWS]
        m = len(rows)
        words, bad = fields(rows, seps)
        k = words.shape[2]
        if len(bad):
            text = ((specs[0] + "\0") * len(bad)) % tuple(
                rows.ravel()[bad].tolist())
            fallback = np.array(text.encode("ascii").split(b"\0")[:-1],
                                dtype=f"S{8 * k}").view(np.uint8)
            fallback = fallback.reshape(len(bad), 8 * k)
            # the separator ends the field, after the text (at most 24
            # of a %.17g field's 32 bytes, 20 of a -2^63 field's 24)
            fallback[:, -4:] |= sep_bytes[bad % c]
            words.reshape(m * c, k)[bad] = fallback.view(_U64)
        out = np.empty((m, len(head) + c * k), _U64)
        out[:, :len(head)] = head
        out[:, len(head):] = words.reshape(m, c * k)
        out = out.view(np.uint8).ravel()
        blocks.append(out[out != 0])
    return blocks


def _render_obj(mesh):
    """OBJ text blocks: a v row per vertex, an f row per face (1-based)."""
    return (_rows("v %.17g %.17g %.17g", mesh.vertices)
            + _rows("f %d %d %d %d", np.asarray(mesh.faces) + 1))


def _render_ply(mesh):
    """ASCII PLY text blocks: the header, then vertex and face rows."""
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
    return ([("\n".join(lines) + "\n").encode("ascii")]
            + _rows("%.17g %.17g %.17g", mesh.vertices)
            + _rows("4 %d %d %d %d", mesh.faces))


def _render_csv(mesh):
    """CSV text blocks: the header, then a row per vertex with its
    parameter, position and attributes."""
    a = mesh.attributes
    columns = np.column_stack([
        mesh.points.real, mesh.points.imag, mesh.vertices,
        a["u"], a["absQ"], a["H_residual"]])
    return ([b"re,im,F1,F2,F3,u,absQ,H_residual\n"]
            + _rows(",".join(["%.17g"] * 8), columns))


_FORMATS = {"obj": _render_obj, "ply": _render_ply, "csv": _render_csv}


def export_mesh(mesh, fmt, destination):
    """Write the mesh in the given format; returns bytes written."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r}")
    if mesh.vertex_count() == 0:
        raise EmptyMesh("refusing to export a mesh with no vertices")
    if not np.all(np.isfinite(mesh.vertices)):
        raise EvaluationFailure(None, "mesh contains non-finite vertices")
    blocks = _FORMATS[fmt](mesh)
    try:
        with open(destination, "wb") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return sum(map(len, blocks))


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
