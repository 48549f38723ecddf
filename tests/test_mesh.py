"""Grid sampling, mesh assembly and export formats."""

import dataclasses
import functools
import math
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsurf.catalog import (EQUATION_IDS, SINGULARITY_RADIUS, GridSpec,
                           get_equation, get_fixture, parse_user_ode,
                           reference_surface)
from wsurf.errors import EmptyMesh, IoFailure, SingularPoint, WsurfError
from wsurf.geometry import Obstacles, segment_crosses_ray, segment_hits_disc
from wsurf.immersion import (combine_euclidean, combine_quaternionic,
                             geometry_report, sym_tafel)
import wsurf.mesh as mesh
import wsurf.weierstrass as weierstrass
from wsurf.mesh import (_FORMATS, ImmersionSample, SurfaceMesh,
                        _allowed_nodes, _grid_edges, _grid_graph, _neighbours,
                        _parent_edges, _rows, _sample_mask, _sample_with_mask,
                        _search, _tree_integrals, build_mesh, ew_cache,
                        export_mesh, immersion_at, import_csv, sample_point)
from wsurf.weierstrass import (CachedAntiderivative, WeierstrassData,
                               build_numeric_data, closed_form_data,
                               make_data)

from test_contour import pooled_gk15
from test_geometry import (reference_segment_crosses_ray,
                           reference_segment_hits_disc)


# each format's whole text as one str; export_mesh writes its blocks
_RENDERERS = {fmt: (lambda mesh, render=render:
                    b"".join(render(mesh)).decode("ascii"))
              for fmt, render in _FORMATS.items()}


def sample_grid(data, grid=None, with_residuals=True, tol=1e-10):
    """Immersion samples of a Weierstrass pair over a grid, row-major,
    masked nodes dropped; the grid defaults to the default domain of the
    pair's equation.  Raises EvaluationFailure when more than half of
    the admissible nodes fail.
    """
    samples = _sample_with_mask(data, grid, with_residuals, tol)
    return [ImmersionSample(
        z=complex(samples.points[k]), F=samples.F[k],
        Ftilde=combine_quaternionic(*samples.integrals[k]),
        Fst=sym_tafel(samples.chi[k]), u=float(samples.u[k]),
        Q=complex(samples.Q[k]),
        residuals={name: float(column[k])
                   for name, column in samples.residuals.items()})
        for k in range(len(samples.points))]


def unit_square_grid(n=2):
    return GridSpec("cartesian", ((0.0, 1.0), (0.0, 1.0)), (n, n), 0j)


def laguerre_data(grid):
    return make_data(get_equation("laguerre"), base_point=grid.base_point)


class TestSampling:
    def test_plane_quad(self, plane_data):
        samples = sample_grid(plane_data, unit_square_grid(),
                              with_residuals=False)
        assert len(samples) == 4
        s = {complex(x.z): x for x in samples}
        assert np.allclose(s[1 + 1j].F, [0.5, -0.5, 0.0], atol=1e-10)
        assert s[0j].u == 0.0 and s[0j].Q == 0.0

    def test_samples_carry_residuals(self, plane_data):
        samples = sample_grid(plane_data, unit_square_grid(),
                              with_residuals=True)
        for s in samples:
            assert s.residuals["meanCurvature"] <= 1e-8
            assert s.residuals["conformality"] <= 1e-8

    def test_masked_singular_nodes(self):
        # a grid straddling the laguerre singularity drops the origin node
        grid = GridSpec("cartesian", ((-0.5, 0.5), (-0.01, 0.99)), (3, 3),
                        1 + 1j)
        samples = sample_grid(laguerre_data(grid), grid, with_residuals=False)
        zs = [s.z for s in samples]
        assert all(abs(z) >= 0.0199 for z in zs)

    def test_empty_grid_raises(self):
        grid = GridSpec("cartesian", ((-0.01, 0.01), (-0.01, 0.01)), (2, 2),
                        1 + 0j)
        with pytest.raises(EmptyMesh):
            sample_grid(laguerre_data(grid), grid, with_residuals=False)

    def test_jacobi_region_enforced(self):
        ode = get_equation("jacobi")
        grid = ode.default_domain
        small = GridSpec(grid.kind, ((-1.5, 0.5), (0.0, 1.5)), (8, 8),
                         grid.base_point)
        samples = sample_grid(make_data(ode, base_point=small.base_point),
                              small, with_residuals=False)
        assert samples
        for s in samples:
            assert abs(s.z) < 1 and abs(s.z + 1) < 2

    def test_raising_hopf_masks_only_its_node(self):
        # Q raises (not nan) at one node, so the array call of Q is
        # bisected down to that node
        self.check_one_node_raising("hopf")

    def test_raising_pair_at_a_node_masks_only_its_node(self):
        # the pair raises at one node, which no quadrature node hits: the
        # pair's array call at the forest's edge ends is bisected down to
        # that node, whose state is not finite, and the edges to it stay,
        # so the other nodes keep their values
        self.check_one_node_raising("pair")

    def check_one_node_raising(self, name):
        ode = get_equation("hermite")
        grid = GridSpec("cartesian", ((-1.0, 1.0), (-1.0, 1.0)), (5, 5), 0j)
        data = make_data(ode, base_point=0j)
        bad = complex(grid.points()[1, 2])
        faulty = dataclasses.replace(data)
        fn = getattr(faulty, name)

        @functools.wraps(fn)            # hermite's pair keeps its panels
        def raising(z):
            if np.any(np.asarray(z) == bad):
                raise SingularPoint(bad)
            return fn(z)

        setattr(faulty, name, raising)
        ref = _sample_with_mask(data, grid)
        got = _sample_with_mask(faulty, grid)
        assert ref.failures == 0 and got.failures == 1
        assert np.array_equal(got.mask, ref.mask & (grid.points() != bad))
        keep = ref.points != bad
        for name in ("points", "integrals", "F", "u", "chi", "Q"):
            assert np.array_equal(getattr(got, name),
                                  getattr(ref, name)[keep]), name
        assert got.residuals.keys() == ref.residuals.keys()
        for name, column in ref.residuals.items():
            assert np.array_equal(got.residuals[name], column[keep]), name

    def test_grid_defaults_to_the_equation_domain(self, plane_data):
        default = sample_grid(plane_data, with_residuals=False)
        given = sample_grid(plane_data, plane_data.ode.default_domain,
                            with_residuals=False)
        assert len(default) == 50 * 50
        assert [s.z for s in default] == [s.z for s in given]
        assert all(np.array_equal(a.F, b.F) for a, b in zip(default, given))


# (equation, lambda, grid) of the figure surfaces at criterion-10 resolution
FIGURE_GRIDS = (
    ("laguerre", 1.0, None),
    ("legendre", -2.0, ("polar", ((0.02, 8.0), (0.0, 6 * math.pi)))),
    ("bessel", -0.5, ("polar", ((0.01, 2.0), (0.0, 2 * math.pi)))),
    ("chebyshev1", -1.0, ("polar", ((0.02, 10.0), (0.0, 2 * math.pi)))),
)


def figure_case(eq, lam, spec):
    ode = get_equation(eq)
    grid = ode.default_domain if spec is None else \
        GridSpec(spec[0], spec[1], (30, 30), ode.default_domain.base_point)
    return make_data(ode, lam=lam, base_point=grid.base_point), grid


def default_case(eq, n=12):
    d = get_equation(eq).default_domain
    grid = GridSpec(d.kind, d.ranges, (n, n), d.base_point)
    return make_data(get_equation(eq), base_point=grid.base_point), grid


def per_node_reference(data, grid, tol=1e-10):
    """(mask, failures, F) from one ew_cache lookup per node, row-major:
    the sampling loop the spanning forest replaced."""
    ode = data.ode
    points = grid.points()
    cache = ew_cache(data, grid.base_point, tol)
    mask = np.zeros(points.shape, dtype=bool)
    F = np.full(points.shape + (3,), np.nan)
    failures = 0
    for (i, j), z in np.ndenumerate(points):
        z = complex(z)
        if any(abs(z - c) < max(r, SINGULARITY_RADIUS) * (1.0 - 1e-12)
               for c, r in ode.exclusions()):
            continue
        if ode.valid_region is not None and not ode.valid_region(z):
            continue
        try:
            value = combine_euclidean(*cache(z))
            if not np.all(np.isfinite(value)):
                raise WsurfError(z)
        except WsurfError:
            failures += 1
            continue
        mask[i, j] = True
        F[i, j] = value
    return mask, failures, F


def assert_matches_reference(data, grid):
    mask, failures, F = per_node_reference(data, grid)
    samples = _sample_mask(data, grid, False, 1e-10)
    assert np.array_equal(samples.mask, mask)
    assert samples.failures == failures
    assert np.max(np.abs(samples.F - F[mask]), initial=0.0) <= 1e-9


class TestSpanningForest:
    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_default_grids_match_per_node_lookups(self, eq):
        assert_matches_reference(*default_case(eq))

    @pytest.mark.parametrize("case", FIGURE_GRIDS, ids=lambda c: c[0])
    def test_figure_grids_match_per_node_lookups(self, case):
        assert_matches_reference(*figure_case(*case))

    @pytest.mark.parametrize(
        "case", [default_case(eq) for eq in EQUATION_IDS]
        + [figure_case(*c) for c in FIGURE_GRIDS],
        ids=[f"default-{eq}" for eq in EQUATION_IDS]
        + [f"figure-{c[0]}" for c in FIGURE_GRIDS])
    def test_array_segment_tests_match_scalar_calls(self, case):
        # every 4-neighbour edge, on-ray and boundary-ring nodes included
        data, grid = case
        z = grid.points()
        a = np.concatenate([z[:-1, :].ravel(), z[:, :-1].ravel()])
        b = np.concatenate([z[1:, :].ravel(), z[:, 1:].ravel()])
        pairs = [(complex(p), complex(q)) for p, q in zip(a, b)]
        for c, r in data.ode.exclusions():
            hits = segment_hits_disc(a, b, c, r)
            scalar = [segment_hits_disc(p, q, c, r) for p, q in pairs]
            assert all(type(x) is bool for x in scalar)
            assert hits.tolist() == scalar == [
                reference_segment_hits_disc(p, q, c, r) for p, q in pairs]
        for anchor, d in data.ode.cut_rays:
            crosses = segment_crosses_ray(a, b, anchor, d)
            scalar = [segment_crosses_ray(p, q, anchor, d) for p, q in pairs]
            assert all(type(x) is bool for x in scalar)
            assert crosses.tolist() == scalar == [
                reference_segment_crosses_ray(p, q, anchor, d)
                for p, q in pairs]

    def test_nodes_on_a_cut_fail_without_a_lookup(self, monkeypatch):
        # legendre's figure grid has 52 allowed nodes on its cut rays;
        # only the root of its one component needs a cache lookup
        data, grid = figure_case(*FIGURE_GRIDS[1])
        calls = []
        lookup = CachedAntiderivative.__call__
        monkeypatch.setattr(CachedAntiderivative, "__call__",
                            lambda cache, z: calls.append(z) or lookup(cache, z))
        samples = _sample_mask(data, grid, False, 1e-10)
        assert samples.failures == 52
        assert samples.mask.sum() == 848
        assert len(calls) == 1

    @settings(max_examples=8, deadline=None)
    @given(eq=st.sampled_from(["hermite", "laguerre"]),
           dx=st.floats(0.0, 1.0, exclude_max=True),
           dy=st.floats(0.0, 1.0, exclude_max=True))
    def test_shifted_grids_match_per_node_lookups(self, eq, dx, dy):
        data, grid = default_case(eq)
        (a0, a1), (b0, b1) = grid.ranges
        n1, n2 = grid.resolution
        da, db = dx * (a1 - a0) / (n1 - 1), dy * (b1 - b0) / (n2 - 1)
        shifted = GridSpec(grid.kind, ((a0 + da, a1 + da), (b0 + db, b1 + db)),
                           grid.resolution, grid.base_point)
        assert_matches_reference(data, shifted)

    def test_forest_without_edges(self, plane_data):
        # every node is its own component, so no edge is integrated
        points = unit_square_grid(3).points()
        allowed = np.ones(points.shape, dtype=bool)
        edges = np.zeros((2, 3), dtype=bool), np.zeros((3, 2), dtype=bool)
        value, failed = _tree_integrals(points, allowed, edges,
                                        ew_cache(plane_data, 0j), plane_data)
        # int_0^z (1, 0, 0) from one root lookup per node
        assert not failed.any() and not value[:, 1:3].any()
        assert np.allclose(value[:, 0], points.ravel(), rtol=0, atol=1e-14)
        eta_sq, chi = plane_data.pair(points.ravel())
        assert np.array_equal(value[:, 3:], np.column_stack([eta_sq, chi]))


# the user equation of the README's "User-defined equations" section
_README_ODE = ("id = my-equation\nparams = alpha=2\np = z - 0.5\n"
               "q = 1.5 - z\nr = alpha\nsingularities = 0.5\n")


@pytest.mark.parametrize("source", ["numeric", "closed_form"])
def test_only_closed_form_pairs_run_off_the_main_thread(source):
    # the numeric pair's eta^2 and chi insert into its store, so its
    # integrand stays on the calling thread even when levels are pooled
    data = (build_numeric_data(parse_user_ode(_README_ODE))
            if source == "numeric" else make_data(get_equation("hermite")))
    threads = set()

    def recorded(fn):
        def call(z):
            threads.add(threading.current_thread())
            return fn(z)
        return call

    data = dataclasses.replace(data, pair=recorded(data.pair))
    grid = GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (8, 8),
                    data.base_point)
    with pooled_gk15(workers=2, chunk=16):
        samples = _sample_mask(data, grid, True, 1e-10)
    assert samples.failures == 0
    off_main = threads - {threading.main_thread()}
    assert bool(off_main) == (source == "closed_form")


def test_samples_evaluate_the_pair_once_per_point():
    # on the numeric route u and chi at the nodes come off the forest's
    # edge moments, and the geometry report starts its circle legs from
    # them: the pair is looked up at the root of the grid's one
    # component alone, and sample_point still makes one call
    data = build_numeric_data(parse_user_ode(
        "params = alpha=2\np = z - 0.5\nq = 1.5 - z\nr = alpha\n"
        "singularities = 0.5\n"))
    calls = []

    def pair(z):
        calls.append(np.atleast_1d(z).copy())
        return data.pair(z)

    counted = dataclasses.replace(data, pair=pair)
    grid = GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (8, 8), 0j)
    zs = np.array([s.z for s in sample_grid(counted, grid, True)])
    assert len(zs) == 64
    root = zs[np.argmin(np.abs(zs))]
    seen = np.concatenate(calls)
    assert np.isin(zs, seen).tolist() == (zs == root).tolist()
    assert sum(np.array_equal(z, [root]) for z in calls) == 1
    cache = ew_cache(counted, 0j)
    calls.clear()
    sample_point(counted, cache, 1 + 1j)
    assert sum(np.array_equal(z, [1 + 1j]) for z in calls) == 1


def test_closed_form_samples_evaluate_the_pair_once_per_node():
    # a closed form's pair at a node comes with the row of the forest edge
    # to it (or the root's lookup), and the geometry report reads it off
    # the forest: no grid node is evaluated twice, residuals included
    data = make_data(get_equation("hermite"))
    calls = []

    def pair(z):
        calls.append(np.atleast_1d(z).copy())
        return data.pair(z)

    counted = dataclasses.replace(data, pair=pair)
    grid = GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (8, 8), 0j)
    samples = _sample_mask(counted, grid, True, 1e-10)
    assert samples.failures == 0 and len(samples.points) == 64
    seen = np.concatenate(calls)
    assert np.array_equal(np.sort_complex(seen[np.isin(seen, samples.points)]),
                          np.sort_complex(samples.points))


def forest(eq, n=20):
    """(data, nodes, node states, sampled mask) of _tree_integrals on
    the default domain of a catalog id at n x n."""
    data, grid = default_case(eq, n)
    points = grid.points()
    allowed = _allowed_nodes(points, data)
    cache = ew_cache(data, grid.base_point, 1e-10)
    edges = _grid_edges(points, allowed, cache.obstacles)
    value, failed = _tree_integrals(points, allowed, edges, cache, data)
    ok = allowed.ravel() & ~failed & np.isfinite(value).all(axis=1)
    return data, points.ravel(), value, ok


class TestNodeState:
    """The forest's node states on closed forms: the three integrals and
    the pair, carried by weierstrass.edge_rows and carry."""

    @pytest.mark.parametrize("eq", ["laguerre", "hermite", "bessel"])
    def test_pair_columns_are_the_pair(self, eq):
        data, z, value, ok = forest(eq)
        assert ok.sum() >= 300
        eta_sq, chi = data.pair(z[ok])
        assert same_bits(value[ok, 3], eta_sq)
        assert same_bits(value[ok, 4], chi)

    @pytest.mark.parametrize("eq", ["laguerre", "hermite", "bessel"])
    def test_report_reads_the_forest_pair(self, eq):
        data, z, value, ok = forest(eq)
        want = geometry_report(data, z[ok])
        got = geometry_report(data, z[ok], pair=(value[ok, 3], value[ok, 4]))
        assert got.failures.keys() == want.failures.keys()
        for f in dataclasses.fields(want):
            if f.name != "failures":
                assert same_bits(getattr(got, f.name),
                                 getattr(want, f.name)), f.name


def spotted(data, spot, radius=0.01):
    """The pair with eta^2 raising SingularPoint within radius of spot, a
    point that is no singular point of its equation."""
    def pair(z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z - spot) < radius):
            raise SingularPoint(complex(spot))
        return data.pair(z)
    return dataclasses.replace(data, pair=pair)


class TestForestFailures:
    """_tree_integrals around a spot where the integrand raises: hermite
    has no obstacles, and the anchor 0.1 + 0.1j is nearest the node 0 of
    a 5 x 5 grid with spacing 0.5, so the spot misses every node."""

    grid = GridSpec("cartesian", ((-1.0, 1.0), (-1.0, 1.0)), (5, 5),
                    0.1 + 0.1j)

    def samples(self, spot):
        data = make_data(get_equation("hermite"),
                         base_point=self.grid.base_point)
        return (_sample_mask(data, self.grid, False, 1e-10),
                _sample_mask(spotted(data, spot), self.grid, False, 1e-10))

    def test_failing_root_lookup(self):
        # the spot is on the leg from the anchor to the node 0 alone: that
        # root fails, and the next-nearest node roots the component
        ref, got = self.samples(0.05 + 0.05j)
        keep = ref.points != 0
        assert got.failures == 1
        assert np.array_equal(got.mask, ref.mask & (self.grid.points() != 0))
        assert np.array_equal(got.points, ref.points[keep])
        assert np.max(np.abs(got.integrals - ref.integrals[keep])) <= 1e-12

    def test_failing_tree_edge(self):
        # the spot is on the forest edge 0.5 -> 1, which is dropped; the
        # rebuilt forest reaches 1 around it
        ref, got = self.samples(0.75 + 0j)
        assert got.failures == 0
        assert np.array_equal(got.mask, ref.mask)
        assert np.max(np.abs(got.integrals - ref.integrals)) <= 1e-12

    def test_failing_edge_moments(self):
        # on the numeric route, ode.ratios raises near the forest edge
        # 0.5 -> 1 (the pair's own store keeps the plain equation): that
        # edge's moment lane fails, it is dropped, and the rebuilt forest
        # reaches 1 around it
        data = build_numeric_data(get_equation("hermite"),
                                  base_point=self.grid.base_point)
        ode = data.ode

        class Spotted(type(ode)):
            def ratios(self, z):
                if np.any(np.abs(np.asarray(z) - 0.75) < 0.05):
                    raise SingularPoint(0.75)
                return super().ratios(z)

        spotted = dataclasses.replace(data, ode=Spotted(
            **{f.name: getattr(ode, f.name) for f in dataclasses.fields(ode)}))
        ref = _sample_mask(data, self.grid, False, 1e-10)
        got = _sample_mask(spotted, self.grid, False, 1e-10)
        assert ref.failures == got.failures == 0
        assert np.array_equal(got.mask, ref.mask)
        assert np.max(np.abs(got.integrals - ref.integrals)) <= 1e-12
        assert np.max(np.abs(got.u - ref.u)) <= 1e-12


def reference_adjacency(n, u, v, live):
    """CSR (indptr, neighbour, edge id) of the live edges, both ways: the
    adjacency of the level-by-level reference search below."""
    e = np.flatnonzero(live)
    src = np.concatenate([u[e], v[e]])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return (indptr, np.concatenate([v[e], u[e]])[order],
            np.concatenate([e, e])[order])


def reference_bfs(adjacency, sources, visited, parent_edge, levels):
    """Breadth-first search from sources, one numpy pass per level: a
    node takes the first edge to it in frontier order."""
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


@st.composite
def grid_graphs(draw):
    """(n, down, right, u, v, wall, candidates): a random grid's
    4-neighbour edges with some dead, as _grid_edges' masks and as edge
    lists, wall nodes that no search enters, and a root order."""
    n1, n2 = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = n1 * n2

    def mask(shape):
        size = shape[0] * shape[1]
        return np.array(draw(st.lists(st.booleans(), min_size=size,
                                      max_size=size)),
                        dtype=bool).reshape(shape)

    down, right = mask((n1 - 1, n2)), mask((n1, n2 - 1))
    index = np.arange(n).reshape(n1, n2)
    u = np.concatenate([index[:-1, :][down], index[:, :-1][right]])
    v = np.concatenate([index[1:, :][down], index[:, 1:][right]])
    wall = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    wall &= np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    candidates = np.array(draw(st.permutations(range(n))), dtype=int)
    return n, down, right, u, v, wall, candidates


class TestForestSearch:
    """_search and _parent_edges pick the tree of the level-by-level
    search they replace, on grids with dead edges, walls and many
    components."""

    @settings(max_examples=200, deadline=None)
    @given(case=grid_graphs())
    def test_same_tree_as_level_by_level_search(self, case):
        n, down, right, u, v, wall, candidates = case
        adjacency = reference_adjacency(n, u, v, np.ones(len(u), bool))
        visited, want_edge = wall.copy(), np.full(n, -1)
        want_level, roots = np.full(n, -1), []
        for node in candidates:          # one search per unvisited root
            if visited[node]:
                continue
            roots.append(node)
            levels = []
            reference_bfs(adjacency, [node], visited, want_edge, levels)
            want_level[node] = 0
            for d, level in enumerate(levels, 1):
                want_level[level] = d
        # the roots of a rebuilt forest are searched from all at once
        together, together_levels = np.full(n, -1), []
        reference_bfs(adjacency, roots, wall.copy(), together,
                      together_levels)
        assert np.array_equal(together, want_edge)
        assert sum(map(len, together_levels)) == np.sum(want_level > 0)

        got_u, got_v, edge = _grid_graph(down, right)
        assert np.array_equal(got_u, u) and np.array_equal(got_v, v)
        table = _neighbours(u, v, edge, ~wall[u] & ~wall[v])
        depth = np.full(n + 1, -1)
        depth[n] = -2
        for root in roots:
            before = depth.copy()
            _search(table, root, depth)
            # the root starts its level 0, and no node is searched twice
            assert before[root] == -1 and depth[root] == 0
            assert np.array_equal(depth[before != -1], before[before != -1])
        assert np.array_equal(depth[:n], want_level)
        assert np.array_equal(_parent_edges(table, edge, depth), want_edge)


def reference_faces(mesh, ode):
    """The faces over every 2x2 block of sampled nodes whose four edges
    enter no exclusion disc and cross no cut ray of the equation, from
    one segment test per obstacle."""
    index = np.cumsum(mesh.mask.ravel()).reshape(mesh.mask.shape) - 1
    lo, hi = slice(None, -1), slice(1, None)
    corners = ((lo, lo), (hi, lo), (hi, hi), (lo, hi))
    block = np.logical_and.reduce([mesh.mask[c] for c in corners])
    faces = np.stack([index[c][block] for c in corners], axis=1)
    a = mesh.points[faces]
    b = np.roll(a, 1, axis=1)
    legal = np.ones(len(faces), dtype=bool)
    for c, r in ode.exclusions():
        legal &= ~segment_hits_disc(a, b, c, r).any(axis=1)
    for anchor, d in ode.cut_rays:
        legal &= ~segment_crosses_ray(a, b, anchor, d).any(axis=1)
    return faces[legal]


class TestMeshFaces:
    @pytest.mark.parametrize(
        "eq,lam,spec", [(eq, 1.0, None) for eq in EQUATION_IDS]
        + list(FIGURE_GRIDS),
        ids=[f"default-{eq}" for eq in EQUATION_IDS]
        + [f"figure-{c[0]}" for c in FIGURE_GRIDS])
    def test_no_face_has_an_illegal_edge(self, eq, lam, spec):
        # the catalog default meshes at full resolution, and the figures
        data, grid = figure_case(eq, lam, spec)
        mesh = build_mesh(data, grid, with_residuals=False)
        obstacles = Obstacles(data.ode.exclusions(), data.ode.cut_rays)
        z = mesh.points[mesh.faces]
        assert obstacles.segment_clear(z, np.roll(z, 1, axis=1)).all()
        assert np.array_equal(mesh.faces, reference_faces(mesh, data.ode))


class TestAnchoredImmersion:
    def test_matches_fixture_regular_anchor(self):
        fx = get_fixture("laguerre")
        # the fixture's closed form is branch-pinned on both half axes
        ode = dataclasses.replace(get_equation("laguerre", fx.params),
                                  cut_rays=fx.cut_rays)
        data = closed_form_data(ode, fx.constants["c1"], fx.constants["c2"],
                                fx.constants["lambda"], fx.base_point)
        for z in (2 + 1j, 0.5 + 0.8j, -1 + 1.2j):
            F, _ = immersion_at(data, fx.base_point, z)
            assert np.max(np.abs(F - reference_surface(fx, z))) <= 1e-8

    def test_matches_fixture_singular_anchor(self):
        # the chebyshev base point sits on a singular point; the first
        # leg is integrable and handled by the regularized staging leg
        fx = get_fixture("chebyshev1")
        ode = get_equation("chebyshev1", fx.params)
        data = closed_form_data(ode, fx.constants["c1"], fx.constants["c2"],
                                fx.constants["lambda"], fx.base_point)
        cache = ew_cache(data, fx.base_point)
        from wsurf.immersion import combine_euclidean
        for z in (0.5j, 2j, -0.5 + 1j):
            F = combine_euclidean(*cache(z))
            assert np.max(np.abs(F - reference_surface(fx, z))) <= 1e-8


class TestMeshExport:
    def build_plane(self, plane_data, n=3, residuals=False):
        return build_mesh(plane_data, unit_square_grid(n),
                          with_residuals=residuals)

    def test_quad_topology(self, plane_data):
        mesh = self.build_plane(plane_data, n=3)
        assert mesh.vertex_count() == 9
        assert len(mesh.faces) == 4
        for f in mesh.faces:
            assert len(f) == 4 and all(0 <= i < 9 for i in f)

    def test_obj(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data, n=2)
        out = tmp_path / "plane.obj"
        written = export_mesh(mesh, "obj", str(out))
        text = out.read_text()
        assert written == len(text.encode())
        lines = text.strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 4
        assert sum(1 for ln in lines if ln.startswith("f ")) == 1
        assert "nan" not in text

    def test_ply(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data, n=2)
        out = tmp_path / "plane.ply"
        export_mesh(mesh, "ply", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 4" in lines
        assert "element face 1" in lines

    def test_csv_round_trip(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data, n=3, residuals=True)
        out = tmp_path / "plane.csv"
        export_mesh(mesh, "csv", str(out))
        points, vertices, attrs = import_csv(str(out))
        assert np.array_equal(points, mesh.points)
        assert np.array_equal(vertices, mesh.vertices)
        for k in ("u", "absQ", "H_residual"):
            assert np.array_equal(attrs[k], mesh.attributes[k])
        # a second export is byte-identical
        out2 = tmp_path / "plane2.csv"
        export_mesh(mesh, "csv", str(out2))
        assert out.read_bytes() == out2.read_bytes()

    def test_unknown_format(self, plane_data, tmp_path):
        mesh = self.build_plane(plane_data)
        with pytest.raises(ValueError):
            export_mesh(mesh, "stl", str(tmp_path / "x.stl"))

    def test_io_failure(self, plane_data):
        mesh = self.build_plane(plane_data)
        with pytest.raises(IoFailure):
            export_mesh(mesh, "obj", "/nonexistent-dir/mesh.obj")


def reference_rows(fmt, array):
    """One fmt line per row, formatted row by row."""
    return [fmt % tuple(row) for row in np.asarray(array).tolist()]


def reference_render(mesh, fmt):
    """The OBJ, PLY or CSV text as lines joined by newlines."""
    if fmt == "obj":
        lines = reference_rows("v %.17g %.17g %.17g", mesh.vertices)
        lines += reference_rows("f %d %d %d %d", np.asarray(mesh.faces) + 1)
    elif fmt == "ply":
        lines = ["ply", "format ascii 1.0",
                 f"element vertex {len(mesh.vertices)}",
                 "property float x", "property float y", "property float z",
                 f"element face {len(mesh.faces)}",
                 "property list uchar int vertex_indices", "end_header"]
        lines += reference_rows("%.17g %.17g %.17g", mesh.vertices)
        lines += reference_rows("4 %d %d %d %d", mesh.faces)
    else:
        a = mesh.attributes
        columns = np.column_stack([
            mesh.points.real, mesh.points.imag, mesh.vertices,
            a["u"], a["absQ"], a["H_residual"]])
        lines = ["re,im,F1,F2,F3,u,absQ,H_residual"]
        lines += reference_rows(",".join(["%.17g"] * 8), columns)
    return "\n".join(lines) + "\n"


# finite doubles, with signed zeros, subnormals and the extremes mixed in
EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e300, -1e300, 1.7976931348623157e308)
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_VALUES))


@st.composite
def random_meshes(draw, max_faces=6):
    """A SurfaceMesh of random finite values; attributes may be +-inf,
    as a failed residual report makes them."""
    nv = draw(st.integers(1, 8))

    def column(values=finite, size=nv):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)),
                        dtype=float)

    nf = draw(st.integers(0, max_faces))
    faces = np.array(draw(st.lists(st.integers(0, nv - 1), min_size=4 * nf,
                                   max_size=4 * nf)), dtype=int).reshape(nf, 4)
    points = np.empty(nv, dtype=complex)
    points.real, points.imag = column(), column()
    attr = st.one_of(finite, st.sampled_from([np.inf, -np.inf]))
    return SurfaceMesh(
        vertices=column(size=3 * nv).reshape(nv, 3),
        mask=np.ones((nv, 1), dtype=bool), faces=faces, points=points,
        attributes={k: column(attr) for k in ("u", "absQ", "H_residual")})


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExportFormats:
    @settings(max_examples=100, deadline=None)
    @given(mesh=random_meshes())
    def test_renderers_match_row_by_row_text(self, mesh):
        for fmt, render in _RENDERERS.items():
            assert render(mesh) == reference_render(mesh, fmt)

    def test_mesh_without_faces(self):
        mesh = SurfaceMesh(
            vertices=np.array([[0.5, -0.0, 1e300]]),
            mask=np.ones((1, 1), dtype=bool),
            faces=np.zeros((0, 4), dtype=int), points=np.array([1 - 0j]),
            attributes={k: np.array([5e-324])
                        for k in ("u", "absQ", "H_residual")})
        for fmt, render in _RENDERERS.items():
            assert render(mesh) == reference_render(mesh, fmt)
        assert _RENDERERS["obj"](mesh) == "v 0.5 -0 1.0000000000000001e+300\n"

    @settings(max_examples=100, deadline=None)
    @given(mesh=random_meshes(max_faces=0))
    def test_csv_round_trip_is_exact(self, mesh):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.csv")
            export_mesh(mesh, "csv", path)
            points, vertices, attrs = import_csv(path)
        assert same_bits(points, mesh.points)
        assert same_bits(vertices, mesh.vertices)
        for k in ("u", "absQ", "H_residual"):
            assert same_bits(attrs[k], mesh.attributes[k])


def rendered(fmt, array):
    return b"".join(_rows(fmt, array)).decode("ascii")


def reference_text(fmt, array):
    return "".join(line + "\n" for line in reference_rows(fmt, array))


def near_powers_of_ten():
    """The doubles nearest 10^k, k in [-310, 308], and 3 ulps each side."""
    out = []
    for k in range(-310, 309):
        x = float(f"1e{k}")
        for toward in (np.inf, -np.inf):
            y = x
            for _ in range(3):
                y = np.nextafter(y, toward)
                out.append(y)
        out.append(x)
    return np.array(out)


def decimal_ties():
    """Doubles u / 2^s whose decimal expansion u * 5^s has 18 digits and
    ends in 5 (u odd), so that %.17g rounds a tie half-even."""
    rng = np.random.default_rng(3)
    out = []
    for s in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** s), min(10 ** 18 // 5 ** s, 2 ** 53)
        for u in [lo, hi - 1] + rng.integers(lo, hi, 20).tolist():
            u |= 1
            if u * 5 ** s < 10 ** 18:
                out.append(u / 2 ** s)
    return np.array(out)


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                           -5e-324, 1.7976931348623157e308,
                           -1.7976931348623157e308, 2.2250738585072014e-308,
                           1e16, 1e17, 9.999999999999999e16, 1e22, 1e23,
                           1e-4, 9.9999999999999991e-5, 1e-5, 1e98, 1e-98,
                           1e99, 1e100, 1e-99, 1e-100, 0.5, 100.0, 12.0])

INT_VALUES = np.array(
    [0, 1, -1, 9, 10, 9999, 10000, -10000, 99999999, 100000000,
     -(2 ** 63), -(2 ** 63) + 1, 2 ** 63 - 1, 10 ** 16, -(10 ** 18)]
    + [10 ** k + d for k in range(19) for d in (-1, 0, 1)], dtype=np.int64)

FLOAT_TEMPLATES = ("v %.17g %.17g %.17g", "%.17g %.17g %.17g",
                   ",".join(["%.17g"] * 8), "%.17g")
INT_TEMPLATES = ("f %d %d %d %d", "4 %d %d %d %d", "%d")


def as_rows(values, fmt):
    c = fmt.count("%")
    return values[:len(values) // c * c].reshape(-1, c)


class TestRows:
    """_rows against one % per row."""

    @pytest.mark.parametrize("fmt", FLOAT_TEMPLATES)
    def test_floats_at_powers_of_ten_ties_and_edges(self, fmt):
        x = np.concatenate([near_powers_of_ten(), decimal_ties(),
                            SPECIAL_VALUES])
        x = np.concatenate([x, -x])
        for shift in range(fmt.count("%")):
            rows = as_rows(np.roll(x, shift), fmt)
            assert rendered(fmt, rows) == reference_text(fmt, rows)

    def test_ties_are_certain_only_at_exact_powers_of_ten(self):
        # 10^(16 - E) is a double for E >= -6, where a tie rounds exactly;
        # below, its double-double is within rounding of the tie, so the
        # values go to the batched %
        x = decimal_ties()
        _, bad = mesh._float_fields(x[:, None], ["\n"])
        assert set(bad) == set(np.flatnonzero(np.floor(np.log10(x)) < -6))
        assert 0 < len(bad) < len(x)

    @pytest.mark.parametrize("fmt", INT_TEMPLATES)
    def test_ints(self, fmt):
        v = np.concatenate([INT_VALUES, -INT_VALUES[1:]])
        for shift in range(fmt.count("%")):
            rows = as_rows(np.roll(v, shift), fmt)
            assert rendered(fmt, rows) == reference_text(fmt, rows)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_large_arrays(self, data):
        # thousands of rows: random bit patterns (every class of double),
        # values of every decimal scale, ints of every width, and
        # hypothesis' own picks scattered over them
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n = data.draw(st.integers(1000, 6000))
        x = np.where(rng.random(n) < 0.5,
                     rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float),
                     rng.standard_normal(n) * 10.0 ** rng.integers(-120, 120,
                                                                  n))
        picks = data.draw(st.lists(st.floats(), max_size=50))
        x[rng.integers(0, n, len(picks))] = picks
        width = data.draw(st.integers(1, 64))
        v = rng.integers(-(2 ** (width - 1)), 2 ** (width - 1), n,
                         dtype=np.int64)
        fmt = data.draw(st.sampled_from(FLOAT_TEMPLATES))
        rows = as_rows(x, fmt)
        assert rendered(fmt, rows) == reference_text(fmt, rows)
        fmt = data.draw(st.sampled_from(INT_TEMPLATES))
        rows = as_rows(v, fmt)
        assert rendered(fmt, rows) == reference_text(fmt, rows)

    @pytest.mark.parametrize("block", range(1, 8))
    def test_small_blocks(self, block, monkeypatch):
        # block joins, and the batched % of the values the fast path leaves
        monkeypatch.setattr(mesh, "_BLOCK_ROWS", block)
        x = np.concatenate([SPECIAL_VALUES, decimal_ties()[:20],
                            np.linspace(-3, 3, 31)])
        for fmt in FLOAT_TEMPLATES:
            rows = as_rows(x, fmt)
            got = _rows(fmt, rows)
            assert len(got) == -(-len(rows) // block)
            assert b"".join(got).decode() == reference_text(fmt, rows)
        for fmt in INT_TEMPLATES:
            rows = as_rows(INT_VALUES, fmt)
            assert rendered(fmt, rows) == reference_text(fmt, rows)

    def test_no_rows(self):
        assert _rows("v %.17g %.17g %.17g", np.zeros((0, 3))) == []
        assert _rows("f %d %d %d %d", np.zeros((0, 4), dtype=int)) == []

    def test_export_writes_the_rendered_text(self, tmp_path):
        mesh_ = SurfaceMesh(
            vertices=np.array([[0.5, -0.0, 1e300], [1e-5, 2.0, -3.25]]),
            mask=np.ones((2, 1), dtype=bool),
            faces=np.array([[0, 1, 1, 0]]), points=np.array([1j, -2 + 0j]),
            attributes={k: np.array([np.inf, 1e-12])
                        for k in ("u", "absQ", "H_residual")})
        for fmt, render in _RENDERERS.items():
            path = tmp_path / f"m.{fmt}"
            written = export_mesh(mesh_, fmt, str(path))
            text = reference_render(mesh_, fmt).encode("ascii")
            assert path.read_bytes() == text
            assert written == len(text)


class TestMomentForest:
    """The numeric route's forest, integrated by edge moments
    (weierstrass.edge_moments and compose)."""

    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_catalog_ids_match_their_closed_form_forest(self, eq):
        closed, grid = default_case(eq)
        ode = closed.ode
        if any(abs(grid.base_point - c) < r for c, r in ode.exclusions()):
            # the chebyshev domains start at the singular point 1: the
            # numeric pair is not evaluated inside its disc, so the
            # immersion starts from the pair's base point instead
            grid = dataclasses.replace(grid, base_point=ode.pair_base)
            closed = make_data(ode, base_point=grid.base_point)
        numeric = build_numeric_data(ode)
        want = _sample_mask(closed, grid, False, 1e-10)
        got = _sample_mask(numeric, grid, False, 1e-10)
        assert np.array_equal(got.mask, want.mask)
        assert got.failures == want.failures
        assert np.max(np.abs(got.F - want.F), initial=0.0) <= 1e-9
        assert np.max(np.abs(got.u - want.u), initial=0.0) <= 1e-9
        assert np.max(np.abs(got.chi - want.chi)
                      / np.maximum(1.0, np.abs(want.chi)),
                      initial=0.0) <= 1e-9

    @pytest.mark.parametrize("n", [25, 50])
    def test_readme_ode_matches_per_node_lookups(self, n):
        # the README ODE with a cut ray from its pole 0.5 away from the
        # base point, so that its plane is simply connected and a node's
        # value does not depend on the route to it (without the cut,
        # int eta^2 has a period around the pole); the reference looks
        # each node up in an ew_cache of the exact pair
        # eta^2 = e^z / (1 - 2z), chi = 4 (1 - e^-z)
        ode = dataclasses.replace(parse_user_ode(_README_ODE),
                                  cut_rays=((0.5 + 0j, 1 + 0j),))
        exact = WeierstrassData(
            pair=lambda z: (np.exp(z) / (1 - 2 * z), 4 * (1 - np.exp(-z))),
            c1=1.0, c2=0.0, lam=1.0, base_point=0j, source="closed_form",
            ode=ode)
        grid = GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (n, n), 0j)
        samples = _sample_mask(build_numeric_data(ode), grid, False, 1e-10)
        mask, failures, F = per_node_reference(exact, grid)
        assert np.array_equal(samples.mask, mask)
        assert samples.failures == failures
        assert np.max(np.abs(samples.F - F[mask]), initial=0.0) <= 1e-9


def sliced_lanes(monkeypatch, width=7):
    """weierstrass.panel_lanes run in calls of at most width lanes."""
    lanes = weierstrass.panel_lanes

    def sliced(ode, a, b, states, step, keep_panels=False):
        parts = [lanes(ode, a[i:i + width], b[i:i + width],
                       states[i:i + width], step)[0]
                 for i in range(0, len(a), width)]
        return (np.concatenate(parts) if parts
                else np.array(states, dtype=complex)), []

    monkeypatch.setattr(weierstrass, "panel_lanes", sliced)


class TestBatchIndependence:
    """A lane's bits do not depend on the lanes batched with it, for the
    catalog equations and the README ODE, whose ode.ratios round every
    point alike in any batch."""

    @pytest.mark.parametrize("eq", EQUATION_IDS)
    def test_moments_do_not_depend_on_the_batch(self, eq, monkeypatch):
        # every legal edge of the default domain at 30 x 30, more lanes
        # than a panel_lanes chunk
        d = get_equation(eq).default_domain
        grid = GridSpec(d.kind, d.ranges, (30, 30), d.base_point)
        data = make_data(get_equation(eq), base_point=grid.base_point)
        points = grid.points()
        allowed = _allowed_nodes(points, data)
        down, right = _grid_edges(points, allowed,
                                  Obstacles(data.ode.exclusions(),
                                            data.ode.cut_rays))
        a = np.concatenate([points[:-1, :][down], points[:, :-1][right]])
        b = np.concatenate([points[1:, :][down], points[:, 1:][right]])
        assert len(a) > 1024
        whole = weierstrass.edge_moments(data.ode, -0.5 + 0.2j, a, b, 1e-10)
        sliced_lanes(monkeypatch)
        sliced = weierstrass.edge_moments(data.ode, -0.5 + 0.2j, a, b, 1e-10)
        assert whole[1].keys() == sliced[1].keys()
        assert np.array_equal(whole[0], sliced[0], equal_nan=True)

    @pytest.mark.parametrize("grid", [
        GridSpec("cartesian", ((-2.0, 2.0), (-2.0, 2.0)), (50, 50), base)
        for base in (0j, 2 + 0j)] + [
        # demo 06's annulus around the pole: edges in every direction
        GridSpec("polar", ((0.7, 2.0), (0.0, 2 * math.pi)), (50, 50),
                 2 + 0j)], ids=["cartesian", "cartesian-at-2", "polar"])
    def test_readme_obj_does_not_depend_on_the_batch(self, grid,
                                                     monkeypatch):
        # the pair's chain behind the root lookups and the forest's edge
        # moments both run in 7-lane slices

        def obj():
            data = build_numeric_data(parse_user_ode(_README_ODE))
            return _RENDERERS["obj"](build_mesh(data, grid, False))

        whole = obj()
        sliced_lanes(monkeypatch)
        assert obj() == whole
