"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
records a single pass/fail line (repeated in the terminal summary).
The tests run in order; they are independent of each other.
"""

import dataclasses
import time

import numpy as np
import pytest

from wsurf.catalog import (GridSpec, get_equation, get_fixture,
                           reference_surface)
from wsurf.contour import ContourPath
from wsurf.errors import EmptyMesh
from wsurf.immersion import (IDENTITY2, PAULI, combine_euclidean,
                             combine_quaternionic, ew_integrals,
                             geometry_report, sym_tafel)
from wsurf.linearproblem import (closed_form_wavefunction,
                                 integrate_wavefunction, lp_residual)
from wsurf.mesh import ew_cache
from wsurf.pathplan import plan_path
from wsurf.special import ei
from wsurf.weierstrass import (build_numeric_data, closed_form_data,
                               make_data, verify_weierstrass)
from wsurf.cli import run_pipeline

from test_mesh import sample_grid


def _laguerre_reference_setup():
    """Closed-form laguerre data anchored like the reference surface."""
    fx = get_fixture("laguerre")
    # the reference closed form is branch-pinned on both half axes, so
    # comparison paths must avoid both
    ode = dataclasses.replace(get_equation("laguerre", fx.params),
                              cut_rays=fx.cut_rays)
    data = closed_form_data(ode, fx.constants["c1"], fx.constants["c2"],
                            fx.constants["lambda"], fx.base_point)
    return fx, ode, data


def _upper_half_points(rng, n, rmin, rmax):
    r = rng.uniform(rmin, rmax, n)
    t = rng.uniform(0.05 * np.pi, 0.95 * np.pi, n)
    return r * np.exp(1j * t)


def test_criterion_01_euclidean_immersion_vs_closed_form(criterion, rng):
    fx, _ode, data = _laguerre_reference_setup()
    start = time.perf_counter()
    cache = ew_cache(data, fx.base_point, tol=1e-11)
    worst = 0.0
    for z in _upper_half_points(rng, 50, 0.1, 3.0):
        F = combine_euclidean(*cache(z))
        worst = max(worst, float(np.max(np.abs(F - reference_surface(fx, z)))))
    elapsed = time.perf_counter() - start
    criterion(1, "laguerre Euclidean immersion matches the closed form "
                 "at 50 points in |xi| in [0.1, 3]",
              worst <= 1e-8 and elapsed < 5.0,
              f"max |dF| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_quaternionic_immersion(criterion, rng):
    fx, _ode, data = _laguerre_reference_setup()
    z0 = complex(fx.base_point)
    cache = ew_cache(data, z0, tol=1e-11)
    worst_entry = worst_pauli = 0.0
    for z in _upper_half_points(rng, 20, 0.1, 3.0):
        i1, i2, i3 = cache(z)
        ftilde = combine_quaternionic(i1, i2, i3)
        ref = combine_quaternionic(ei(z) - ei(z0),
                                   ei(-z) - ei(-z0),
                                   np.log(z) - np.log(z0))
        worst_entry = max(worst_entry, float(np.max(np.abs(ftilde - ref))))
        F = combine_euclidean(i1, i2, i3)
        rebuilt = -1j * sum(F[k] * PAULI[k] for k in range(3))
        worst_pauli = max(worst_pauli, float(np.max(np.abs(ftilde - rebuilt))))
    criterion(2, "laguerre quaternionic immersion matches its closed form "
                 "and the Pauli reconstruction",
              worst_entry <= 1e-8 and worst_pauli <= 1e-8,
              f"max entry dev {worst_entry:.2e}, "
              f"max Pauli dev {worst_pauli:.2e}")


def test_criterion_03_numeric_pairs_match_closed_rows(criterion, rng):
    cases = ("legendre", "bessel", "chebyshev1", "laguerre")
    worst_pair = worst_identity = 0.0
    for eq in cases:
        ode = get_equation(eq)
        cf = closed_form_data(ode, 1, 0, 1)
        num = build_numeric_data(ode, 1, 0, 1)
        pts = [complex(rng.uniform(0.4, 1.8)
                       * np.exp(1j * rng.uniform(0.15 * np.pi, 0.85 * np.pi)))
               for _ in range(20)]
        for z in pts:
            for k in (0, 1):
                a, b = complex(cf.pair(z)[k]), complex(num.pair(z)[k])
                worst_pair = max(worst_pair, abs(a - b) / max(1.0, abs(a)))
        report = verify_weierstrass(cf, pts)
        worst_identity = max(worst_identity, report.max_residual())
    criterion(3, "numeric Weierstrass pairs match the closed-form rows and "
                 "satisfy the coefficient identities "
                 "(legendre, bessel, chebyshev, laguerre)",
              worst_pair <= 1e-8 and worst_identity <= 1e-8,
              f"max pair dev {worst_pair:.2e}, "
              f"max identity residual {worst_identity:.2e}")


_CAPTION_CASES = ("legendre", "bessel", "chebyshev1", "gegenbauer",
                  "jacobi")
_CAPTION_EXCLUDED = (
    "legendre_assoc: caption disagrees with its own surface data",
    "hermite: caption closed form needs hypergeometric 2F2, out of scope",
    "laguerre_assoc: caption closed form out of scope",
)


def _fixture_domain_points(fx, rng, n):
    (a0, a1), (b0, b1) = fx.grid.ranges
    out = []
    while len(out) < n:
        a = rng.uniform(a0, a1)
        b = rng.uniform(b0, b1)
        z = a * np.exp(1j * b) if fx.grid.kind == "polar" else complex(a, b)
        if not fx.domain_contains(z):
            continue
        if any(abs(z - c) < rr + 0.1 for c, rr in fx.excluded):
            continue
        on_cut = False
        for anchor, d in fx.cut_rays:
            w = (z - anchor) * np.conj(complex(d))
            if w.real > -0.05 and abs(w.imag) < 0.05:
                on_cut = True
        if on_cut:
            continue
        ode = get_equation(fx.equation_id, fx.params)
        if ode.valid_region is not None and not ode.valid_region(z):
            continue
        out.append(z)
    return out


def test_criterion_04_caption_surfaces(criterion, rng):
    worst = 0.0
    for eq in _CAPTION_CASES:
        fx = get_fixture(eq)
        ode = dataclasses.replace(get_equation(eq, fx.params),
                                  cut_rays=fx.cut_rays)
        data = closed_form_data(ode, fx.constants["c1"], fx.constants["c2"],
                                fx.constants["lambda"], fx.base_point)
        cache = ew_cache(data, fx.base_point, tol=1e-11)
        for z in _fixture_domain_points(fx, rng, 20):
            F = combine_euclidean(*cache(z))
            worst = max(worst,
                        float(np.max(np.abs(F - reference_surface(fx, z)))))
    excluded = "; ".join(_CAPTION_EXCLUDED)
    criterion(4, "pipeline surfaces match the figure-caption closed forms "
                 f"for {', '.join(_CAPTION_CASES)} -- excluded: {excluded}",
              worst <= 1e-7, f"max |dF| = {worst:.2e}")


def test_criterion_05_linear_problem(criterion, rng):
    # transcendental laguerre wavefunction, checked at 100 points
    ode = get_equation("laguerre", {"alpha": 1})
    data = closed_form_data(ode, 1, 0, 1)
    wf = closed_form_wavefunction(
        data,
        lambda z: (z - 1) * (ei(z) + 1) - np.exp(z),
        lambda z: ei(z) + 1 - np.exp(z) / z)
    worst_lp = worst_dbar = 0.0
    for z in _upper_half_points(rng, 100, 0.5, 2.5):
        res, dbar = lp_residual(data, wf, complex(z))
        worst_lp, worst_dbar = max(worst_lp, res), max(worst_dbar, dbar)

    # integrated polynomial branches: P1(z) = z and T1(z) = z
    for eq, lam in (("legendre", 1.0), ("chebyshev1", -1.0)):
        ode = get_equation(eq)
        data = closed_form_data(ode, 1, 0, lam)
        z0, z1 = 0.5 + 1j, -0.4 + 1.3j
        path = plan_path(z0, z1, ode.exclusions(), ode.cut_rays)
        wf = integrate_wavefunction(data, (z0, 1.0), path)
        for t in np.linspace(0.15, 0.85, 8):
            z = complex(z0 + t * (z1 - z0) + 0.05j)
            res, dbar = lp_residual(data, wf, z)
            worst_lp, worst_dbar = max(worst_lp, res), max(worst_dbar, dbar)
        assert abs(wf.state_at(z1)[0] - z1) <= 1e-8
    criterion(5, "linear-problem residuals for the transcendental laguerre "
                 "wavefunction and the integrated P1/T1 branches",
              worst_lp <= 1e-6 and worst_dbar <= 1e-7,
              f"max residual {worst_lp:.2e}, max dbar {worst_dbar:.2e}")


_GEOMETRY_FIXTURES = ("laguerre", "legendre", "bessel", "chebyshev1",
                      "gegenbauer", "jacobi")


def _geometry_nodes(fx, ode):
    """Fixture grid nodes at least 0.05 from the singular set."""
    for z in fx.grid.points().ravel():
        z = complex(z)
        if any(abs(z - s) < 0.05 for s in ode.singularities):
            continue
        if ode.valid_region is not None and not ode.valid_region(z):
            continue
        if fx.equation_id == "chebyshev1":
            # the sqrt/arcsin data is genuinely discontinuous across the
            # real-axis cuts, so finite differences need clearance there
            near_cut = any(
                ((z - a) * np.conj(complex(d))).real > -0.05
                and abs(((z - a) * np.conj(complex(d))).imag) < 0.05
                for a, d in fx.cut_rays)
            if near_cut:
                continue
        yield z


def test_criterion_06_geometry_residuals(criterion):
    details = []
    ok = True
    for eq in _GEOMETRY_FIXTURES:
        fx = get_fixture(eq)
        ode = get_equation(eq, fx.params)
        data = closed_form_data(ode, fx.constants["c1"], fx.constants["c2"],
                                fx.constants["lambda"], fx.base_point)
        worst = {"conf": 0.0, "metric": 0.0, "H": 0.0, "dbarQ": 0.0,
                 "liouville": 0.0}
        count = 0
        for z in _geometry_nodes(fx, ode):
            rep = geometry_report(data, z)
            count += 1
            worst["conf"] = max(worst["conf"],
                                rep.conformality / rep.conformal_factor)
            worst["metric"] = max(worst["metric"],
                                  rep.metric / rep.conformal_factor)
            worst["H"] = max(worst["H"], rep.mean_curvature)
            worst["dbarQ"] = max(worst["dbarQ"], rep.hopf_holomorphy)
            worst["liouville"] = max(worst["liouville"], rep.liouville)
        eq_ok = (worst["conf"] <= 1e-5 and worst["metric"] <= 1e-5
                 and worst["H"] <= 1e-4 and worst["dbarQ"] <= 1e-6
                 and worst["liouville"] <= 1e-3)
        ok = ok and eq_ok and count > 0
        details.append(
            f"{eq}: {count} nodes, conf {worst['conf']:.1e}, "
            f"metric {worst['metric']:.1e}, H {worst['H']:.1e}, "
            f"dbarQ {worst['dbarQ']:.1e}, liou {worst['liouville']:.1e}")
    criterion(6, "conformality, metric, mean-curvature, Hopf-holomorphy and "
                 "Liouville residuals on all six fixture grids",
              ok, "; ".join(details))


def test_criterion_07_sym_tafel_involution(criterion, rng):
    worst = 0.0
    for _ in range(1000):
        mag = 10.0 ** rng.uniform(-6, 6)
        x = mag * np.exp(2j * np.pi * rng.uniform())
        m = sym_tafel(x)
        worst = max(worst, float(np.max(np.abs(m @ m + IDENTITY2))))
    criterion(7, "Sym-Tafel matrix squares to minus the identity for 1000 "
                 "random chi values", worst <= 1e-12, f"max dev {worst:.2e}")


_PATH_BOXES = {
    "laguerre": ((0.3, 1.5), (0.4, 1.5)),
    "laguerre_assoc": ((0.3, 1.5), (0.4, 1.5)),
    "bessel": ((0.3, 1.5), (0.4, 1.5)),
    "legendre": ((-0.5, 0.5), (0.5, 1.5)),
    "legendre_assoc": ((-0.5, 0.5), (0.5, 1.5)),
    "chebyshev1": ((-0.5, 0.5), (0.5, 1.5)),
    "chebyshev2": ((-0.5, 0.5), (0.5, 1.5)),
    "gegenbauer": ((-0.5, 0.5), (0.5, 1.5)),
    "hermite": ((-1.0, 1.0), (-1.0, 1.0)),
    "jacobi": ((-0.5, 0.2), (0.05, 0.5)),
}


def _detour(a, b, exclusions, cuts):
    for s in (0.35, -0.35, 0.6, -0.6):
        m = (a + b) / 2 + s * 1j * (b - a)
        try:
            return ContourPath((a, m, b), exclusions, cuts)
        except ValueError:
            continue
    return None


def test_criterion_08_path_independence(criterion, rng):
    worst = 0.0
    pairs = 0
    for eq, ((x0, x1), (y0, y1)) in _PATH_BOXES.items():
        ode = get_equation(eq)
        data = closed_form_data(ode, 1, 0, 1)
        done = 0
        while done < 20:
            a = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
            b = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
            if abs(a - b) < 0.1:
                continue
            path_a = plan_path(a, b, ode.exclusions(), ode.cut_rays)
            path_b = _detour(a, b, ode.exclusions(), ode.cut_rays)
            if path_b is None:
                continue
            fa = combine_euclidean(*ew_integrals(data, path_a, tol=1e-10))
            fb = combine_euclidean(*ew_integrals(data, path_b, tol=1e-10))
            worst = max(worst, float(np.max(np.abs(fa - fb))))
            done += 1
            pairs += 1
    criterion(8, "immersion is path independent for homotopic contours "
                 "(20 pairs per catalog equation)",
              worst <= 1e-8 and pairs == 200,
              f"{pairs} pairs, max |dF| = {worst:.2e}")


def test_criterion_09_jacobi_domain(criterion):
    ode = get_equation("jacobi")
    grid = ode.default_domain
    data = make_data(ode, base_point=grid.base_point)
    samples = sample_grid(data, grid, with_residuals=False)
    inside = all(abs(s.z) < 1 and abs(s.z + 1) < 2 for s in samples)

    expected = 0
    for z in grid.points().ravel():
        z = complex(z)
        if abs(z) < 1 and abs(z + 1) < 2 \
                and all(abs(z - s) >= 0.02 * (1 - 1e-12)
                        for s in ode.singularities):
            expected += 1

    rejected = False
    try:
        sample_grid(data, GridSpec("cartesian", ((0.5, 0.9), (0.9, 1.4)),
                                   (3, 3), 0j),
                    with_residuals=False)
    except EmptyMesh:
        rejected = True
    criterion(9, "jacobi sampling honors the validity region and rejects "
                 "out-of-domain requests",
              inside and len(samples) == expected and rejected,
              f"{len(samples)} nodes (expected {expected}), "
              f"out-of-domain request rejected: {rejected}")


_FIGURE_SURFACES = (
    # (equation, lambda flag, grid flag or None for the default, vertices)
    ("laguerre", "1+0i", None, 2500),
    ("legendre", "-2+0i", "polar:0.02,8,0,18.849555921538759,30,30", 848),
    ("bessel", "-0.5+0i", "polar:0.01,2,0,6.283185307179586,30,30", 870),
    ("chebyshev1", "-1+0i", "polar:0.02,10,0,6.283185307179586,30,30", 846),
)


def test_criterion_10_cli_surfaces(criterion, tmp_path, capsys):
    ok = True
    details = []
    for eq, lam, grid, want in _FIGURE_SURFACES:
        out = tmp_path / f"{eq}.obj"
        argv = ["surface", "--eq", eq, "--lambda", lam, "--out", str(out)]
        if grid:
            argv += ["--grid", grid]
        code = run_pipeline(argv)
        printed = capsys.readouterr().out
        text = out.read_text()
        verts = sum(1 for ln in text.splitlines() if ln.startswith("v "))
        clean = "nan" not in text and "inf" not in text
        this_ok = code == 0 and verts == want and clean \
            and f"{want} vertices" in printed
        ok = ok and this_ok
        details.append(f"{eq}: {verts}/{want} vertices"
                       + ("" if clean else ", NON-FINITE"))

    # byte-identical CSV across two runs
    csvs = []
    for k in range(2):
        out = tmp_path / f"bessel-{k}.csv"
        code = run_pipeline([
            "surface", "--eq", "bessel", "--lambda", "-0.5+0i",
            "--grid", "polar:0.01,2,0,6.283185307179586,30,30",
            "--out", str(out), "--format", "csv"])
        capsys.readouterr()
        ok = ok and code == 0
        csvs.append(out.read_bytes())
    identical = csvs[0] == csvs[1] and b"nan" not in csvs[0]
    ok = ok and identical
    details.append(f"csv runs byte-identical: {identical}")
    criterion(10, "CLI surface exports for the four figure parameter sets",
              ok, "; ".join(details))
