"""Command-line interface: list, surface, verify, sample."""

import argparse
import os
import re
import sys

import numpy as np

from .catalog import (DEFAULT_PARAMS, EQUATION_IDS, GridSpec, get_equation,
                      load_user_ode)
from .errors import WsurfError
from .geometry import Obstacles
from .immersion import geometry_report
from .linearproblem import integrate_wavefunction, lp_residual
from .mesh import build_mesh, ew_cache, export_mesh, sample_point
from .pathplan import plan_path
from .weierstrass import make_data, verify_weierstrass

_DEFAULT_TOL = 1e-10

_VERIFY_THRESHOLDS = {
    "weierstrass": 1e-6,
    "linear_problem": 1e-6,
    "wavefunction_dbar": 1e-7,
    "conformality": 1e-5,     # relative to e^u
    "metric": 1e-5,           # relative to e^u
    "mean_curvature": 1e-4,
    "hopf_holomorphy": 1e-6,
    "liouville": 1e-3,
}


def _tolerance():
    raw = os.environ.get("WSURF_TOL")
    if raw is None:
        return _DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        return None


def parse_complex(text):
    """Parse a complex literal of the form a+bi (or plain a, bi)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex literal {text!r}") from None


def parse_grid(text):
    """polar:r0,r1,t0,t1,n1,n2 or cartesian:x0,x1,y0,y1,n1,n2."""
    kind, _, rest = text.partition(":")
    parts = rest.split(",")
    if kind not in ("polar", "cartesian") or len(parts) != 6:
        raise argparse.ArgumentTypeError(f"cannot parse grid spec {text!r}")
    try:
        a0, a1, b0, b1 = (float(x) for x in parts[:4])
        n1, n2 = int(parts[4]), int(parts[5])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse grid spec {text!r}") from None
    return kind, ((a0, a1), (b0, b1)), (n1, n2)


def _parse_params(items):
    out = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"--param needs k=v, got {item!r}")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse parameter value {value!r}") from None
    return out


def _add_common(sub):
    sub.add_argument("--eq", help="catalog equation id")
    sub.add_argument("--ode-file", help="user ODE definition file")
    sub.add_argument("--param", action="append", default=[],
                     metavar="k=v", help="equation parameter (repeatable)")
    sub.add_argument("--lambda", dest="lam", type=parse_complex,
                     default=1 + 0j, metavar="c")
    sub.add_argument("--c1", type=parse_complex, default=1 + 0j, metavar="c")
    sub.add_argument("--c2", type=parse_complex, default=0j, metavar="c")
    sub.add_argument("--xi0", type=parse_complex, default=None, metavar="c")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wsurf",
        description="Minimal surfaces from second-order complex ODEs "
                    "via the Enneper-Weierstrass representation")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("list", help="catalog ids and parameter schemas")

    surface = subs.add_parser("surface", help="export a surface mesh")
    _add_common(surface)
    surface.add_argument("--grid", type=parse_grid, default=None,
                         metavar="kind:a0,a1,b0,b1,n1,n2")
    surface.add_argument("--out", required=True)
    surface.add_argument("--format", choices=("obj", "ply", "csv"),
                         default=None)

    verify = subs.add_parser("verify", help="run the residual suite")
    _add_common(verify)

    sample = subs.add_parser("sample", help="print one immersion sample")
    _add_common(sample)
    sample.add_argument("--xi", type=parse_complex, required=True, metavar="c")
    return parser


def _resolve_ode(args):
    if args.eq:
        return get_equation(args.eq, _parse_params(args.param))
    if args.ode_file:
        return load_user_ode(args.ode_file)
    raise ValueError("one of --eq or --ode-file is required")


def _resolve_grid(args, ode):
    if args.grid is None:
        grid = ode.default_domain
        if args.xi0 is not None:
            grid = GridSpec(grid.kind, grid.ranges, grid.resolution, args.xi0)
        return grid
    kind, ranges, resolution = args.grid
    xi0 = args.xi0 if args.xi0 is not None else ode.default_domain.base_point
    return GridSpec(kind, ranges, resolution, xi0)


def _cmd_list():
    for eq in EQUATION_IDS:
        schema = ", ".join(f"{k}={v}" for k, v in DEFAULT_PARAMS[eq].items())
        print(f"{eq}: {schema}")
    return 0


def _cmd_surface(args, tol):
    ode = _resolve_ode(args)
    grid = _resolve_grid(args, ode)
    fmt = args.format
    if fmt is None:
        ext = os.path.splitext(args.out)[1].lstrip(".").lower()
        fmt = ext if ext in ("obj", "ply", "csv") else "obj"
    mesh = build_mesh(ode, constants={"c1": args.c1, "c2": args.c2,
                                      "lambda": args.lam},
                      grid=grid, with_residuals=(fmt == "csv"), tol=tol)
    written = export_mesh(mesh, fmt, args.out)
    print(f"{args.out}: {mesh.vertex_count()} vertices, "
          f"{len(mesh.faces)} faces, {written} bytes")
    return 0


def _verification_points(ode, data):
    xi0 = complex(ode.default_domain.base_point)
    if _near_singular(data, xi0):
        xi0 = xi0 + 0.5j
    offsets = (0j, 0.2 + 0.15j, -0.15 + 0.3j, 0.1 - 0.2j, 0.3 + 0.4j,
               -0.25 - 0.1j)
    obstacles = Obstacles(data.exclusions, data.cut_rays)
    return [z for z in (xi0 + off for off in offsets)
            if not _near_singular(data, z, margin=0.1)
            and (ode.valid_region is None or ode.valid_region(z))
            and not obstacles.on_ray(z)]


def _near_singular(data, z, margin=0.05):
    return any(abs(z - c) < r + margin for c, r in data.exclusions)


def _cmd_verify(args, tol):
    ode = _resolve_ode(args)
    data = make_data(ode, c1=args.c1, c2=args.c2, lam=args.lam,
                     base_point=args.xi0)
    points = _verification_points(ode, data)
    if not points:
        print("no admissible verification points", file=sys.stderr)
        return 1

    results = {}
    wreport = verify_weierstrass(data, ode, points)
    results["weierstrass"] = wreport.max_residual()

    path = plan_path(points[0], points[-1] + 0.05j, data.exclusions,
                     data.cut_rays)
    wf = integrate_wavefunction(data, ode, (1.0, 0.0), path)
    worst_lp = worst_dbar = 0.0
    for z in points[1:]:
        res, dbar = lp_residual(data, wf, z)
        worst_lp = max(worst_lp, res)
        worst_dbar = max(worst_dbar, dbar)
    results["linear_problem"] = worst_lp
    results["wavefunction_dbar"] = worst_dbar

    rep = geometry_report(data, np.array(points), tol=min(tol, 1e-12))
    if rep.failures:
        raise rep.failures[min(rep.failures)]
    for name, values in (
            ("conformality", rep.conformality / rep.conformal_factor),
            ("metric", rep.metric / rep.conformal_factor),
            ("mean_curvature", rep.mean_curvature),
            ("hopf_holomorphy", rep.hopf_holomorphy),
            ("liouville", rep.liouville)):
        # the largest value, nan ignored
        results[name] = float(np.fmax.reduce(values, initial=0.0))

    ok = True
    for name, value in results.items():
        limit = _VERIFY_THRESHOLDS[name]
        passed = value <= limit
        ok = ok and passed
        print(f"{name}: max residual {value:.3e} "
              f"(threshold {limit:.0e}) {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


def _cmd_sample(args, tol):
    ode = _resolve_ode(args)
    data = make_data(ode, c1=args.c1, c2=args.c2, lam=args.lam)
    xi0 = args.xi0 if args.xi0 is not None \
        else ode.default_domain.base_point
    s = sample_point(data, ew_cache(data, xi0, tol), args.xi)
    rep = geometry_report(data, args.xi, tol=min(tol, 1e-12))
    fields = {
        "z": args.xi,
        "F1": s.F[0], "F2": s.F[1], "F3": s.F[2],
        "Ftilde00": s.Ftilde[0, 0], "Ftilde01": s.Ftilde[0, 1],
        "Ftilde10": s.Ftilde[1, 0], "Ftilde11": s.Ftilde[1, 1],
        "Fst00": s.Fst[0, 0], "Fst01": s.Fst[0, 1],
        "Fst10": s.Fst[1, 0], "Fst11": s.Fst[1, 1],
        "u": s.u, "Q": s.Q,
        **rep.as_dict(),
    }
    print(" ".join(f"{k}={_fmt(v)}" for k, v in fields.items()))
    return 0


def _fmt(v):
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    return f"{float(v):.12g}"


_COMPLEX_FLAGS = {"--lambda", "--c1", "--c2", "--xi0", "--xi"}
_COMPLEX_RE = re.compile(
    r"-?\d+(\.\d+)?([eE][+-]?\d+)?([+-]\d+(\.\d+)?([eE][+-]?\d+)?[ij])?$"
    r"|-?\d+(\.\d+)?([eE][+-]?\d+)?[ij]$")


def _join_negative_literals(argv):
    """Merge '--flag -1+0i' into '--flag=-1+0i' so argparse accepts it."""
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _COMPLEX_FLAGS and k + 1 < len(argv) \
                and argv[k + 1].startswith("-") \
                and _COMPLEX_RE.match(argv[k + 1]):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def run_pipeline(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_literals(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    tol = _tolerance()
    if tol is None:
        print("error: WSURF_TOL is not a decimal literal", file=sys.stderr)
        return 2
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "surface":
            return _cmd_surface(args, tol)
        if args.command == "verify":
            return _cmd_verify(args, tol)
        if args.command == "sample":
            return _cmd_sample(args, tol)
    except WsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main():
    sys.exit(run_pipeline())


if __name__ == "__main__":
    main()
