"""The four benchmark workloads and their seeded inputs.

Every operation is one ``wsurf.cli.run_pipeline`` call.  The seed shifts
the hermite grids by a sub-cell offset (hermite has no singular points or
cuts, so any shift is legal) and permutes the operation order within each
pass.  Seed 0 uses the listed inputs exactly.  The figure and verify
inputs are the paper's and no seed changes them.

This module imports nothing from wsurf, so the set-up probe can time the
``import wsurf`` on its own.
"""

import os
import random
from dataclasses import dataclass

# (equation, --lambda, --grid or None for the catalog default, vertices);
# the vertex counts are acceptance criterion 10's.
FIGURES = (
    ("laguerre", "1+0i", None, 2500),
    ("legendre", "-2+0i", "polar:0.02,8,0,18.849555921538759,30,30", 848),
    ("bessel", "-0.5+0i", "polar:0.01,2,0,6.283185307179586,30,30", 870),
    ("chebyshev1", "-1+0i", "polar:0.02,10,0,6.283185307179586,30,30", 846),
)

SWEEP_SIZES = (50, 100, 200)

CATALOG_IDS = (
    "legendre", "legendre_assoc", "bessel", "chebyshev1", "chebyshev2",
    "laguerre", "laguerre_assoc", "hermite", "gegenbauer", "jacobi",
)

# The user equation from the README's "User-defined equations" section.
USER_ODE = """id = my-equation
params = alpha=2
p = z - 0.5
q = 1.5 - z
r = alpha
singularities = 0.5
"""

WORKLOADS = ("figures", "residuals", "sweep", "verify")


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and what its output must look like."""

    name: str                # "<workload>/<label>", unique in the workload
    argv: tuple
    kind: str                # "obj" | "csv" | "verify"
    out: str = None          # output file of a surface operation
    equation: str = None
    grid: str = None         # the --grid flag, None for the catalog default
    vertices: int = None     # expected vertex count of a surface operation
    nodes: int = None        # sweep grid nodes, for per-node times
    seeded: bool = False     # inputs depend on the seed


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warmup: Operation        # untimed, run once before the first pass
    files: dict              # extra input files: path -> text


def hermite_grid(n, seed, lo=-2.0, hi=2.0):
    """The cartesian hermite grid of size n, shifted by a sub-cell offset."""
    if seed == 0:
        dx = dy = 0.0
    else:
        rng = random.Random(f"hermite-{seed}-{n}")
        cell = (hi - lo) / (n - 1)
        dx, dy = cell * rng.random(), cell * rng.random()
    return (f"cartesian:{lo + dx!r},{hi + dx!r},{lo + dy!r},{hi + dy!r},"
            f"{n},{n}")


def _surface(workload, label, out_dir, equation, lam, grid, fmt, vertices,
             nodes=None, seeded=False):
    out = os.path.join(out_dir, f"{label}.{fmt}")
    argv = ["surface", "--eq", equation]
    if lam is not None:
        argv += ["--lambda", lam]
    if grid is not None:
        argv += ["--grid", grid]
    argv += ["--out", out]
    if fmt == "csv":
        argv += ["--format", "csv"]
    return Operation(f"{workload}/{label}", tuple(argv), fmt, out, equation,
                     grid, vertices, nodes, seeded)


def build(name, seed, out_dir, quick=False):
    """The workload's operations; ``quick`` shrinks every grid for a
    self-test and keeps the operation mix."""
    if name == "figures":
        ops = []
        for eq, lam, grid, want in FIGURES:
            if quick:
                grid, want = _quick_grid(eq, grid), None
            ops.append(_surface(name, eq, out_dir, eq, lam, grid, "obj",
                                want))
        return Workload(name, tuple(ops), ops[2], {})
    if name == "residuals":
        n = 6 if quick else 50
        bessel = FIGURES[2]
        bgrid = _quick_grid("bessel", bessel[2]) if quick else bessel[2]
        ops = (
            _surface(name, "hermite", out_dir, "hermite", None,
                     hermite_grid(n, seed), "csv", n * n, seeded=True),
            _surface(name, "bessel", out_dir, "bessel", bessel[1], bgrid,
                     "csv", None if quick else bessel[3]),
        )
        return Workload(name, ops, ops[1], {})
    if name == "sweep":
        sizes = (4, 6, 8) if quick else SWEEP_SIZES
        ops = tuple(
            _surface(name, f"hermite-{n}", out_dir, "hermite", None,
                     hermite_grid(n, seed), "obj", n * n, n * n, seeded=True)
            for n in sizes)
        return Workload(name, ops, ops[0], {})
    if name == "verify":
        ode_file = os.path.join(out_dir, "user.ode")
        ids = ("legendre", "hermite") if quick else CATALOG_IDS
        ops = [Operation(f"{name}/{eq}", ("verify", "--eq", eq), "verify",
                         equation=eq) for eq in ids]
        ops.append(Operation(f"{name}/user-ode",
                             ("verify", "--ode-file", ode_file), "verify"))
        return Workload(name, tuple(ops), ops[0], {ode_file: USER_ODE})
    raise ValueError(f"unknown workload {name!r}")


def _quick_grid(eq, grid):
    if grid is None:                       # laguerre's default domain
        return "polar:0.02,3,0,6.283185307179586,5,5"
    kind, _, rest = grid.partition(":")
    parts = rest.split(",")
    return f"{kind}:{','.join(parts[:4])},5,5"


def write_inputs(workload):
    """Write the workload's input files, creating their directories."""
    for path, text in workload.files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

