"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Runs tiny versions of every workload, traced and untraced, and checks
that each prints exactly the metrics BENCHMARK.json names, with their
units; that a traced run puts every wrapped wsurf name back; that the
output checker flags a perturbed vertex array; and that differing
deterministic counts are flagged.  Takes about a minute.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_printed_metrics():
    end_to_end, per_layer, names = declared_metrics()
    expect(tuple(names) == workloads.WORKLOADS,
           f"BENCHMARK.json workloads {names} != {workloads.WORKLOADS}")
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--quick"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=300)
            label = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and lines,
                   f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: keys {set(result)}")
            expect(result["correct"] is True, f"{label}: not correct")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared,
                   f"{label}: printed metrics differ from BENCHMARK.json: "
                   f"{sorted(set(printed) ^ set(declared))}")
            print(f"ok   {label}: {len(printed)} metrics")


def check_restore():
    import wsurf.cli
    import wsurf.linearproblem
    import wsurf.weierstrass
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "wsurf" or n.startswith("wsurf.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    cached = wsurf.weierstrass.CachedAntiderivative
    call = cached.__dict__["__call__"]
    plan_path = wsurf.pathplan.plan_path
    contour_quad = wsurf.contour.contour_quad

    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory() as tmp, tracer:
        expect(wsurf.weierstrass.plan_path is not plan_path,
               "weierstrass.plan_path not wrapped")
        expect(wsurf.cli.plan_path is not plan_path,
               "cli.plan_path not wrapped")
        for module in (wsurf.mesh, wsurf.immersion, wsurf.weierstrass):
            expect(module.contour_quad is not contour_quad,
                   f"{module.__name__}.contour_quad not wrapped")
        op = workloads.build("sweep", 0, tmp, quick=True).ops[0]
        with contextlib.redirect_stdout(io.StringIO()):
            code = wsurf.cli.run_pipeline(list(op.argv))
        expect(code == 0, f"traced quick op exited {code}")
        expect(tracer.calls[spans.ANTIDERIVATIVE] > 0,
               "no antiderivative spans recorded")
        expect(tracer.counts["contour.gk_panels"] > 0, "no GK panels counted")
        wrapped = tracer.patched()
    expect(len(wrapped) > 20, f"only {len(wrapped)} names wrapped")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    changed = [key for key in before if after.get(key) is not before[key]]
    expect(not changed, f"not restored: {changed}")
    expect(cached.__dict__["__call__"] is call,
           "CachedAntiderivative.__call__ not restored")
    expect(wsurf.pathplan.plan_path is plan_path
           and wsurf.weierstrass.plan_path is plan_path,
           "plan_path not restored")
    expect(wsurf.linearproblem.solve_ivp.__module__.startswith("scipy"),
           "solve_ivp not restored")
    print(f"ok   tracer wrapped {len(wrapped)} names and restored them")


def check_perturbation():
    import wsurf.cli
    with tempfile.TemporaryDirectory() as tmp:
        op = next(o for o in workloads.build("figures", 0, tmp).ops
                  if o.equation == "bessel")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = wsurf.cli.run_pipeline(list(op.argv))
        checker = checks.Checker(seed=0)
        checker.prepare(op)
        expect(checker.check(op, code, out.getvalue()) == [],
               "unperturbed bessel figure fails its check")
        verts, _ = checks._read_obj(op.out)
        with open(op.out, "w", encoding="ascii") as fh:
            fh.write("v 1 2\n")
        expect(checker.check(op, code, out.getvalue()) != [],
               "truncated OBJ not flagged")
    refs = checker.refs[op.name]
    expect(checks.check_vertices(verts, refs) == [],
           "reference vertices flagged before perturbation")
    k = refs[len(refs) // 2][0]
    verts[k, 2] += 10 * checks.TOL
    expect(len(checks.check_vertices(verts, refs)) == 1,
           "perturbed vertex not flagged")
    print("ok   checker flags a truncated OBJ and a vertex moved by 10 x TOL")


def check_count_mismatches():
    import run
    op = workloads.Operation("w/op", (), "verify")
    wl = workloads.Workload("w", (op,), op, {})
    first, second = run.Pass(), run.Pass()
    first.counts = {op.name: {"plan_path": 1}}
    second.counts = {op.name: {"plan_path": 2}}
    expect(len(run.count_mismatches([first, second], wl, 0, {}, False)) == 1,
           "counts differing between passes not flagged")
    baseline = {"fingerprint": run.fingerprint(),
                "counts": {op.name: {"plan_path": 3}}}
    expect(len(run.count_mismatches([first], wl, 0, baseline, False)) == 1,
           "counts differing from the seed baseline not flagged")
    expect(run.count_mismatches([first], wl, 0, dict(baseline,
                                fingerprint="other"), False) == [],
           "baseline compared although the sources differ")
    print("ok   count mismatches are flagged")


def main():
    check_restore()
    check_perturbation()
    check_count_mismatches()
    check_printed_metrics()
    if failures:
        print(f"{len(failures)} self-test failures", file=sys.stderr)
        return 1
    print("bench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
