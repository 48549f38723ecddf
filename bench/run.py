"""wsurf benchmark runner.

    python3 bench/run.py --workload figures|residuals|sweep|verify|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  One client in one process runs the
workload's operations in a closed loop: each ``wsurf.cli.run_pipeline``
call starts when the previous one has returned and its output has been
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run.  See bench/README.md.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BASELINE = os.path.join(BENCH_DIR, "baseline.json")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402  (the bench directory is not a package)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny grids, for bench/selftest.py")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record seed-0 counts and failures in "
                             "bench/baseline.json (traced, seed 0)")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_baseline and (args.seed != 0 or not args.trace
                                or args.quick):
        parser.error("--write-baseline needs --seed 0 --trace 1, no --quick")
    return args


def import_cli():
    """wsurf.cli from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "wsurf", "__init__.py")):
        print(f"error: no wsurf sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import wsurf.cli
    return wsurf.cli


# ---------------------------------------------------------------------------
# set-up

def setup_probe(args):
    """Body of one set-up measurement, in a fresh interpreter."""
    import_cli()
    workloads.write_inputs(workloads.build(args.workload, args.seed,
                                           args.setup_probe, args.quick))


def measure_setup(args, run_dir):
    """Median wall time of fresh interpreters that import wsurf and build
    the workload's inputs.

    Unlike the passes this is not rescaled by the speed probe: import time
    is mostly file reads and unmarshalling, and on the measured host it
    varied by 11 % where the probe kernel varied by 2x.
    """
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", os.path.join(run_dir, f"probe-{k}")]
        if args.quick:
            cmd.append("--quick")
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes

def run_op(cli, op, probe=None):
    """(wall seconds, reference seconds or None, exit code or exception
    text, captured output).  Traced ops run without the speed probe, whose
    samples would land in the spans' self times."""
    def call():
        try:
            return cli.run_pipeline(list(op.argv))
        except Exception:            # the op fails; the run goes on
            return traceback.format_exc(limit=3)

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        if probe is None:
            start = time.perf_counter()
            code = call()
            wall, ref = time.perf_counter() - start, None
        else:
            code, wall, ref = probe.timed(call)
    return wall, ref, code, out.getvalue()


class Pass:
    def __init__(self):
        self.seconds = {}            # op name -> wall seconds
        self.ref_seconds = {}        # op name -> reference seconds
        self.problems = {}           # op name -> problems, failed ops only
        self.counts = {}             # op name -> deterministic counts
        self.tracer = None

    @property
    def wall(self):
        return sum(self.seconds.values())

    @property
    def ref_wall(self):
        return sum(self.ref_seconds.values())


def run_pass(cli, order, checker, probe=None, tracer=None):
    p = Pass()
    outputs = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in order:
            before = tracer.snapshot() if tracer else None
            wall, ref, code, out = run_op(cli, op, probe)
            if tracer:
                after = tracer.snapshot()
                p.counts[op.name] = {k: after[k] - before[k] for k in after}
            p.seconds[op.name] = wall
            p.ref_seconds[op.name] = ref
            outputs.append((op, code, out))
    for op, code, out in outputs:         # checks run untraced
        problems = checker.check(op, code, out)
        if problems:
            p.problems[op.name] = problems
    p.tracer = tracer
    return p


def run_passes(cli, wl, rng, checker, seconds, probe=None, make_tracer=None):
    """Passes until the next one would overrun ``seconds`` by over half."""
    passes = []
    start = time.perf_counter()
    while True:
        order = list(wl.ops)
        rng.shuffle(order)
        passes.append(run_pass(cli, order, checker, probe,
                               make_tracer() if make_tracer else None))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# deterministic counts

def fingerprint():
    """Hash of the wsurf sources and the numeric stack they run on."""
    import numpy
    import scipy
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wsurf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    h.update(f"{sys.version_info[:3]} numpy {numpy.__version__} "
             f"scipy {scipy.__version__}".encode())
    return h.hexdigest()


def load_baseline():
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"fingerprint": None, "counts": {}, "failures": {}}


def count_mismatches(traced, wl, seed, baseline, quick):
    """Ops whose counts differ between passes, or from the seed baseline
    when the sources and inputs are the baseline's."""
    problems = []
    first = traced[0].counts
    for p in traced[1:]:
        for name, counts in p.counts.items():
            if counts != first[name]:
                problems.append(f"{name}: counts {counts} differ from the "
                                f"first pass's {first[name]}")
    if quick or baseline.get("fingerprint") != fingerprint():
        return problems
    for op in wl.ops:
        want = baseline["counts"].get(op.name)
        if want is not None and (seed == 0 or not op.seeded) \
                and first[op.name] != want:
            problems.append(f"{op.name}: counts {first[op.name]} differ "
                            f"from the seed baseline {want}")
    return problems


def write_baseline(wl, traced, baseline):
    baseline["fingerprint"] = fingerprint()
    baseline.setdefault("counts", {}).update(traced[0].counts)
    failures = baseline.setdefault("failures", {})
    for op in wl.ops:
        failures.pop(op.name, None)
    failures.update(traced[0].problems)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics

def median_wall(passes, reference=False):
    return statistics.median(p.ref_wall if reference else p.wall
                             for p in passes)


def end_to_end(passes, setup_s, attempted, failed):
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_wall(passes, reference=True), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def per_layer(traced, untraced):
    readings = [p.tracer.layer_metrics() for p in traced]
    metrics = {name: (statistics.median(r[name][0] for r in readings), unit)
               for name, (_, unit) in readings[0].items()}
    metrics["trace.wall_s"] = (median_wall(traced), "s")
    metrics["trace.overhead_s"] = (median_wall(traced) - median_wall(untraced),
                                   "s")
    return metrics


def per_node(wl, passes):
    """{op label: reference microseconds per grid node}, for ops with a
    node count."""
    return {op.name.split("/", 1)[1]:
            1e6 * statistics.median(p.ref_seconds[op.name] for p in passes)
            / op.nodes for op in wl.ops if op.nodes}


def summary(args, wl, passes, attempted, failed, traced):
    """Human-readable lines printed ahead of the JSON result."""
    lines = []
    for op in wl.ops:
        wall = statistics.median(p.seconds[op.name] for p in passes)
        ref = statistics.median(p.ref_seconds[op.name] for p in passes)
        lines.append(f"# {op.name}: median {ref:.3f} reference s, "
                     f"{wall:.3f} wall s over {len(passes)} passes")
    fields = [f"workload={wl.name}", f"seed={args.seed}",
              f"passes={len(passes)}",
              f"wall_s={median_wall(passes, reference=True):.4f}",
              f"unscaled_wall_s={median_wall(passes):.4f}",
              f"failed_frac={failed}/{attempted}"]
    if wl.name == "sweep" and not args.quick:
        us = per_node(wl, passes)
        for n in workloads.SWEEP_SIZES:
            fields.append(f"us_per_node.{n}={us[f'hermite-{n}']:.1f}")
        growth = us[f"hermite-{workloads.SWEEP_SIZES[-1]}"] \
            / us[f"hermite-{workloads.SWEEP_SIZES[0]}"]
        fields.append(f"node_cost_growth={growth:.3f}")
    if traced:
        fields.append(f"traced_passes={len(traced)}")
        fields.append(f"trace_wall_s={median_wall(traced):.4f}")
    lines.append("# " + " ".join(fields))
    return lines


def result_json(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# ---------------------------------------------------------------------------
# main

def run_workload(args):
    cli = import_cli()
    run_dir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return _run_workload(args, cli, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):     # other runs may still use it
            os.rmdir(RUN_DIR)


def _run_workload(args, cli, run_dir):
    setup_s = measure_setup(args, run_dir)
    from checks import Checker
    from spans import Tracer
    from speed import SpeedProbe

    out_dir = os.path.join(run_dir, "out")
    wl = workloads.build(args.workload, args.seed, out_dir, args.quick)
    os.makedirs(out_dir)
    workloads.write_inputs(wl)
    checker = Checker(args.seed)
    for op in wl.ops:
        checker.prepare(op)
    rng = random.Random(args.seed)

    run_op(cli, wl.warmup)
    passes = run_passes(cli, wl, rng, checker, args.seconds, SpeedProbe())
    traced = []
    if args.trace:
        traced = run_passes(cli, wl, rng, checker, args.seconds,
                            make_tracer=Tracer)

    baseline = load_baseline()
    all_passes = passes + traced
    attempted = sum(len(p.seconds) for p in all_passes)
    failed = sum(len(p.problems) for p in all_passes)
    reports = collections.Counter(
        (name, "; ".join(problems))
        for p in all_passes for name, problems in p.problems.items())
    correct = True
    for (name, problems), times in sorted(reports.items()):
        expected = name in baseline.get("failures", {})
        print(f"{'known failure' if expected else 'FAILED'} {name} "
              f"(x{times}): {problems}", file=sys.stderr)
        correct = correct and expected
    if traced:
        for problem in count_mismatches(traced, wl, args.seed, baseline,
                                        args.quick):
            print(f"COUNT MISMATCH {problem}", file=sys.stderr)
            correct = False
        if args.write_baseline:
            write_baseline(wl, traced, baseline)
        metrics = per_layer(traced, passes)
    else:
        metrics = end_to_end(passes, setup_s, attempted, failed)

    for line in summary(args, wl, passes, attempted, failed, traced):
        print(line)
    print(result_json(correct, attempted, failed, metrics))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    merged, correct, attempted, failed, code = {}, True, 0, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        code = max(code, proc.returncode)
        for metric, reading in result["metrics"].items():
            merged[f"{name}.{metric}"] = (reading["value"], reading["unit"])
    for metric, (value, unit) in merged.items():
        print(f"# {metric} = {value:.6g} {unit}")
    print(result_json(correct, attempted, failed, merged))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
