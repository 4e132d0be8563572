"""Benchmark of majorana-nh: four workloads, checked outputs, layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload preset_sweeps --seed 1 --seconds 15 --trace 0

Runs the program from ``src/`` in this process, repeating whole passes of
the workload until ``--seconds`` have passed, and checks every operation's
output.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of one traced pass, measured against one untraced pass.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "majorana_nh"
WORK = ROOT / ".perfbench_work"
# sweep_threads runs with BLAS threads at the library default, as users run
# it; the others pin BLAS to one thread so that their timings compare
WORKLOADS = ("preset_sweeps", "skin_scan", "bloch_ep", "sweep_threads")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MB = 1e6

END_TO_END = {
    "setup_s": "s",
    "sweep_kx_per_s": "k_x/s",
    "param_sets_per_s": "sets/s",
    "bloch_spectrum_s": "s",
    "ep_find_s": "s",
    "arc_trace_s": "s",
    "output_mb": "MB",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, pinned, threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pinned_by_benchmark": pinned,
        **{v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def setup_probe(p, command, config):
    """One set-up measurement in a fresh interpreter: (import_s, parse_s) at the reference speed."""
    def probe():
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), command, config],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    data, _, factor = p.timed(probe)
    return data["import_s"] * factor, data["parse_s"] * factor


def run_pass(p, parts):
    """One pass over the workload's parts: (timed samples, wall seconds, bytes by suffix)."""
    import checks

    shutil.rmtree(p.out, ignore_errors=True)
    samples = []
    t0 = time.perf_counter()
    for part in parts:
        samples += part.run(p)
    wall = time.perf_counter() - t0
    return samples, wall, checks.output_bytes(p.out)


def sweep_seconds(p, part, threads):
    """Seconds inside ribbon.sweep for one run of ``part`` at ``threads``."""
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install(PACKAGE)
    try:
        shutil.rmtree(p.out, ignore_errors=True)
        part.run(p, threads=threads)
    finally:
        tracer.uninstall()
    return sum(s[4] - s[3] for s in tracer.spans if s[1] == "ribbon.sweep")


def untraced_metrics(p, parts, seconds, min_passes):
    """End-to-end metrics from whole passes repeated for ``seconds`` (at least ``min_passes``).

    Each labelled operation keeps the mean of its repetitions; a metric sums
    those means (a rate divides the work done by that sum).  Every time is
    already at the reference speed (``Pass.timed``).
    """
    reps = {}
    output = []
    t0 = time.perf_counter()
    while True:
        samples, _, sizes = run_pass(p, parts)
        output.append(sum(sizes.values()) / MB)
        for metric, label, amount, dt in samples:
            reps.setdefault(metric, {}).setdefault(label, [amount, []])[1].append(dt)
        if len(output) >= min_passes and time.perf_counter() - t0 >= seconds:
            break
    metrics = {"output_mb": statistics.median(output)}
    for metric, ops in reps.items():
        total = sum(statistics.mean(times) for _, times in ops.values())
        metrics[metric] = sum(a for a, _ in ops.values()) / total if metric.endswith("_per_s") else total
    return metrics, len(output)


def traced_metrics(p, parts, speedup_part):
    import layertrace

    _, plain_wall, _ = run_pass(p, parts)
    tracer = layertrace.Tracer()
    tracer.install(PACKAGE)
    try:
        _, traced_wall, sizes = run_pass(p, parts)
    finally:
        tracer.uninstall()
    tracer.dump(p.work / "spans.json")
    one = sweep_seconds(p, speedup_part, 1)
    two = sweep_seconds(p, speedup_part, 2)

    self_s, calls = tracer.group_totals()
    refine_calls = calls["ep.minimize"]
    return {
        "models.bloch_calls": calls["models.bloch_matrix_grid"],
        "models.bloch_s": self_s["models.bloch"],
        "models.closed_form_s": self_s["models.closed_form"],
        "eigen.eig_calls": calls["eigen.eig"],
        "eigen.eig_s": self_s["eigen.eig"],
        "ribbon.build_s": self_s["ribbon.build"],
        "ribbon.diag_calls": calls["ribbon.diagonalize_ribbon"],
        "ribbon.diag_s": self_s["ribbon.diag"],
        "ribbon.max_residual": tracer.gauges.get("ribbon.max_residual", 0.0),
        "ribbon.cloud_s": self_s["ribbon.cloud"],
        "ribbon.classify_s": self_s["ribbon.classify"],
        "ribbon.nhse_s": self_s["ribbon.nhse"],
        "ribbon.sweep_self_s": self_s["ribbon.sweep_self"],
        "ribbon.thread_speedup": one / two,
        "ep.scan_calls": calls["ep.ep_scan"],
        "ep.grid_s": self_s["ep.grid"],
        "ep.refine_calls": refine_calls,
        "ep.refine_nfev": tracer.counters["ep.refine_nfev"],
        "ep.refine_s": self_s["ep.refine"],
        "ep.confirmed_per_refine": tracer.counters["ep.confirmed"] / refine_calls if refine_calls else 0.0,
        "ep.closed_form_s": self_s["ep.closed_form"],
        "ep.arc_contour_s": self_s["ep.arc_contour"],
        "export.table_s": self_s["export.table"],
        "export.svg_s": self_s["export.svg"],
        "export.csv_mb": sizes["csv"] / MB,
        "export.json_mb": sizes["json"] / MB,
        "export.svg_mb": sizes["svg"] / MB,
        "pipelines.self_s": self_s["pipelines.self"],
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "trace.spans": len(tracer.spans),
    }


PER_LAYER_UNITS = {
    "cli.import_s": "s", "config.parse_s": "s",
    "models.bloch_calls": "count", "models.bloch_s": "s", "models.closed_form_s": "s",
    "eigen.eig_calls": "count", "eigen.eig_s": "s",
    "ribbon.build_s": "s", "ribbon.diag_calls": "count", "ribbon.diag_s": "s",
    "ribbon.max_residual": "rel", "ribbon.cloud_s": "s", "ribbon.classify_s": "s",
    "ribbon.nhse_s": "s", "ribbon.sweep_self_s": "s", "ribbon.thread_speedup": "ratio",
    "ep.scan_calls": "count", "ep.grid_s": "s", "ep.refine_calls": "count",
    "ep.refine_nfev": "count", "ep.refine_s": "s", "ep.confirmed_per_refine": "ratio",
    "ep.closed_form_s": "s", "ep.arc_contour_s": "s",
    "export.table_s": "s", "export.svg_s": "s",
    "export.csv_mb": "MB", "export.json_mb": "MB", "export.svg_mb": "MB",
    "pipelines.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio", "trace.spans": "count",
}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no program source at {SRC / PACKAGE}; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    pinned = args.workload != "sweep_threads"
    if pinned:
        # before numpy is imported anywhere; the probes inherit it
        for var in BLAS_VARS:
            os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import selftest
    import workloads

    import majorana_nh.cli
    from majorana_nh import eigen, ep, export, models, pipelines, presets, ribbon

    modules = SimpleNamespace(cli=majorana_nh.cli, eigen=eigen, ep=ep, export=export, models=models,
                              pipelines=pipelines, presets=presets, ribbon=ribbon)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    p = workloads.Pass(modules, work, args.seed)
    parts, speedup_part = workloads.build(args.workload, p)

    command, config = workloads.first_config(parts)
    probes = [setup_probe(p, command, config) for _ in range(SETUP_PROBES)]
    env = environment(args, pinned, 2 if args.workload == "sweep_threads" else 1)
    (work / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    print("env: " + json.dumps(env))

    run_problems = []
    if args.trace:
        run_problems += selftest.run(p)
        metrics = traced_metrics(p, parts, speedup_part)
        metrics["cli.import_s"] = statistics.median(a for a, _ in probes)
        metrics["config.parse_s"] = statistics.median(b for _, b in probes)
        units = PER_LAYER_UNITS
    else:
        metrics, passes = untraced_metrics(p, parts, args.seconds, workloads.MIN_PASSES[args.workload])
        metrics["setup_s"] = statistics.median(a + b for a, b in probes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"passes: {passes}; mean calibration sample {statistics.mean(p.calibration):.4f} s "
              f"(reference {workloads.CALIBRATION_REF_S} s)")
        units = END_TO_END

    if p.scan_sets and p.scan_agree / p.scan_sets < 0.99:
        run_problems.append(f"skin criterion agreement {p.scan_agree}/{p.scan_sets} below 0.99")
    for line in (p.problems + run_problems)[:40]:
        print("problem: " + line)
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not run_problems,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
