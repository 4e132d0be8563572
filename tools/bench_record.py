"""Record the benchmark's end-to-end medians of one checkout in a ``BENCH_<n>.json``.

Usage::

    python tools/bench_record.py --out BENCH_2.json [--repo DIR]

Runs ``perfbench/run.py --trace 0`` of the checkout ``--repo`` (default:
this one) three times per workload at seed 5, one run at a time, each for
the ``run_seconds`` of its ``BENCHMARK.json``, and writes the median of each
end-to-end metric, with the spread of the runs, the failed operation
counts, and the run environment the benchmark reports: the git SHA of the
checkout, ``nproc``, the BLAS library and the BLAS thread setting of each
workload.  Since that SHA is HEAD's, an uncommitted change would be filed
under its parent's: the record also holds ``src_sha256``, a hash of the
files under ``src/``, and ``repo_dirty``, whether ``git status
--porcelain`` lists any change (null where the checkout has no ``.git``).  It also times the criterion-8 acceptance test of that checkout
(one ``pytest`` run, BLAS at one thread).  Run it on an otherwise idle
machine: the numbers are wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("preset_sweeps", "skin_scan", "bloch_ep", "sweep_threads")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CRITERION8 = "tests/test_acceptance.py::test_criterion_08_skin_criterion_theorem"
RUNS, SEED = 3, 5


def bench_run(repo: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, environment line) of one untraced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=repo, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def criterion8_seconds(repo: Path) -> dict:
    """Wall seconds and outcome of the criterion-8 test of ``repo``."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), **dict.fromkeys(BLAS_VARS, "1"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CRITERION8],
                          cwd=repo, env=env, capture_output=True, text=True)
    return {"wall_s": round(time.perf_counter() - t0, 2), "passed": proc.returncode == 0}


def src_sha256(repo: Path) -> str:
    """sha256 over the relative path, size and bytes of every file under ``src/``, caches skipped."""
    digest = hashlib.sha256()
    for path in sorted((repo / "src").rglob("*")):
        if path.is_file() and not any(p == "__pycache__" or p.endswith(".egg-info") for p in path.parts):
            data = path.read_bytes()
            digest.update(f"{path.relative_to(repo).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def repo_dirty(repo: Path) -> bool | None:
    """Whether ``git status --porcelain`` lists a change in ``repo``; None without ``.git`` or when git fails."""
    if not (repo / ".git").exists():
        return None
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=repo, capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def record(repo: Path) -> dict:
    seconds = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    doc = {"repo_sha": None, "src_sha256": src_sha256(repo), "repo_dirty": repo_dirty(repo),
           "nproc": os.cpu_count(), "runs_per_workload": RUNS, "seed": SEED,
           "seconds_per_run": seconds, "workloads": {}}
    for workload in WORKLOADS:
        results, env = [], None
        for _ in range(RUNS):
            result, env = bench_run(repo, workload, SEED, seconds)
            results.append(result)
        names = results[0]["metrics"]
        doc["workloads"][workload] = {
            "blas": env["blas"],
            "blas_threads": {v: env[v] for v in BLAS_VARS},
            "correct": all(r["correct"] for r in results),
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "median": {n: statistics.median(r["metrics"][n]["value"] for r in results) for n in names},
            "runs": {n: [r["metrics"][n]["value"] for r in results] for n in names},
            "units": {n: results[0]["metrics"][n]["unit"] for n in names},
        }
        doc["repo_sha"], doc["nproc"] = env["git_sha"], env["nproc"]
    doc["criterion8"] = criterion8_seconds(repo)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_2.json")
    parser.add_argument("--repo", default=str(ROOT), help="checkout whose benchmark and source are run")
    args = parser.parse_args(argv)
    doc = record(Path(args.repo).resolve())
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
