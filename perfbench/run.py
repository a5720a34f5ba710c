"""Benchmark for the avstitch pipeline: four seeded workloads, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Each workload runs in a fresh worker process (``worker.py``) with the BLAS
and OpenMP thread counts pinned to 1 and ``PYTHONHASHSEED=0``; its stdout
and stderr go to ``perfbench/out/<workload>-seed<n>-trace<t>/``, beside the
run's ``result.json`` and, for traced runs, ``spans.jsonl``.  The program is
imported from ``src/``; nothing is installed or built.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "dedup_cluster", "air_eval", "ctx_loader")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170


class RunFailed(Exception):
    """The worker crashed or timed out, so the run has no result."""


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        with (out / "stdout.log").open("w") as stdout, (out / "stderr.log").open("w") as stderr:
            # its own process group, so that a kill also reaches the import probes it starts
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr, start_new_session=True)
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise RunFailed(f"{workload}: worker still running after {WORKER_TIMEOUT_S} s") from None
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if code != 0:
            tail = (out / "stderr.log").read_text(errors="replace").splitlines()[-15:]
            raise RunFailed(f"{workload}: worker exited {code}\n" + "\n".join(tail))
        return json.loads((out / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(out / "data", ignore_errors=True)


def report(workload: str, result: dict) -> None:
    """Every metric by name, with its unit and sample count, then the failures."""
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['error_rate']:.6g}, timed passes "
          f"{len(result['pass_seconds']['untraced'])} untraced + {len(result['pass_seconds']['traced'])} traced")
    samples = result["samples"]
    for name, metric in result["metrics"].items():
        n = samples.get(name)
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<8}" + (f" n={n}" if n else ""))
    for name, metric in result["unbounded_metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<8} (printed only, no bound)")
    if not result["metrics"] or "trace.overhead_s" in result["metrics"]:
        print(f"  samples {samples}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    digests = result["provenance"]["output_sha256"]
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"  sha256 over the {len(digests)} output digests: {combined}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "avstitch" / "__init__.py").is_file():
        print(f"no avstitch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            report(workload, results[workload])
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
