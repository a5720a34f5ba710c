"""One workload in a fresh process: set up, run timed passes, report.

``run.py`` starts this with the thread-count and hash-seed environment
pinned, stdout and stderr sent to files, and ``src`` first on the path; it
writes ``result.json`` (metrics plus the run's provenance record) into the
directory given by ``--out``.  With ``--trace 1`` untraced and traced passes
alternate, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import avstitch.cli; print(time.perf_counter() - t)"
MIN_TIMED_CONTEXTS = 1000  # so that p99 has at least 10 samples beyond it
MIN_PASSES = 4  # timed passes per side, so that quartiles exist
ROOT = Path(__file__).resolve().parent.parent


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the data."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _import_seconds() -> float:
    """Import time of avstitch and its CLI, in a fresh interpreter each time."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def _enough(timed: dict[bool, list], tracer, args) -> bool:
    """Stop once the timed operations fill the run and every sample floor is met."""
    sides = (False, True) if tracer is not None else (False,)
    if sum(q.seconds for side in sides for q in timed[side]) < args.seconds:
        return False
    if any(len(timed[side]) < MIN_PASSES for side in sides):
        return False
    return args.workload != "ctx_loader" or all(
        sum(len(q.latencies_ms) for q in timed[side]) >= MIN_TIMED_CONTEXTS for side in sides)


def _provenance(args, avstitch, sizes: dict, digests: dict[str, str], input_digest: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 prints instead
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):  # no git here: the source digest still identifies the code
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "input_sha256": input_digest,
        "output_sha256": digests,
        "avstitch_version": avstitch.__version__,
        "avstitch_path": str(Path(avstitch.__file__).resolve().parent.relative_to(ROOT)),
        "src_sha256": src.hexdigest(),
        "git_commit": commit,
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS") or k == "PYTHONHASHSEED"},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import avstitch
    import avstitch.cli  # noqa: F401  (the package does not import its CLI)
    if not Path(avstitch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"avstitch imported from {avstitch.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the CLI configures logging the same way on its first call; doing it
    # here makes parse_response's warnings go to stderr from the first pass
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = args.out / "data"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    setup_times, input_digests = [], []

    def set_up() -> None:
        import_s = _import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(import_s + time.perf_counter() - t0)
        input_digests.append(workload.input_digest())

    set_up()
    failures: list[str] = []
    attempted = 1  # the generator's determinism, checked over every set-up

    tracer = tracing.Tracer() if args.trace else None
    timed = {False: [], True: []}  # traced? -> timed passes; pass 0 is the checked warm-up
    index = 0
    while index == 0 or not _enough(timed, tracer, args):
        done_s = sum(q.seconds for side in timed.values() for q in side)
        if index > 0 and len(setup_times) < SETUP_REPEATS and done_s >= len(setup_times) * args.seconds / SETUP_REPEATS:
            set_up()  # the repeats are spread over the run, so that no one host phase sets their median
        traced = tracer is not None and index > 0 and index % 2 == 0
        gc.collect()  # every pass starts from the same heap state
        if traced:
            tracer.run_id = f"{args.workload}-seed{args.seed}-pass{index}"
            tracer.install()
        try:
            p = workload.run_pass(index)
        finally:
            if traced:
                tracer.uninstall()
        attempted += p.attempted
        failures += p.failures
        if traced:
            tracer.counts.update(p.counts)
        if index > 0:
            timed[traced].append(p)
        index += 1

    while len(setup_times) < SETUP_REPEATS:
        set_up()
    if len(set(input_digests)) != 1:
        failures.insert(0, "setup: the generator gave different inputs for one seed")
    untraced = timed[False]
    pass_seconds = [q.seconds for q in untraced]
    if tracer is None:
        latencies = [x for q in untraced for x in q.latencies_ms]
        values = {
            "setup_s": statistics.median(setup_times),
            # the rate three passes in four reach: on a shared host, fast
            # phases come and go, and this quartile tracks the sustained
            # speed more steadily than the median does
            "items_per_s": _quantile([q.items / q.seconds for q in untraced], 25),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - len(failures) / attempted,
            # the slow side again, for the same reason; the upper quartile
            # rather than p90, since a run has only 8 to 20 passes
            "latency_p75_ms": _quantile(latencies, 75),
        }
        samples = {"setup_s": SETUP_REPEATS, "items_per_s": len(untraced), "peak_rss_mb": 1,
                   "success_rate": attempted, "latency_p75_ms": len(latencies)}
        # printed but not in BENCHMARK.json: the median flips between the
        # host's fast and slow phases, and p90 and p99 rest on a few samples,
        # so their run-to-run spread exceeds the largest bound allowed
        extra = {f"latency_p{q}_ms": {"value": _quantile(latencies, q), "unit": "ms"} for q in (50, 90, 99)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        traced = timed[True]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = tracer.metrics(len(traced), list(units))
        traced_median = statistics.median(q.seconds for q in traced)
        untraced_median = statistics.median(pass_seconds)
        values["trace.overhead_s"] = traced_median - untraced_median
        values["trace.overhead_frac"] = (traced_median - untraced_median) / untraced_median
        values["trace.spans_per_pass"] = len(tracer.spans) / len(traced)
        tracer.write(args.out / "spans.jsonl")
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
        extra = {}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "samples": samples,
        "unbounded_metrics": extra,
        "setup_seconds": setup_times,
        "pass_seconds": {"untraced": pass_seconds, "traced": [q.seconds for q in timed[True]]},
        "provenance": _provenance(args, avstitch, workloads.SIZES[args.workload], workload.digests,
                                  input_digests[0]),
    }
    (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
