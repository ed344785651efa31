#!/usr/bin/env python3
"""cbtk benchmark: one seeded workload, timed in a closed loop, then checked.

    python3 perfbench/run.py --workload threshold-sweep --seed 0 --seconds 20 --trace 0

cbtk is imported from the ``src`` directory of the checkout that holds this
file, and from nowhere else; without it the benchmark exits with code 2.

A run is a sequence of episodes.  Each episode is a fixed list of items run
in a fresh process (cold caches, no warm-up, as every ``cbtk`` command
starts), by one caller that issues the next item only after the previous
one returned.  Episodes follow one another until their timed phases add up
to ``--seconds``.  Each episode's process also times its own
``import cbtk``, which gives the set-up samples.  After its timed phase the
episode checks every output against an oracle and, for the seeds in
``golden.json``, episode 0 against committed digests.  Reported times are
scaled by the host's speed, measured in each episode with a reference loop
that runs no cbtk code (see REFERENCE_S).

The next-to-last line of stdout records the environment and the details
behind the metrics; the last line is the result object with keys correct,
attempted, failed and metrics.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` runs every episode twice, untraced and then with
spans around each layer, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/spans-<workload>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, set before numpy is imported: the load model has one
# caller and no extra threads, no workload calls BLAS (every matrix is
# int64), and starting OpenBLAS's second thread made `import cbtk` swing
# between 0.10 and 0.19 s with the other CPU's load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


# This machine's own speed drifts by up to a third within minutes (measured
# with a fixed loop and with the fixed-work import), more than any bound a
# regression check could use.  So every episode also times a fixed
# reference loop that runs no cbtk code, before its first item, and the
# reported times are scaled by the run's median reference time over
# REFERENCE_S, the loop's time on the baseline machine.  The unscaled
# values are in the record.
REFERENCE_S = 0.0065
REFERENCE_REPEATS = 16


def _reference_loop() -> None:
    import numpy as np
    acc: dict[tuple[int, int], int] = {}
    for i in range(12000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * i % 7
    a = np.arange(100 * 84, dtype=np.int64).reshape(100, 84) % 101
    for _ in range(40):
        a[1:] = (3 * a[1:] - np.outer(a[1:, 0], a[0])) % 101


def reference_seconds() -> list[float]:
    """Timings of the reference loop, one per repeat."""
    out = []
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        _reference_loop()
        out.append(perf_counter() - start)
    return out


def import_cbtk():
    """Import cbtk from this checkout's src, or exit with code 2."""
    if not (SRC / "cbtk" / "__init__.py").is_file():
        print(f"perfbench: no cbtk sources at {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cbtk
    if Path(cbtk.__file__).resolve().parent != (SRC / "cbtk").resolve():
        print(f"perfbench: imported cbtk from {cbtk.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return cbtk


def timed_items(workload, items: list, tracer=None) -> tuple[list, list, list, float]:
    """Call each item in turn; return outputs, errors, latencies and elapsed time."""
    outputs, errors, latencies = [], [], []
    t0 = perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.current_item = i
        start = perf_counter()
        try:
            output, error = workload.call(item), None
        except Exception as exc:  # a raising item is a failed item, not a crash
            output, error = None, f"{type(exc).__name__}: {exc}"[:200]
        latencies.append(perf_counter() - start)
        outputs.append(output)
        errors.append(error)
    return outputs, errors, latencies, perf_counter() - t0


def _passes(workload, item, output) -> bool:
    try:
        return bool(workload.check(item, output))
    except Exception:  # a malformed output fails its check
        return False


def check_episode(workload, seed: int, episode: int, items: list, outputs: list,
                  errors: list) -> tuple[set[int], str | None]:
    """Indices of failed items, and the golden-digest tally for episode 0."""
    from workloads import digest
    failing = {i for i, error in enumerate(errors) if error is not None}
    failing |= {i for i, (item, out) in enumerate(zip(items, outputs))
                if i not in failing and not _passes(workload, item, out)}
    if workload.sample_check is not None:
        failing |= workload.sample_check(seed, episode, items, outputs)
    golden = json.loads((HERE / "golden.json").read_text()).get(workload.name, {})
    expected = golden.get(str(seed)) if episode == 0 else None
    if not expected:
        return failing, None
    mismatched = {i for i, want in enumerate(expected)
                  if i >= len(outputs) or outputs[i] is None
                  or digest(workload, outputs[i]) != want}
    failing |= {i for i in mismatched if i < len(items)}
    return failing, f"{len(expected) - len(mismatched)}/{len(expected)}"


def run_episode(name: str, seed: int, episode: int, trace: bool) -> dict:
    """One episode, in a fresh process: import, timed items, checks."""
    t0 = perf_counter()
    import_cbtk()
    setup_s = perf_counter() - t0
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    items = workload.episode(seed, episode)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    reference = reference_seconds()
    with tracer or nullcontext():
        outputs, errors, latencies, timed_s = timed_items(workload, items, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failing, golden = check_episode(workload, seed, episode, items, outputs, errors)
    return {"items": len(items), "setup_s": setup_s, "timed_s": timed_s, "reference": reference,
            "latencies": latencies, "peak_rss_mb": peak_rss_mb, "failing": sorted(failing),
            "errors": sorted({e for e in errors if e})[:5], "golden": golden,
            "spans": tracer.spans if tracer else None}


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(math.ceil(pct / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def _rate(episodes: list[dict]) -> float:
    return sum(e["items"] for e in episodes) / sum(e["timed_s"] for e in episodes)


def environment() -> dict:
    import numpy as np
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numba": numba_version, "nproc": NPROC, "cpu": cpu, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": commit}


def _episode_in_subprocess(args: argparse.Namespace, episode: int, trace: bool) -> dict:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(trace)), "--episode", str(episode)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=170)
    return pickle.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episode", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.episode is not None:  # the worker side of _episode_in_subprocess
        result = run_episode(args.workload, args.seed, args.episode, bool(args.trace))
        sys.stdout.buffer.write(pickle.dumps(result))
        return 0

    import_cbtk()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # Every episode gets a fresh process; an untraced episode precedes each
    # traced one, on the same items, to measure the tracing overhead.
    kinds = (False, True) if args.trace else (False,)
    runs: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    measured = runs[bool(args.trace)]
    while not measured or sum(e["timed_s"] for e in measured) < args.seconds:
        for kind in kinds:
            runs[kind].append(_episode_in_subprocess(args, len(runs[kind]), kind))

    episodes = [e for kind in kinds for e in runs[kind]]
    attempted = sum(e["items"] for e in episodes)
    failed = sum(len(e["failing"]) for e in episodes)
    gate = workload.gate()
    latencies = [x for e in measured for x in e["latencies"]]
    tail_s, beyond = percentile(latencies, workload.tail_pct)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "load": "closed loop, 1 caller, fresh process per episode",
              "episodes": len(measured), "timed_s": sum(e["timed_s"] for e in measured),
              "samples": len(latencies), "tail_percentile": workload.tail_pct,
              "samples_beyond_tail": beyond,
              "failed_share": failed / attempted,
              "failed_items": [(k, i) for k, e in enumerate(episodes) for i in e["failing"]][:20],
              "errors": sorted({x for e in episodes for x in e["errors"]})[:5],
              "golden": runs[False][0]["golden"], **gate}
    correct = failed == 0 and record.pop("ok")

    if args.trace:
        from tracing import Spans
        spans, offset = Spans(), 0
        for k, e in enumerate(measured):
            spans.extend(e["spans"], k, offset)
            offset += e["items"]
        metrics = spans.metrics()
        untraced = _rate(runs[False])
        metrics["trace.overhead_share"] = ((untraced - _rate(measured)) / untraced, "ratio")
        metrics["failed_share"] = (failed / attempted, "ratio")
        record["spans"] = len(spans.layer)
        spans.write(HERE / "out" / f"spans-{args.workload}.tsv.gz")
    else:
        setup = [e["setup_s"] for e in measured]
        raw = {
            "items_per_s": (_rate(measured), "1/s"),
            "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "item_tail_ms": (1e3 * tail_s, "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }
        slowness = statistics.median(t for e in measured for t in e["reference"]) / REFERENCE_S
        metrics = {name: (value * slowness if name == "items_per_s" else value / slowness, unit)
                   for name, (value, unit) in raw.items()}
        metrics["peak_rss_mb"] = (statistics.median(e["peak_rss_mb"] for e in measured), "MiB")
        record["setup_samples_s"] = setup
        record["host_slowness"] = slowness
        record["unscaled"] = {name: value for name, (value, _) in raw.items()}
    record["env"] = environment()
    print("perfbench record:", json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
