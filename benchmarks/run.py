"""snapflow benchmark: end-to-end and per-layer numbers for two workloads.

    python3 benchmarks/run.py [--workload drift-train|drift-eval|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. BLAS is pinned to ``BLAS_THREADS`` threads before numpy is
imported; malloc keeps glibc's defaults, so the figures include what the
program's allocation pattern costs a user's process. Each workload runs in
a process of its own (``--workload all`` starts one child per workload).
It repeats its unit of work while another unit as long as the last one
still fits in ``--seconds``; at least one unit runs, so drift-train, whose
unit is one fit of about 40 s, runs one. Before every unit and after the
last, the workload sets up ``setup_reps`` times in a row, and the run
reports the median over those blocks of the mean set-up time.

End-to-end metrics (``--trace 0``), over the units of one run:

    setup_s        set-up seconds, median of the blocks' means
    unit_s         mean seconds per unit: one fit (drift-train: fit_s), or
                   one snapflow evaluate + predict pass (drift-eval)
    items_per_s    Phase II steps per second (drift-train:
                   train_steps_per_s) or predicted cells x query times per
                   second of snapflow predict (drift-eval:
                   predict_cells_per_s), total work over total time
    peak_rss_mb    peak resident set size of the workload's process

Unit times are averaged, not taken at the median: drift-eval's first unit
in a process is its slowest, and a shared 2-vCPU VM can switch between
two speeds some 25% apart for stretches of seconds; a mean moves smoothly
with the share of each where a median jumps from one to the other.

The summary lines also give eval_s (seconds in evalkit.evaluate), the
minor page faults per unit (minor_faults; see "Allocator" in
results/BENCH_0.md) and the held-out debiased W / naive W ratios of the
interpolation and extrapolation holdouts. The ratios are quality, not
speed: a solver change that is correct may move them, so they are
per-layer metrics without a bound, and drift-train instead fails a unit
whose ratios miss the acceptance gates (0.6 and 0.8).

Operations are units of work; one fails when it raises or an output check
fails, and ``failed / attempted`` is the failed fraction. With ``--trace 1``
every call into the package's modules is wrapped in a span and the run
reports the per-layer metrics of ``layers.PER_LAYER`` instead. A metric
with no recorded call, on this workload or because its hook target is
gone, reads 0 in the last line, is printed as "absent" in the summary
lines and is listed under ``absent`` in the results file.

Results go to ``benchmarks/out/<workload>-seed<N>-trace<T>.json``, spans of
a traced run to ``...-spans.jsonl``; ``summarize.py`` folds result files
into medians and quartiles, and gives the tracing overhead as the traced
runs' end-to-end medians minus the untraced runs'. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# drift-train's fit took 39.6/38.7 s on 1 thread and 38.5/38.1 s on 2: a
# second thread buys about 2%, inside the run-to-run noise
BLAS_THREADS = 1
# the keys of workloads.WORKLOADS, which imports numpy
WORKLOAD_NAMES = ("drift-train", "drift-eval")
E2E = [("setup_s", "s"), ("unit_s", "s"), ("items_per_s", "1/s"),
       ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=str(HERE / "out"))
    return p.parse_args(argv)


def pin_threads():
    n = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def environment(threads):
    import numpy as np

    # a checkout without .git has no SHA; do not let git look above ROOT
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             text=True, capture_output=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "snapflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("SNAPFLOW_THREADS",)},
        "machine": platform.machine(),
    }


def run_workload(cls, seed, seconds, trace, out_dir):
    """One workload in this process; returns the results record."""
    import layers
    from spans import Tracer

    run_id = uuid.uuid4().hex[:12]
    tracer = Tracer(run_id)
    layers.install_timing_hooks(tracer)
    if trace:
        layers.install_layer_hooks(tracer)
    work = out_dir / f"work-{cls.name}-{run_id}"
    wl = cls(seed, work)
    attempted = failed = 0
    failures = []
    measures = []
    setups = []

    def setup_block():
        # a fixed number of set-ups, so every block times the same work
        with tracer.span("bench.setup") as sp:
            for _ in range(cls.setup_reps):
                wl.setup()
        setups.append(sp.seconds / cls.setup_reps)

    try:
        start = time.perf_counter()
        while True:
            setup_block()
            attempted += 1
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with tracer.span("bench.unit") as sp:
                try:
                    m, problems = wl.unit(tracer)
                except Exception as exc:  # a failed operation, reported below
                    m, problems = {}, [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                failures.append({"unit": attempted, "problems": problems})
            else:
                m["minor_faults"] = \
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                measures.append(m)
            # stop before a unit that would end past the window
            if time.perf_counter() - start + sp.seconds > seconds:
                break
        setup_block()
    finally:
        tracer.unhook()
        wl.cleanup()
    keys = sorted({k for m in measures for k in m} - {"items", "items_s"})
    e2e = {k: statistics.fmean(m[k] for m in measures if k in m) for k in keys}
    if measures:
        e2e["items_per_s"] = (sum(m["items"] for m in measures)
                              / sum(m["items_s"] for m in measures))
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"workload": cls.name, "seed": seed, "trace": trace,
              "seconds": seconds, "run_id": run_id, "attempted": attempted,
              "failed": failed, "failures": failures, "units": measures,
              "setup_s_blocks": setups, "e2e": e2e, "aliases": cls.aliases}
    if trace:
        per_layer = layers.per_layer_metrics(tracer, max(attempted, 1))
        for key in ("interp_w_ratio", "extrap_w_ratio"):
            per_layer[f"evalkit.{key}"] = e2e.get(key)
        per_layer["process.minor_faults"] = e2e.get("minor_faults")
        record["per_layer"] = per_layer
        record["absent"] = sorted(k for k, v in per_layer.items() if v is None)
        record["absent_hooks"] = tracer.absent
        record["spans"] = tracer.summary()
        tracer.dump(out_dir / f"{cls.name}-seed{seed}-spans.jsonl")
    return record


def fmt(v):
    return "absent" if v is None else f"{v:.6g}"


def print_summary(record, per_layer_spec):
    name = record["workload"]
    e2e = record["e2e"]
    units = dict(E2E, eval_s="s", interp_w_ratio="ratio", extrap_w_ratio="ratio",
                 minor_faults="count")
    for key, value in e2e.items():
        alias = record["aliases"].get(key)
        label = key if alias is None else f"{key} ({alias})"
        print(f"{name:12s} {label:36s} {fmt(value)} {units.get(key, '')}")
    frac = record["failed"] / max(record["attempted"], 1)
    print(f"{name:12s} {'failed_frac':36s} {frac:.6g} "
          f"({record['failed']}/{record['attempted']} ops)")
    for f in record["failures"]:
        print(f"{name:12s} FAILED unit {f['unit']}: {'; '.join(f['problems'])}")
    if record["trace"]:
        for key, unit in per_layer_spec:
            print(f"{name:12s} {key:44s} {fmt(record['per_layer'][key])} {unit}")
        for target, why in record["absent_hooks"].items():
            print(f"{name:12s} hook {target}: {why}")


def metrics_line(record, per_layer_spec):
    if record["trace"]:
        wanted = per_layer_spec
        values = record["per_layer"]
    else:
        wanted = E2E
        values = record["e2e"]
    # the result line holds exactly a value and a unit per metric; a layer
    # with no recorded call reads 0 here and is named in the results file's
    # "absent" list and the summary lines
    return {key: {"value": 0.0 if values.get(key) is None else values[key],
                  "unit": unit} for key, unit in wanted}


def run_children(args):
    """``--workload all``: each workload in a child process, one at a time."""
    records = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        records.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in records),
        "attempted": sum(r["attempted"] for _, r in records),
        "failed": sum(r["failed"] for _, r in records),
        "metrics": {f"{name}/{k}": v for name, r in records
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None):
    # numpy, snapflow and the benchmark modules that import them are imported
    # only after the thread count is pinned and src/ is on the path
    args = parse_args(argv)
    threads = pin_threads()
    src = ROOT / "src"
    if not (src / "snapflow" / "__init__.py").is_file():
        print(f"error: no snapflow sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_children(args)
    sys.path.insert(0, str(src))
    import snapflow

    if Path(snapflow.__file__).resolve().parent != (src / "snapflow").resolve():
        print(f"error: imported snapflow from {snapflow.__file__}", file=sys.stderr)
        return 2
    import layers
    import workloads

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.workload
    record = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                          args.trace, out_dir)
    record["env"] = environment(threads)
    path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_summary(record, layers.PER_LAYER)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics_line(record, layers.PER_LAYER)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
