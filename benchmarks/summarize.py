"""Fold result files of run.py into one BENCH file of medians and quartiles.

    python3 benchmarks/summarize.py OUT.json RESULT.json [RESULT.json ...]

Groups the results by workload and by traced or untraced run, and gives for
each metric the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance over median) and the seeds it came from. The
difference between ``e2e_traced`` and ``e2e`` is the tracing overhead.
"""

import json
import statistics
import sys
from pathlib import Path


def fold(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv):
    out, paths = argv[0], argv[1:]
    records = [json.loads(Path(p).read_text()) for p in paths]
    groups = {}
    for r in records:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    bench = {"env": records[0]["env"], "workloads": {}}
    for (workload, trace), rs in sorted(groups.items()):
        entry = bench["workloads"].setdefault(workload, {})
        # traced runs also measure the end-to-end numbers, with tracing cost
        sections = {"per_layer": "per_layer", "e2e_traced": "e2e"} if trace \
            else {"e2e": "e2e"}
        for section, key in sections.items():
            names = sorted({k for r in rs for k in r[key]})
            entry[section] = {k: fold([r[key].get(k) for r in rs]) for k in names}
        run = "traced" if trace else "untraced"
        entry[f"{run}_seeds"] = sorted(r["seed"] for r in rs)
        entry[f"{run}_failed"] = sum(r["failed"] for r in rs)
        entry[f"{run}_attempted"] = sum(r["attempted"] for r in rs)
    Path(out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    for workload, entry in bench["workloads"].items():
        for name, f in entry.get("e2e", {}).items():
            if f:
                traced = entry.get("e2e_traced", {}).get(name)
                overhead = "" if not traced else \
                    f" traced {traced['median'] - f['median']:+.4g}"
                print(f"{workload:12s} {name:16s} median {f['median']:.6g} "
                      f"spread {f['spread']:.3f} (n={f['n']}){overhead}")


if __name__ == "__main__":
    main(sys.argv[1:])
