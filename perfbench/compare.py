#!/usr/bin/env python3
"""Compare two perfbench results of one workload.

    python3 perfbench/compare.py BASE.json NEW.json

BASE and NEW are result files that run.py writes to
.bench_build/perfbench/results/. For every metric the report shows both
values, the change in the metric's worse direction, and, for end-to-end
metrics, whether that change exceeds the bound in BENCHMARK.json.

Refuses to compare (exit 2) when either result comes from an unoptimized or
sanitizer build, or when the two differ in workload, seed, run length, trace
mode, core count, workers, build type or compiler. Exits 1 when an
end-to-end metric got worse by more than its bound, else 0.

One pair of runs shows a difference, not a gain: a claim needs repeated
pairs on the same machine (see the choosing-metrics method in README.md).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SAME = ("workload", "seed", "seconds", "trace", "nproc", "workers",
        "build_type", "compiler")


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    refused = []
    for name, result in (("BASE", base), ("NEW", new)):
        if not result["context"]["reliable"]:
            refused.append("%s is unreliable: %s" % (
                name, "; ".join(result["context"]["unreliable_reasons"])))
    for key in SAME:
        if base["context"][key] != new["context"][key]:
            refused.append("%s differs: %r vs %r" % (
                key, base["context"][key], new["context"][key]))
    if refused:
        for reason in refused:
            print("refusing to compare: " + reason, file=sys.stderr)
        return 2

    spec = load(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_beyond_bound = 0
    print("%-28s %14s %14s %9s %7s" % ("metric", "base", "new", "worse by",
                                       "bound"))
    for name, b in base["metrics"].items():
        if name not in new["metrics"] or name not in metrics:
            continue
        bv, nv = b["value"], new["metrics"][name]["value"]
        sign = -1.0 if metrics[name]["better"] == "higher" else 1.0
        worse = sign * (nv - bv) / abs(bv) if bv else 0.0
        bound = metrics[name].get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag = "  WORSE THAN BOUND"
            worse_beyond_bound += 1
        print("%-28s %14.6g %14.6g %8.1f%% %7s%s" % (
            name, bv, nv, 100.0 * worse,
            "" if bound is None else "%.0f%%" % (100.0 * bound), flag))
    return 1 if worse_beyond_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
