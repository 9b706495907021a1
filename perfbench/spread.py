#!/usr/bin/env python3
"""Runs the benchmark on several seeds and checks its steadiness.

    python3 perfbench/spread.py run OUT.json [--seeds 1-10] [--workloads a,b]
    python3 perfbench/spread.py compare FIRST.json SECOND.json

`run` executes the command from BENCHMARK.json once per workload and seed
(tracing off, run_seconds each) and stores every result. `compare` prints,
for each workload and end-to-end metric, the median of each set and the
spread (interquartile distance over median, as statistics.quantiles gives
it), and marks a spread above the metric's bound or a second median worse
than the first by more than the bound. Run from the repository root.
"""
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(out, argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    names = opts.get("--workloads", ",".join(w["name"] for w in BENCH["workloads"])).split(",")
    results = {}
    for name in names:
        for seed in seeds(opts.get("--seeds", "1-10")):
            cmd = BENCH["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True, check=True)
            r = json.loads(p.stdout.strip().splitlines()[-1])
            print(name, seed, r["correct"], r["attempted"], r["failed"],
                  {k: round(v["value"], 4) for k, v in sorted(r["metrics"].items())}, flush=True)
            results.setdefault(name, []).append(r)
    json.dump(results, open(out, "w"), indent=1)


def summary(results):
    out = {}
    for name, rs in results.items():
        for m in BENCH["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in rs]
            q = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            out[name, m["name"]] = (med, (q[2] - q[0]) / med)
    return out


def compare(first, second):
    a, b = summary(json.load(open(first))), summary(json.load(open(second)))
    ok = True
    for m in BENCH["end_to_end"]:
        for name in sorted({k[0] for k in a}):
            (ma, sa), (mb, sb) = a[name, m["name"]], b[name, m["name"]]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flags = []
            if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
                flags.append("SPREAD")
            if worse > m["bound"]:
                flags.append("DRIFT")
            ok = ok and not flags
            print(f"{name:15s} {m['name']:20s} median {ma:11.5g} {mb:11.5g} "
                  f"spread {sa:.3f} {sb:.3f} bound {m['bound']:.2f} {' '.join(flags)}")
    return ok


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(0 if compare(sys.argv[2], sys.argv[3]) else 1)
    else:
        sys.exit(__doc__)
