"""Run the benchmark over several seeds and summarise its spread.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline.json

Runs ``run.py`` once per workload of BENCHMARK.json and seed with tracing
off, then once per workload with tracing on (first seed), one process at a
time. For every
end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread: the distance between
the quartiles as a share of the median, next to the bound BENCHMARK.json
sets. The summary, the raw values and the machine block go to ``--out``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else float("inf")}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=pathlib.Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, 0)
            if not res["correct"] or res["failed"]:
                raise RuntimeError("%s seed %d: output check failed" % (workload, seed))
            runs.append(res)
            print("%s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        stats = {}
        print("\n%s (%d runs of %d s)" % (workload, len(runs), args.seconds))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = dict(spread(values), unit=runs[0]["metrics"][name]["unit"],
                     bound=bound, values=values)
            stats[name] = s
            worst = max(worst, s["spread"] / bound)
            print("  %-24s median %14.6g %-6s spread %7.4f  bound %.3f%s"
                  % (name, s["median"], s["unit"], s["spread"], bound,
                     "" if s["spread"] < bound / 3 else "  <- above a third of bound"))
        summary["workloads"][workload] = {
            "end_to_end": stats,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer": run_once(workload, args.seeds[0], args.seconds, 1)["metrics"]}
    record = HERE / "out" / ("%s-seed%d-trace0.json" % (workload, args.seeds[-1]))
    summary["machine"] = json.loads(record.read_text(encoding="utf-8"))["machine"]
    print("\nworst spread as a share of its bound: %.3f" % worst)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
