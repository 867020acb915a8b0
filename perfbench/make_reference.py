"""Rebuild reference.json: per-channel RMSE of every filter, default seeds.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs each workload once per default seed with an empty reference, so the
checks that remain are the invariants, and records the RMSE tables the
workloads' checks produce. Regenerate it only in a change that is meant to
alter what the filters compute, and say so in that change.
"""

import json
import shutil
import sys

import run

DEFAULT_SEEDS = range(20)


def main():
    run.load_program()
    import checks
    import workloads

    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "reference-work"
    workdir.mkdir(exist_ok=True)
    out = {"rtol": checks.RTOL, "seeds": list(DEFAULT_SEEDS)}
    try:
        for name, cls in workloads.WORKLOADS.items():
            tables = {}
            for seed in DEFAULT_SEEDS:
                wl = cls(seed, workdir, reference={})
                wl.setup()
                res = wl.operation(1)
                wl.probe(res)
                bad = wl.check(res)
                if bad:
                    print("\n".join(bad), file=sys.stderr)
                    return 1
                tables.update(res["tables"])
                print("%s seed %d done" % (name, seed), flush=True)
            out[name] = tables
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
