"""aerowrench benchmark: run one workload in this process, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 60 --trace 0

The program is imported from the checkout's own ``src`` directory; without
it the benchmark exits with status 2 and prints no result. BLAS is pinned
to one thread before numpy loads. With ``--trace 0`` the last stdout line
is a JSON object with every end-to-end metric; with ``--trace 1`` it holds
the per-layer metrics of the traced run instead. A fuller record (machine
block, set-up samples, any check failures) goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``, and the traced run's
spans to ``perfbench/out/spans-<workload>-seed<n>.npz``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 11  # set-ups per run: this process plus ten fresh ones,
                    # the fresh ones spread over the measuring window
MIN_OPS = 4         # at least two plain and two traced operations
CHILD_TIMEOUT_S = 120
MAX_LOGGED_PROBLEMS = 20

clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("closed_loop", "seed_study"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and exit")
    return ap.parse_args(argv)


def load_program():
    """Import aerowrench from this checkout's src, or exit with status 2.

    BLAS is pinned first: the thread count is read when numpy loads, and
    set-up children inherit the setting.
    """
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "aerowrench" / "__init__.py").is_file():
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import aerowrench
    if pathlib.Path(aerowrench.__file__).resolve().parent != SRC / "aerowrench":
        print("perfbench: imported aerowrench from %s, not %s"
              % (aerowrench.__file__, SRC), file=sys.stderr)
        raise SystemExit(2)


def child_setup_s(args):
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError("set-up child failed:\n%s" % done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, seconds, tracer, side_jobs=()):
    """Repeat the workload's operation for `seconds`; check every result.

    With a tracer, even-numbered operations are traced and odd ones are
    not, so both halves see the same machine conditions. side_jobs run
    between operations, spread evenly over the window, so that what they
    time sees the same mix of host load as the operations.
    """
    jobs = list(side_jobs)
    spacing = seconds / max(len(jobs), 1)
    state = {"results": [], "operations": 0, "attempted": 0, "failed": 0, "problems": [],
             "traced_ids": [], "traced": [], "plain": []}
    start = clock()
    deadline = start + seconds
    op_id = 0
    while op_id < MIN_OPS or clock() < deadline:
        if jobs and clock() - start >= (len(side_jobs) - len(jobs)) * spacing:
            jobs.pop(0)()
        op_id += 1
        state["operations"] = op_id
        traced = tracer is not None and op_id % 2 == 0
        gc.collect()  # every operation starts from the same heap state
        try:
            if traced:
                tracer.run_id = op_id
                tracer.install()
            try:
                res = wl.operation(op_id)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            wl.probe(res)
            bad = wl.check(res)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            state["attempted"] += wl.attempts_per_op
            state["failed"] += wl.attempts_per_op
            state["problems"].append("operation %d raised" % op_id)
            continue
        state["attempted"] += res["attempted"]
        if bad:  # still timed: the run reports correct=false with its metrics
            state["failed"] += res["attempted"]
            state["problems"] += bad
        state["results"].append(res)
        if tracer is None:
            continue
        if traced:
            state["traced_ids"].append(op_id)
            state["traced"].append(res)
        else:
            state["plain"].append(res)
    for job in jobs:
        job()
    return state


def main(argv=None):
    args = parse_args(argv)
    load_program()
    import machine
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%d" % os.getpid())
    workdir.mkdir(exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        own_setup = clock() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_samples = [own_setup]
        jobs = [] if tracer else [
            lambda: setup_samples.append(child_setup_s(args))] * (SETUP_SAMPLES - 1)
        state = measure(wl, args.seconds, tracer, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = state["results"]
    if not results or (tracer is not None
                        and not (state["traced"] and state["plain"])):
        print("perfbench: too few operations completed", file=sys.stderr)
        for p in state["problems"][:MAX_LOGGED_PROBLEMS]:
            print("  " + p, file=sys.stderr)
        return 1
    for p in state["problems"][:MAX_LOGGED_PROBLEMS]:
        print("check failed: " + p, file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = wl.metrics(results, statistics.median(setup_samples), peak_rss_mb,
                             state["attempted"], state["failed"])
    else:
        metrics = tracing.layer_metrics(tracer, state["traced_ids"],
                                        [r["wall"] for r in state["traced"]])
        metrics["trace.overhead_us_per_step"] = (
            wl.step_us(state["traced"]) - wl.step_us(state["plain"]), "us")
        tracer.save(OUT / ("spans-%s-seed%d.npz" % (args.workload, args.seed)))

    values = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    summary = {
        "correct": state["failed"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: v for k, v in values.items() if k not in workloads.INFORMATIONAL},
    }
    record = dict(summary, workload=args.workload, seed=args.seed,
                  informational={k: values[k] for k in workloads.INFORMATIONAL
                                 if k in values},
                  seconds=args.seconds, trace=args.trace,
                  operations=state["operations"],
                  setup_samples_s=setup_samples,
                  problems=state["problems"][:MAX_LOGGED_PROBLEMS],
                  machine=machine.machine_info(BLAS_ENV))
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for name, m in values.items():
        print("%-36s %16.6f %s%s" % (name, m["value"], m["unit"],
                                     "  (not bounded)" if name in workloads.INFORMATIONAL else ""))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
