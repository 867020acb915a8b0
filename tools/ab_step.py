"""Time filter steps of an earlier revision against this working tree, in
one process.

Usage, from the root of a checkout:

    python3 tools/ab_step.py PARENT_REV [--pairs N] [--steps N]

Clones this repository at PARENT_REV into a temporary directory, imports
its package beside this tree's under another name, and replays seed 0's
first STEPS (control, measurement) pairs, as the closed loop hands them to
its filters, through three filters from each side: the QUKF (n=19), the
QUKF padded to n=99 (pad_dims=80, as the benchmark's wide replay) and the
EKF. Each pair times one fresh filter per side, the two sides alternating
which goes first, and each step separately. A side's figure for a pair is
the median of its quiet pool, the steps of its five fastest 50-step blocks
(as perfbench's ``quiet``), so host noise that slows whole stretches of a
run drops out. Prints per filter each side's median over the pairs with
its quartiles, each pair's ratio change/parent, and the number of pairs
the change won. BLAS is pinned to one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCK, QUIET_BLOCKS = 50, 5
CASES = (("qukf n=19", "QuaternionUkf", {}),
         ("qukf n=99", "QuaternionUkf", {"pad_dims": 80}),
         ("ekf", "ExtendedKalman", {}))


def load_package(src, name):
    """Import the aerowrench package under src as module ``name`` (its
    relative imports resolve inside it), with the modules replayed here."""
    init = pathlib.Path(src) / "aerowrench" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return [importlib.import_module(name + m)
            for m in (".dynamics", ".estimation", ".simulation")]


def replay_inputs(dyn, est, run, steps):
    """A run's controls and measurements as one side's classes, as the
    closed loop hands them to its filters: the filter at step k predicts
    with the control of step k - 1 (hover at k = 0)."""
    controls = [dyn.ControlInput.hover(dyn.SystemParams())]
    controls += [dyn.ControlInput(thrust=float(c[0]), moments=c[1:4].copy())
                 for c in run.controls[:steps - 1]]
    meas = [est.Measurement(q=z[0:4].copy(), r=z[4:7].copy(), omega=z[7:10].copy())
            for z in run.measurements[:steps]]
    return list(zip(controls, meas))


def timed_steps(est, cls, kwargs, inputs):
    f = getattr(est, cls)(**kwargs)
    out = np.empty(len(inputs))
    clock = time.perf_counter
    for k, (u, z) in enumerate(inputs):
        tic = clock()
        f.step(u, z)
        out[k] = clock() - tic
    return out


def quiet_median(samples):
    """Median of the QUIET_BLOCKS fastest BLOCK-step blocks."""
    nb = samples.size // BLOCK
    blocks = samples[:nb * BLOCK].reshape(nb, BLOCK)
    fastest = np.argsort(np.median(blocks, axis=1), kind="stable")[:QUIET_BLOCKS]
    return float(np.median(blocks[fastest]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--pairs", type=int, default=12)
    ap.add_argument("--steps", type=int, default=400)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.steps < BLOCK * QUIET_BLOCKS:
        ap.error("need at least one pair and %d steps" % (BLOCK * QUIET_BLOCKS))

    with tempfile.TemporaryDirectory() as work:
        clone = pathlib.Path(work) / "parent"
        subprocess.run(["git", "clone", "-q", str(ROOT), str(clone)], check=True)
        subprocess.run(["git", "-C", str(clone), "checkout", "-q", args.parent_rev],
                       check=True)
        mods = {"parent": load_package(clone / "src", "aerowrench_parent"),
                "change": load_package(ROOT / "src", "aerowrench_change")}
    # One set of inputs, from this tree's simulator, for both sides.
    run = mods["change"][2].run_scenario(seed=0, duration=args.steps * 0.01)
    est = {side: m[1] for side, m in mods.items()}
    inputs = {side: replay_inputs(dyn, e, run, args.steps)
              for side, (dyn, e, _) in mods.items()}

    print("%s (parent) against the working tree: %d pairs of %d steps, seed 0;"
          " us per step, quiet median" % (args.parent_rev, args.pairs, args.steps))
    for label, cls, kwargs in CASES:
        for side in est:  # warm caches and lazy set-up on both sides
            timed_steps(est[side], cls, kwargs, inputs[side][:BLOCK])
        med = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                med[side].append(1e6 * quiet_median(
                    timed_steps(est[side], cls, kwargs, inputs[side])))
        ratios = np.array(med["change"]) / np.array(med["parent"])
        won = int(np.sum(ratios < 1.0))
        for side in ("parent", "change"):
            q1, q2, q3 = np.percentile(med[side], [25, 50, 75])
            print("  %-10s %-6s median %8.1f  quartiles %8.1f %8.1f"
                  % (label, side, q2, q1, q3))
        print("  %-10s ratios %s" % (label, " ".join("%.3f" % r for r in ratios)))
        print("  %-10s median ratio %.3f, change faster in %d of %d pairs"
              % (label, float(np.median(ratios)), won, args.pairs))


if __name__ == "__main__":
    main()
