"""Compare this working tree with an earlier revision, in one process.

Usage, from the root of a checkout:

    python3 tools/compare.py PARENT_REV determinism [SEED ...]
    python3 tools/compare.py PARENT_REV timing [--pairs N] [--steps N]

Clones this repository at PARENT_REV into a temporary directory (under
$TMPDIR when set) and imports its package beside this tree's, each under
its own name. Run as a script, it pins BLAS to one thread before numpy
loads.

determinism (exit status 1 if anything differs):
- `aerowrench run` with the default config for each seed (0 1 2 unless
  given), once with CSV and once with JSON-lines telemetry; telemetry.csv,
  metrics.json and telemetry.jsonl are compared byte for byte. When
  metrics.json differs, one line per filter gives the largest relative
  change of its RMSE entries, with the channel: the EKF's central
  differences magnify rounding about 1e6 times, which would hide the
  QUKF's change in one overall figure.
- run_study on seeds 0-2 for 5 s, the stacked path of the loop: every
  array of every run.
- Seed 0 for 5 s with both filters under a stiff, coupled admittance
  (the m_v, c_v and k_v of the admittance tests' stiff stack case): every
  array. The default k_v = 0 leaves the admittance map's
  position-to-velocity block zero, so the runs above never feed the
  reference's position into its velocity. The coupled matrices make every
  entry of the map's state block nonzero, so a new order of summation
  inside a row shows; isotropic ones would keep two nonzero terms per row.
- Seed 0's first 400 (control, measurement) pairs replayed through a QUKF
  padded to n=99 (pad_dims=80), as gate 9's sweep and the benchmark's
  wide replay step it: after every step, the first 19 state components,
  the live 18x18 covariance block and the NIS. Each side also checks that
  every other entry is inert: one exact 1 and exact zeros in the state,
  zeros in the covariance.
- Gate 5's set-up through the QUKF for 100 steps: no process noise and
  initial variance on position and velocity only, so the live block is
  singular and cov_sqrt takes its clamped eigendecomposition, which none
  of the runs above reaches; the state, covariance and NIS.
- The package's size in both trees, `cat src/aerowrench/*.py | wc -l`.

Each array comparison prints "identical" or, per array, its largest
difference over the array's largest magnitude. Entries that are zero in
exact arithmetic (in the gate-5 replay, attitude, rates and most cross
covariances) carry only rounding, so a scale per component would give them
figures near 1 after a rounding-only change; the array's scale keeps them
at rounding level.

timing: replays seed 0's first STEPS pairs, as the closed loop hands them
to its filters, through the QUKF (n=19), the QUKF padded to n=99 and the
EKF of each side. In each pair the two sides' fresh filters step in
alternating 20-step turns (BLOCK), and the side that goes first swaps from
pair to pair, so host drift falls on both sides alike. A pair's ratio is the
median over its turns of the change's block median over the parent's.
Prints per filter each side's quiet median (the median of the steps of its
five fastest 50-step blocks, as perfbench's ``quiet``) over the pairs with
quartiles, each pair's ratio, and the ratios' median and quartiles.
"""

import os

if __name__ == "__main__":  # imported, it leaves the environment alone
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BLOCK = 20  # steps a side takes per turn of a timing pair
QUIET, QUIET_BLOCKS = 50, 5
CASES = (("qukf n=19", "QuaternionUkf", {}),
         ("qukf n=99", "QuaternionUkf", {"pad_dims": 80}),
         ("ekf", "ExtendedKalman", {}))


def load_package(src, name):
    """Import the aerowrench package under src as module ``name`` (its
    relative imports resolve inside it), with the modules used here."""
    init = pathlib.Path(src) / "aerowrench" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    for mod in ("cli", "dynamics", "estimation", "quat", "simulation"):
        importlib.import_module("%s.%s" % (name, mod))
    return sys.modules[name]


def replay_inputs(pkg, run, steps):
    """A run's controls and measurements as pkg's classes, as the closed
    loop hands them to its filters: the filter at step k predicts with the
    control of step k - 1 (hover at k = 0)."""
    dyn, est = pkg.dynamics, pkg.estimation
    controls = [dyn.ControlInput.hover(dyn.SystemParams())]
    controls += [dyn.ControlInput(thrust=float(c[0]), moments=c[1:4].copy())
                 for c in run.controls[:steps - 1]]
    meas = [est.Measurement(q=z[0:4].copy(), r=z[4:7].copy(), omega=z[7:10].copy())
            for z in run.measurements[:steps]]
    return list(zip(controls, meas))


# -- determinism ------------------------------------------------------------

def figure(a, b):
    """None when a and b hold the same bytes; else the largest difference
    of an entry over a's largest magnitude (inf for a change of shape)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    if a.tobytes() == b.tobytes():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a).max())
    return float(np.nan_to_num(rel, nan=np.inf).max())


def compare(old, new):
    """Lines reporting the named arrays new against old; the first is
    ": identical" only when every array matches bit for bit."""
    if sorted(old) != sorted(new):
        return [": arrays differ: %s vs %s" % (sorted(old), sorted(new))]
    worst = {key: figure(old[key], new[key]) for key in old}
    worst = {key: w for key, w in worst.items() if w is not None}
    if not worst:
        return [": identical"]
    return [": differs"] + ["  %-24s largest difference %.3g of its largest magnitude"
                            % (key, worst[key]) for key in sorted(worst)]


def cli_outputs(root, pkg, seed, out):
    """The bytes of `aerowrench run`'s files for one seed. An aliased
    package cannot find its default config by name, so it is passed."""
    config = str(root / "src" / "aerowrench" / "default_config.yaml")
    for fmt in ("csv", "jsonl"):
        argv = ["run", "--seed", str(seed), "--config", config,
                "--format", fmt, "--out", str(out / fmt)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(argv)
        if code:
            sys.exit("aerowrench run (%s) exited %d" % (" ".join(argv), code))
    return {name: (out / fmt / name).read_bytes() for fmt, name in (
        ("csv", "telemetry.csv"), ("csv", "metrics.json"), ("jsonl", "telemetry.jsonl"))}


def rmse_lines(old, new):
    """Per filter, the largest relative change of its RMSE entries."""
    old, new = (json.loads(doc)["rmse"] for doc in (old, new))
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name, {}), new.get(name, {})
        worst = (0.0, "-")
        for ch in sorted(set(a) | set(b)):
            x, y = a.get(ch), b.get(ch)
            if x == y:
                rel = 0.0
            elif x is None or y is None or x == 0.0:
                rel = float("inf")
            else:
                rel = abs(y - x) / abs(x)
            worst = max(worst, (rel, ch))
        yield "  largest relative RMSE change, %s: %.3g (%s)" % ((name,) + worst)


def run_arrays(runs):
    """Every array of every run, keyed by seed."""
    arrays = {}
    for run in runs:
        for name in ("t", "truth", "wrench_true", "measurements", "controls",
                     "rotors", "saturated"):
            arrays["s%d.%s" % (run.seed, name)] = getattr(run, name)
        for name in sorted(run.tracks):
            for field in ("states", "wrench", "nis"):
                arrays["s%d.%s.%s" % (run.seed, name, field)] = getattr(
                    run.tracks[name], field)
    return arrays


def study_arrays(pkg):
    return run_arrays(pkg.simulation.run_study([0, 1, 2], duration=5.0))


def stiff_arrays(pkg):
    """Seed 0 for 5 s, both filters, under a stiff, coupled admittance,
    whose map has the position-to-velocity block that the default k_v = 0
    zeroes, and no zero entry in its state block."""
    sim = pkg.simulation
    adm = sim.AdmittanceParams(
        m_v=[[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.8]],
        c_v=[[3.0, 0.5, -0.4], [0.5, 2.5, 0.3], [-0.4, 0.3, 2.0]],
        k_v=[[4.0, -0.7, 0.6], [-0.7, 3.0, 0.2], [0.6, 0.2, 5.0]])
    return run_arrays([sim.run_scenario(admittance=adm, seed=0, duration=5.0)])


def padded_replay(pkg, side, steps=400):
    """The padded QUKF's live values after every step; stops at the first
    step that leaves an inert entry changed, and says so."""
    run = pkg.simulation.run_scenario(seed=0, duration=steps * 0.01)
    f = pkg.estimation.QuaternionUkf(pad_dims=80)
    x, cov, nis = [], [], []
    for k, (u, z) in enumerate(replay_inputs(pkg, run, steps)):
        f.step(u, z)
        rest = f.x[19:]
        if (np.count_nonzero(rest == 1.0) != 1 or np.count_nonzero(rest) != 1
                or f.P[18:].any() or f.P[:, 18:].any()):
            print("padded QUKF replay (%s): inert entries changed at step %d" % (side, k))
            break
        x.append(f.x[:19].copy())
        cov.append(f.P[:18, :18].copy())
        nis.append(f.last_nis)
    return {"x": np.array(x), "P": np.array(cov), "nis": np.array(nis)}


def gate5_replay(pkg):
    dyn, est, qt = pkg.dynamics, pkg.estimation, pkg.quat
    diag = np.zeros(19)
    diag[3:6] = 1e-2
    diag[6:9] = 3e-2
    nc = est.NoiseConfig(q_diag=np.zeros(19), r_diag=est.DEFAULT_R_DIAG.copy())
    f = est.QuaternionUkf(noise=nc, p0_diag=diag)
    u = dyn.ControlInput.hover(f.params)
    x, cov, nis = [], [], []
    for k in range(100):
        z = np.array([0.05 * math.sin(0.3 * k), 0.02 * k * 0.01, -0.03])
        f.step(u, est.Measurement(q=qt.quat_identity(), r=z, omega=np.zeros(3)))
        x.append(f.x.copy())
        cov.append(f.P.copy())
        nis.append(f.last_nis)
    return {"x": np.array(x), "P": np.array(cov), "nis": np.array(nis)}


def package_lines(root):
    return sum(p.read_bytes().count(b"\n")
               for p in (root / "src" / "aerowrench").glob("*.py"))


def determinism(trees, seeds, work):
    ok = True
    for seed in seeds:
        old, new = (cli_outputs(root, pkg, seed, work / "out" / side / ("s%d" % seed))
                    for side, (root, pkg) in trees.items())
        differ = [name for name in old if old[name] != new[name]]
        ok = ok and not differ
        print("seed %d: %s" % (seed, "differs in " + " ".join(differ) if differ
                                     else "identical"))
        if "metrics.json" in differ:
            print("\n".join(rmse_lines(old["metrics.json"], new["metrics.json"])))
    for label, arrays in (
            ("run_study seeds 0-2, 5 s", lambda pkg, side: study_arrays(pkg)),
            ("stiff coupled admittance, seed 0, 5 s",
             lambda pkg, side: stiff_arrays(pkg)),
            ("padded QUKF replay, seed 0, 400 steps", padded_replay),
            ("gate-5 QUKF replay (clamp path), 100 steps",
             lambda pkg, side: gate5_replay(pkg))):
        lines = compare(*(arrays(pkg, side) for side, (_, pkg) in trees.items()))
        ok = ok and lines == [": identical"]
        print(label + "\n".join(lines))
    print("lines of src/aerowrench/*.py: parent %d, change %d"
          % tuple(package_lines(root) for root, _ in trees.values()))
    return 0 if ok else 1


# -- timing -----------------------------------------------------------------

def timed_pair(filters, inputs, order):
    """Step each side's filter through its inputs in alternating BLOCK-step
    turns, the sides in the given order; returns each side's step times."""
    times = {side: np.empty(len(inputs[side])) for side in order}
    clock = time.perf_counter
    for start in range(0, len(inputs[order[0]]), BLOCK):
        for side in order:
            f, out = filters[side], times[side]
            for k, (u, z) in enumerate(inputs[side][start:start + BLOCK], start):
                tic = clock()
                f.step(u, z)
                out[k] = clock() - tic
    return times


def pair_ratio(parent, change):
    """Median over a pair's whole turns of the change's block median over
    the parent's."""
    nb = parent.size // BLOCK
    med = [np.median(t[:nb * BLOCK].reshape(nb, BLOCK), axis=1) for t in (parent, change)]
    return float(np.median(med[1] / med[0]))


def quiet_median(samples):
    """Median of the QUIET_BLOCKS fastest QUIET-step blocks."""
    nb = samples.size // QUIET
    blocks = samples[:nb * QUIET].reshape(nb, QUIET)
    fastest = np.argsort(np.median(blocks, axis=1), kind="stable")[:QUIET_BLOCKS]
    return float(np.median(blocks[fastest]))


def timing(trees, rev, pairs, steps):
    # One set of inputs, from this tree's simulator, for both sides.
    run = trees["change"][1].simulation.run_scenario(seed=0, duration=steps * 0.01)
    inputs = {side: replay_inputs(pkg, run, steps) for side, (_, pkg) in trees.items()}
    print("%s (parent) against the working tree: %d pairs of %d steps in %d-step"
          " turns, seed 0; us per step, quiet median" % (rev, pairs, steps, BLOCK))
    for label, cls, kwargs in CASES:
        def fresh():
            return {side: getattr(pkg.estimation, cls)(**kwargs)
                    for side, (_, pkg) in trees.items()}
        # warm caches and lazy set-up on both sides
        timed_pair(fresh(), {s: inp[:QUIET] for s, inp in inputs.items()}, SIDES)
        med, ratios = {side: [] for side in SIDES}, []
        for i in range(pairs):
            times = timed_pair(fresh(), inputs, SIDES if i % 2 == 0 else SIDES[::-1])
            for side in SIDES:
                med[side].append(1e6 * quiet_median(times[side]))
            ratios.append(pair_ratio(times["parent"], times["change"]))
        for side in SIDES:
            q1, q2, q3 = np.percentile(med[side], [25, 50, 75])
            print("  %-10s %-6s median %8.1f  quartiles %8.1f %8.1f"
                  % (label, side, q2, q1, q3))
        print("  %-10s ratios %s" % (label, " ".join("%.3f" % r for r in ratios)))
        q1, q2, q3 = np.percentile(ratios, [25, 50, 75])
        print("  %-10s median ratio %.3f, quartiles %.3f %.3f, change faster in"
              " %d of %d pairs" % (label, q2, q1, q3, sum(r < 1.0 for r in ratios), pairs))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    modes = ap.add_subparsers(dest="mode", required=True)
    det = modes.add_parser("determinism", help="compare outputs")
    det.add_argument("seeds", nargs="*", type=int, default=[0, 1, 2])
    tim = modes.add_parser("timing", help="time filter steps in paired turns")
    tim.add_argument("--pairs", type=int, default=12)
    tim.add_argument("--steps", type=int, default=400)
    args = ap.parse_args(argv)
    if args.mode == "timing" and (args.pairs < 1 or args.steps < QUIET * QUIET_BLOCKS):
        ap.error("need at least one pair and %d steps" % (QUIET * QUIET_BLOCKS))

    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        clone = work / "parent"
        git = ["git", "-c", "advice.detachedHead=false"]
        subprocess.run(git + ["clone", "-q", str(ROOT), str(clone)], check=True)
        subprocess.run(git + ["-C", str(clone), "checkout", "-q", args.parent_rev],
                       check=True)
        trees = {side: (root, load_package(root / "src", "aerowrench_" + side))
                 for side, root in zip(SIDES, (clone, ROOT))}
        if args.mode == "determinism":
            return determinism(trees, args.seeds, work)
        return timing(trees, args.parent_rev, args.pairs, args.steps)


if __name__ == "__main__":
    sys.exit(main())
