#!/bin/sh
# Byte-for-byte determinism check of `aerowrench run` and `run_study`
# against an earlier revision.
#
# Usage: tools/determinism.sh PARENT_REV [SEED ...]
#
# Clones this repository at PARENT_REV into a temporary directory (under
# $TMPDIR when set), runs `aerowrench run` with the default config for each
# seed (0 1 2 unless given) from the parent and from this working tree, once
# with CSV telemetry and once with --format jsonl, and compares
# telemetry.csv, metrics.json and telemetry.jsonl with cmp. Prints one line
# per seed and exits non-zero if any file differs. When metrics.json
# differs, one more line per filter gives the largest relative change of
# its RMSE entries, with the channel, so a rounding-only change can state
# its tolerance filter by filter: the EKF's central differences magnify
# rounding about 1e6 times, which would hide the QUKF's change in one
# overall figure.
#
# Then runs run_study on seeds 0, 1 and 2 for 5 s, the stacked path of the
# closed loop, from both trees and compares every array of every returned
# run; when any differs, prints per array its largest difference relative
# to the array's largest magnitude (see compare below).
#
# Then replays seed 0's first 400 (control, measurement) pairs through a
# QUKF padded to n=99 (pad_dims=80), as gate 9's sweep and the benchmark's
# wide replay step it, and compares after every step the values that do
# not depend on where the inert components sit: the first 19 state
# components, the live 18x18 covariance block and the NIS, as run_study's
# arrays are compared. Each side also checks that every other entry is
# inert: of the state, one exact 1 (the affine component) and exact zeros
# (the pads); of the covariance, zeros.
#
# Last, replays gate 5's set-up through the QUKF for 100 steps: no process
# noise and initial variance on position and velocity only, so the live
# covariance block is singular and cov_sqrt takes its clamped
# eigendecomposition, which none of the runs above reaches. Compares the
# state, the covariance and the NIS after every step, as above. Entries
# that are zero in exact arithmetic (attitude, rates, most cross
# covariances) carry only rounding here; scaled by the array's largest
# magnitude, as every comparison is, they stay at rounding level.
#
# Finally prints the package's size in both trees, the Python line count
# `cat src/aerowrench/*.py | wc -l`.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 PARENT_REV [SEED ...]" >&2
    exit 2
fi
rev=$1
shift
[ $# -gt 0 ] || set -- 0 1 2

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

git clone -q "$root" "$work/parent"
git -C "$work/parent" checkout -q "$rev"

status=0
for seed in "$@"; do
    for side in parent change; do
        if [ "$side" = parent ]; then src="$work/parent/src"; else src="$root/src"; fi
        PYTHONPATH="$src" python3 -m aerowrench.cli run --seed "$seed" \
            --out "$work/out/$side/s$seed" >/dev/null
        PYTHONPATH="$src" python3 -m aerowrench.cli run --seed "$seed" \
            --format jsonl --out "$work/out/$side/s$seed-jsonl" >/dev/null
    done
    differ=
    for f in s$seed/telemetry.csv s$seed/metrics.json s$seed-jsonl/telemetry.jsonl; do
        cmp -s "$work/out/parent/$f" "$work/out/change/$f" \
            || differ="$differ ${f#*/}"
    done
    if [ -z "$differ" ]; then
        echo "seed $seed: identical"
    else
        echo "seed $seed: differs in$differ"
        status=1
        case $differ in *metrics.json*)
            python3 - "$work/out/parent/s$seed/metrics.json" \
                "$work/out/change/s$seed/metrics.json" <<'PY'
import json
import sys

old, new = (json.load(open(p))["rmse"] for p in sys.argv[1:3])
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
    print("  largest relative RMSE change, %s: %.3g (%s)" % ((name,) + worst))
PY
            ;;
        esac
    fi
done

# compare NAME: compares the parent's and this tree's NAME.npz. Prints
# "identical" when every array matches bit for bit; otherwise, per array,
# the largest difference of an entry relative to the array's largest
# magnitude over the run, so a rounding-only change can state its
# tolerance. Scaling by each component's own largest magnitude would give
# an entry that is zero in exact arithmetic, and so carries only rounding,
# a figure near 1. Returns 1 if any differs.
compare() {
    python3 - "$work/out/parent/$1.npz" "$work/out/change/$1.npz" <<'PY'
import sys

import numpy as np

old, new = (np.load(p) for p in sys.argv[1:3])
if sorted(old) != sorted(new):
    sys.exit("  arrays differ: %s vs %s" % (sorted(old), sorted(new)))
worst = {}
for key in old:
    a, b = old[key].astype(float), new[key].astype(float)
    if a.shape != b.shape:
        worst[key] = float("inf")
    elif a.tobytes() != b.tobytes():
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a).max())
        worst[key] = float(np.nan_to_num(rel, nan=np.inf).max())
if not worst:
    print(": identical")
    sys.exit(0)
print(": differs")
for key in sorted(worst):
    print("  %-24s largest difference %.3g of its largest magnitude"
          % (key, worst[key]))
sys.exit(1)
PY
}

for side in parent change; do
    if [ "$side" = parent ]; then src="$work/parent/src"; else src="$root/src"; fi
    mkdir -p "$work/out/$side"
    PYTHONPATH="$src" python3 - "$work/out/$side/study.npz" <<'PY'
import sys

import numpy as np

from aerowrench.simulation import run_study

arrays = {}
for run in run_study([0, 1, 2], duration=5.0):
    for name in ("t", "truth", "wrench_true", "measurements", "controls",
                 "rotors", "saturated"):
        arrays["s%d.%s" % (run.seed, name)] = getattr(run, name)
    for name in sorted(run.tracks):
        for field in ("states", "wrench", "nis"):
            arrays["s%d.%s.%s" % (run.seed, name, field)] = getattr(
                run.tracks[name], field)
np.savez(sys.argv[1], **arrays)
PY
done
printf "run_study seeds 0-2, 5 s"
compare study || status=1

for side in parent change; do
    if [ "$side" = parent ]; then src="$work/parent/src"; else src="$root/src"; fi
    if ! PYTHONPATH="$src" python3 - "$work/out/$side/replay.npz" <<'PY'
import sys

import numpy as np

from aerowrench import dynamics as dyn
from aerowrench import estimation as est
from aerowrench.simulation import run_scenario

steps = 400
run = run_scenario(seed=0, duration=steps * 0.01)
f = est.QuaternionUkf(pad_dims=80)
controls = [dyn.ControlInput.hover(f.params)]
controls += [dyn.ControlInput(thrust=float(c[0]), moments=c[1:4].copy())
             for c in run.controls[:steps - 1]]
x, cov, nis = [], [], []
for k, (u, z) in enumerate(zip(controls, run.measurements[:steps])):
    f.step(u, est.Measurement(q=z[0:4].copy(), r=z[4:7].copy(),
                              omega=z[7:10].copy()))
    rest = f.x[19:]
    if (np.count_nonzero(rest == 1.0) != 1 or np.count_nonzero(rest) != 1
            or f.P[18:].any() or f.P[:, 18:].any()):
        sys.exit("step %d: an inert entry of x or P is not inert" % k)
    x.append(f.x[:19].copy())
    cov.append(f.P[:18, :18].copy())
    nis.append(f.last_nis)
np.savez(sys.argv[1], x=np.array(x), P=np.array(cov), nis=np.array(nis))
PY
    then
        echo "padded QUKF replay ($side): inert entries changed"
        status=1
    fi
done
printf "padded QUKF replay, seed 0, 400 steps"
compare replay || status=1

for side in parent change; do
    if [ "$side" = parent ]; then src="$work/parent/src"; else src="$root/src"; fi
    PYTHONPATH="$src" python3 - "$work/out/$side/gate5.npz" <<'PY'
import math
import sys

import numpy as np

from aerowrench import dynamics as dyn
from aerowrench import estimation as est
from aerowrench import quat as qt

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
np.savez(sys.argv[1], x=np.array(x), P=np.array(cov), nis=np.array(nis))
PY
done
printf "gate-5 QUKF replay (clamp path), 100 steps"
compare gate5 || status=1
echo "lines of src/aerowrench/*.py: parent $(cat "$work"/parent/src/aerowrench/*.py | wc -l)," \
    "change $(cat "$root"/src/aerowrench/*.py | wc -l)"
exit $status
