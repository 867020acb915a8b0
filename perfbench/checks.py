"""Output checks: reference RMSE for the default seeds, invariants for all.

``reference.json`` holds the per-channel RMSE of every filter for the
default seeds, generated from the program at the commit that introduced the
benchmark (``make_reference.py`` rebuilds it). A result for a seed in the
file must match it within ``RTOL``; a seed outside the file is checked on
invariants only: finite values, unit quaternions and a bit-exact telemetry
round trip where telemetry is written.
"""

import json
import math
import os

import numpy as np

from aerowrench import telemetry as tlm

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Relative tolerance on reference RMSE. Loose enough for a change that only
# reorders floating-point sums; any change to what the filters compute moves
# an RMSE by far more.
RTOL = 1e-6
UNIT_TOL = 1e-9

FORCE_CHANNELS = ("F_hx_N", "F_hy_N", "F_hz_N")
RATE_CHANNELS = ("p_radps", "q_radps", "r_radps")


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def combined(rmse, channels):
    """RMS over channels of per-channel RMSE (one number for a 3-vector)."""
    return math.sqrt(sum(rmse[ch] ** 2 for ch in channels) / len(channels))


def compare_rmse(observed, expected, label, rtol=RTOL):
    """Mismatch messages for every channel outside rtol of the reference."""
    bad = []
    for filt, channels in expected.items():
        got = observed.get(filt)
        if got is None:
            bad.append("%s: filter %s missing" % (label, filt))
            continue
        for ch, ref in channels.items():
            val = got.get(ch)
            if val is None or not math.isclose(val, ref, rel_tol=rtol, abs_tol=0.0):
                bad.append("%s: %s %s rmse %r differs from reference %r"
                           % (label, filt, ch, val, ref))
    return bad


def check_tracks(t, truth, tracks, label):
    """Finite values and unit quaternions in the truth and every track."""
    bad = []
    arrays = {"truth": truth}
    for name, tr in tracks.items():
        arrays[name + ".states"] = tr.states
        arrays[name + ".wrench"] = tr.wrench
        arrays[name + ".nis"] = tr.nis
    arrays["t"] = t
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            bad.append("%s: non-finite values in %s" % (label, name))
    for name, q in [("truth", truth[:, 0:4])] + [
            (n, tr.states[:, 0:4]) for n, tr in tracks.items()]:
        err = float(np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)))
        if not err <= UNIT_TOL:
            bad.append("%s: %s quaternion norm off by %.3e" % (label, name, err))
    return bad


def check_run(run, label):
    """Invariants of a ScenarioRun: finite arrays and unit quaternions."""
    bad = check_tracks(run.t, run.truth, run.tracks, label)
    for name in ("measurements", "controls", "rotors", "wrench_true"):
        if not np.isfinite(getattr(run, name)).all():
            bad.append("%s: non-finite values in %s" % (label, name))
    return bad


def check_roundtrip(run, cols, data, label):
    """Telemetry read back must equal what was written, bit for bit."""
    want_cols, want = tlm.flatten_run(run)
    if list(cols) != list(want_cols):
        return ["%s: telemetry columns changed on read-back" % label]
    if data.shape != want.shape or not np.array_equal(data, want):
        return ["%s: telemetry values changed on read-back" % label]
    return []


def rmse_table(report):
    """{filter: {channel: rmse}} from a MetricsReport."""
    return {name: dict(ch) for name, ch in report.rmse.items()}

