"""Telemetry and metrics serialization.

Telemetry is written either as CSV (header row, fixed column order) or as
JSON lines (one record object per line). Both start with a '#' comment
naming the units convention, and both preserve doubles exactly: floats are
rendered with the shortest representation that parses back to the same
bits. Column names embed their units as suffixes; quaternion components
are unitless and ordered w, x, y, z.
"""

import array
import itertools
import json

import numpy as np

from . import __version__

__all__ = [
    "telemetry_columns", "write_telemetry", "read_telemetry",
    "build_metrics_document", "write_metrics_document", "read_metrics_document",
]

UNITS_COMMENT = ("# units embedded in column names (_m, _mps, _radps, _N, _Nm);"
                 " quaternions unitless, ordered w,x,y,z")

_STATE_COLS = ("q_w", "q_x", "q_y", "q_z", "x_m", "y_m", "z_m",
               "vx_mps", "vy_mps", "vz_mps", "p_radps", "q_radps", "r_radps")
_WRENCH_COLS = ("F_hx_N", "F_hy_N", "F_hz_N", "M_hx_Nm", "M_hy_Nm", "M_hz_Nm")
_OBS_COLS = ("obs1_N", "obs2_N", "obs3_N", "obs4_Nm", "obs5_Nm", "obs6_Nm")


def telemetry_columns(estimators):
    """Fixed column order for the given estimator set."""
    cols = ["t_s"]
    cols += _STATE_COLS
    cols += _WRENCH_COLS
    cols += ["meas_" + c for c in _STATE_COLS[0:7]]
    cols += ["meas_p_radps", "meas_q_radps", "meas_r_radps"]
    for name in estimators:
        cols += [name + "_" + c for c in _STATE_COLS]
        cols += [name + "_" + c for c in _OBS_COLS]
        cols += [name + "_" + c for c in _WRENCH_COLS]
        cols.append(name + "_nis")
    cols += ["thrust_N", "Mx_Nm", "My_Nm", "Mz_Nm"]
    cols += ["rotor%d_N" % i for i in range(1, 9)]
    cols.append("saturated")
    return cols


def _estimator_order(names):
    return [n for n in ("qukf", "ekf") if n in names]


def flatten_run(run):
    """(columns, data) for a ScenarioRun; data rows follow telemetry_columns."""
    names = _estimator_order(run.tracks)
    cols = telemetry_columns(names)
    parts = [run.t[:, None], run.truth, run.wrench_true, run.measurements]
    for name in names:
        tr = run.tracks[name]
        parts += [tr.states, tr.wrench, tr.nis[:, None]]
    parts += [run.controls, run.rotors, run.saturated[:, None].astype(float)]
    data = np.hstack(parts)
    if data.shape[1] != len(cols):
        raise AssertionError("telemetry layout drifted from its column list")
    return cols, data


def write_telemetry(run, path, format="csv"):
    """Write a ScenarioRun's telemetry to path, one row per step.

    format is 'csv' or 'jsonl'. Rows are formatted and written one at a
    time, so no copy of the whole text is held. Read-back via
    read_telemetry reproduces every value bit for bit.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError("format must be 'csv' or 'jsonl', got %r" % (format,))
    cols, data = flatten_run(run)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(UNITS_COMMENT + "\n")
        if format == "csv":
            fh.write(",".join(cols) + "\n")
            for row in data:
                fh.write(",".join(map(repr, row.tolist())) + "\n")
        else:
            for row in data:
                fh.write(json.dumps(dict(zip(cols, row.tolist()))) + "\n")


def read_telemetry(path):
    """Read a telemetry file back as (columns, data array).

    The file is parsed line by line into one growing buffer of doubles,
    which becomes the data array without a copy. The first content line
    decides the format: a '{' starts JSON lines, anything else is the CSV
    header. A CSV row with another number of values than the header, or
    a JSON record with other keys than the first record, raises
    ValueError naming the file.
    """
    values = array.array("d")
    with open(path, "r", encoding="utf-8") as fh:
        lines = (ln.rstrip("\n") for ln in fh)
        lines = (ln for ln in lines if ln and not ln.startswith("#"))
        first = next(lines, None)
        if first is None:
            raise ValueError("%s: no telemetry content" % (path,))
        if first.lstrip().startswith("{"):
            keys = json.loads(first).keys()
            cols = list(keys)
            for i, line in enumerate(itertools.chain([first], lines)):
                rec = json.loads(line)
                if rec.keys() != keys:
                    raise ValueError(
                        "%s: record %d has keys %s missing and %s extra against "
                        "the first record's" % (path, i + 1,
                                                sorted(keys - rec.keys()),
                                                sorted(rec.keys() - keys)))
                values.fromlist([float(rec[c]) for c in cols])
        else:
            cols = first.split(",")
            for line in lines:
                row = [float(v) for v in line.split(",")]
                if len(row) != len(cols):
                    raise ValueError("%s: a row has %d values for %d columns"
                                     % (path, len(row), len(cols)))
                values.fromlist(row)
    return cols, np.frombuffer(values, dtype=float).reshape(-1, len(cols))


# ---------------------------------------------------------------------------
# Metrics documents
# ---------------------------------------------------------------------------

def build_metrics_document(report, config_digest, seed=None):
    """Self-describing metrics payload: every field of the report plus
    provenance fields."""
    return dict(vars(report), schema="aerowrench-metrics/1",
                code_version=__version__, config_digest=config_digest, seed=seed,
                units="embedded in channel name suffixes; times in seconds")


def write_metrics_document(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_metrics_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
