"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the aerowrench layers by
replacing module attributes and class attributes, records one span per call
(name, start, end, parent span, run id), and puts every original back on
``uninstall``. Nothing inside the package changes: a call is traced only
when the caller looks the function up through the patched attribute, which
is how the package's own modules call each other.

Spans stay in memory as parallel lists and are written once, at the end of
the run, by ``save``. Self time is a span's duration minus the time its
direct child spans cover.
"""

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

from aerowrench import config as cfgm
from aerowrench import dynamics as dyn
from aerowrench import estimation as est
from aerowrench import quat as qt
from aerowrench import simulation as sim
from aerowrench import telemetry as tlm
from aerowrench.errors import DegenerateSpectrum

LAYERS = ("quat", "dynamics", "estimation", "simulation", "telemetry", "config")

# The quat layer's other public functions, as the package looks them up:
# through the quat module (estimation, simulation and quat itself) and
# through the names dynamics imports from it. All share one span name.
_QUAT_HELPERS = tuple(
    (owner, attr, "quat.helper")
    for owner in (qt, dyn, est, sim, tlm, cfgm)
    for attr, value in sorted(vars(owner).items())
    if callable(value) and not attr.startswith("_")
    and getattr(value, "__module__", None) == qt.__name__
    and attr != "weighted_quat_average")

# (owner, attribute, span name). The span name's prefix is its layer.
TARGETS = _QUAT_HELPERS + (
    (qt, "weighted_quat_average", "quat.avg"),
    (dyn, "rk4_step", "dynamics.rk4"),
    (dyn, "propagate_batch", "dynamics.propagate"),
    (est, "cov_sqrt", "estimation.cov_sqrt"),
    (est.QuaternionUkf, "predict", "estimation.qukf_predict"),
    (est.QuaternionUkf, "update", "estimation.qukf_update"),
    (est.ExtendedKalman, "predict", "estimation.ekf_predict"),
    (est.ExtendedKalman, "update", "estimation.ekf_update"),
    (sim, "run_scenario", "simulation.loop"),
    (sim, "tracking_controller", "simulation.controller"),
    (sim, "admittance_reference", "simulation.admittance"),
    (sim, "compute_metrics", "simulation.metrics"),
    (tlm, "write_telemetry", "telemetry.write"),
    (tlm, "write_metrics_document", "telemetry.write"),
    (tlm, "read_telemetry", "telemetry.read"),
    (cfgm, "parse_config", "config.parse"),
    (cfgm, "config_digest", "config.digest"),
)

# Distinct-row counting costs more than the propagation it describes, so it
# runs on one call in this many; the share it estimates is structural (the
# same on every call of one filter), so a sample measures it exactly.
ROW_SAMPLE_EVERY = 63


class Tracer:
    """Records spans around the TARGETS while installed.

    ``run_id`` tags every span opened while it is set; the runner sets it
    to 0 during set-up and to the operation number while measuring.
    """

    def __init__(self):
        self.names = sorted({name for _, _, name in TARGETS})
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self.failed = []
        # Counters per run id: fallbacks, rows, sampled_rows,
        # sampled_distinct, bytes_written, bytes_read.
        self.counts = defaultdict(Counter)
        self.run_id = 0
        self._stack = []
        self._saved = []
        self._propagate_seen = 0

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name):
        nid = self._name_id[name]
        hook = {"dynamics.propagate": self._count_rows,
                "telemetry.write": self._count_written,
                "telemetry.read": self._count_read}.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.failed.append(False)
            self.start.append(0.0)
            self.end.append(0.0)
            if hook is not None:
                hook(args, kwargs, before=True)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                self.failed[idx] = True
                if isinstance(err, DegenerateSpectrum):
                    self.counts[self.run_id]["fallbacks"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if hook is not None:
                    hook(args, kwargs, before=False)

        return traced

    def _count_rows(self, args, kwargs, before):
        if not before:
            return
        xs = args[0] if args else kwargs["xs"]
        k = int(np.shape(xs)[0])
        c = self.counts[self.run_id]
        c["rows"] += k
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or self.names[self.name[parent]] != "estimation.qukf_predict":
            return
        self._propagate_seen += 1
        if self._propagate_seen % ROW_SAMPLE_EVERY == 1:
            c["sampled_rows"] += k
            c["sampled_distinct"] += int(np.unique(np.asarray(xs), axis=0).shape[0])

    def _count_written(self, args, kwargs, before):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if not before and path is not None and os.path.exists(path):
            self.counts[self.run_id]["bytes_written"] += os.path.getsize(path)

    def _count_read(self, args, kwargs, before):
        path = args[0] if args else kwargs.get("path")
        if before and path is not None and os.path.exists(path):
            self.counts[self.run_id]["bytes_read"] += os.path.getsize(path)

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, run, failed."""
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int64),
            "failed": np.asarray(self.failed, dtype=bool),
        }

    def save(self, path):
        """Write every recorded span to a compressed .npz file."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def self_times(start, end, parent):
    """Duration of each span minus the time covered by its direct children.

    Spans come from one thread of synchronous calls, so a span's children
    lie inside it and do not overlap; their durations simply add up.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.shape[0])
    return dur - covered[:dur.shape[0]]


def layer_metrics(tracer, op_ids, op_walls):
    """Per-layer metrics from the spans of the traced operations.

    op_ids are the run ids of the measured traced operations and op_walls
    their wall times in seconds. Times and counts are per operation; the
    config parse time is per call, set-up included, because only the
    closed-loop workload parses inside its operations.
    """
    sp = tracer.arrays()
    names = tracer.names
    self_s = self_times(sp["start"], sp["end"], sp["parent"])
    in_ops = np.isin(sp["run"], np.asarray(op_ids, dtype=np.int64))
    n_ops = max(len(op_ids), 1)

    def pick(name):
        nid = names.index(name)
        return in_ops & (sp["name"] == nid)

    def total(name):
        return float(self_s[pick(name)].sum()) / n_ops

    def count(name):
        return float(pick(name).sum()) / n_ops

    def whole(name):
        # Duration with children: the quat helpers inside the average.
        sel = pick(name)
        return float((sp["end"][sel] - sp["start"][sel]).sum()) / n_ops

    layer_of = np.array([n.split(".")[0] for n in names])
    span_layer = layer_of[sp["name"]] if sp["name"].size else np.array([], dtype=str)

    parse = sp["name"] == names.index("config.parse")
    c = Counter()
    for rid in op_ids:
        c.update(tracer.counts.get(rid, {}))
    out = {
        "quat.avg_calls": (count("quat.avg"), "count"),
        "quat.avg_s": (whole("quat.avg"), "s"),
        "quat.avg_fallbacks": (c["fallbacks"] / n_ops, "count"),
        "dynamics.rk4_calls": (count("dynamics.rk4"), "count"),
        "dynamics.rk4_s": (total("dynamics.rk4"), "s"),
        "dynamics.propagate_calls": (count("dynamics.propagate"), "count"),
        "dynamics.propagate_rows": (c["rows"] / n_ops, "count"),
        "dynamics.propagate_s": (total("dynamics.propagate"), "s"),
        "estimation.qukf_predict_s": (total("estimation.qukf_predict"), "s"),
        "estimation.qukf_update_s": (total("estimation.qukf_update"), "s"),
        "estimation.ekf_predict_s": (total("estimation.ekf_predict"), "s"),
        "estimation.ekf_update_s": (total("estimation.ekf_update"), "s"),
        "estimation.cov_sqrt_calls": (count("estimation.cov_sqrt"), "count"),
        "estimation.cov_sqrt_s": (total("estimation.cov_sqrt"), "s"),
        "estimation.qukf_useful_row_share": (
            c["sampled_distinct"] / c["sampled_rows"]
            if c["sampled_rows"] else 0.0, "share"),
        "simulation.loop_self_s": (total("simulation.loop"), "s"),
        "simulation.controller_s": (total("simulation.controller"), "s"),
        "simulation.admittance_s": (total("simulation.admittance"), "s"),
        "simulation.metrics_s": (total("simulation.metrics"), "s"),
        "telemetry.write_s": (total("telemetry.write"), "s"),
        "telemetry.write_bytes": (c["bytes_written"] / n_ops, "B"),
        "telemetry.read_s": (total("telemetry.read"), "s"),
        "telemetry.read_bytes": (c["bytes_read"] / n_ops, "B"),
        "config.parse_s": (float(self_s[parse].mean()) if parse.any() else 0.0, "s"),
    }
    for layer in LAYERS:
        mine = span_layer == layer
        out["%s.self_s" % layer] = (float(self_s[mine & in_ops].sum()) / n_ops, "s")
        out["%s.failed" % layer] = (float(sp["failed"][mine].sum()), "count")

    wall = float(np.sum(op_walls))
    accounted = float(self_s[in_ops].sum())
    out["trace.wall_s"] = (wall / n_ops, "s")
    out["trace.accounted_share"] = (accounted / wall if wall > 0 else 0.0, "share")
    out["trace.spans_per_op"] = (float(in_ops.sum()) / n_ops, "count")
    return out
