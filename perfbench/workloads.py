"""The benchmark's two workloads.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Each workload builds its inputs from
the seed alone and exposes four steps to the runner:

* ``setup()``: everything a user pays once per process (imports are paid by
  the runner), including first-call caches.
* ``operation(op_id)``: the timed program work of one repetition. This is
  the part the traced run wraps in spans.
* ``probe(result)``: a side measurement outside the operation's wall time,
  never traced (the padded QUKF replay).
* ``check(result)``: output checks, never timed or traced.

``metrics(results)`` turns the kept results of all repetitions into the
end-to-end metrics. Both workloads report every metric (see README.md for
the table).
"""

import statistics
import time

import numpy as np

from aerowrench import config as cfgm
from aerowrench import dynamics as dyn
from aerowrench import estimation as est
from aerowrench import simulation as sim
from aerowrench import telemetry as tlm

import checks

clock = time.perf_counter

CLOSED_LOOP_DURATION = 10.0   # s of simulated time per closed-loop run
STUDY_SEEDS = 4               # scenario seeds per study
STUDY_DURATION = 2.5          # s of simulated time per study seed
WIDE_PAD = 80                 # pads taking the QUKF error state from 19 to 99
REPLAY_STEPS = 400            # padded-QUKF replay length
GAIN_CHANNELS = ("p_radps", "q_radps", "r_radps", "M_hz_Nm")

# Step timings are read in their least-contended window. On a shared 2-vCPU
# Xeon virtual machine (Python 3.11, numpy 2.4) the same code runs in two
# regimes about 2x apart (QUKF step 320-360 us or 580-730 us), switching
# every 0.1-10 s with what else the host runs. A median over a run follows
# the share of each regime (its spread over ten runs reached 0.33 of the
# median); the median of the fastest few 50-step blocks follows the program
# (0.01-0.06 over five runs, also when fast blocks are rare).
BLOCK = 50                    # consecutive steps per block
QUIET_STEPS = 250             # steps pooled: the 5 fastest blocks

# Printed and recorded, but kept out of the result line that bounds apply
# to: no tail statistic stayed steady on a shared host. A p99 needs 1,000 or
# more steps, which takes in contended blocks whenever the fast regime is
# rare (spread 0.42 of its median over ten runs); the p95 and p90 of the
# quiet pool flipped with the host's state too (0.35, 0.33).
INFORMATIONAL = ("qukf_step_us_p99",)


def _us(seconds):
    return np.asarray(seconds, dtype=float) * 1e6


def _rmse_pair(rmse):
    return (checks.combined(rmse, checks.FORCE_CHANNELS),
            checks.combined(rmse, checks.RATE_CHANNELS))


def quiet(samples):
    """The QUIET_STEPS samples of the fastest BLOCK-sample blocks.

    samples are step times in the order they were taken; blocks are ranked
    by their median. Fewer samples than QUIET_STEPS are returned whole.
    """
    x = np.asarray(samples, dtype=float)
    nb = x.shape[0] // BLOCK
    if nb * BLOCK <= QUIET_STEPS:
        return x
    blocks = x[:nb * BLOCK].reshape(nb, BLOCK)
    fastest = np.argsort(np.median(blocks, axis=1), kind="stable")
    return blocks[fastest[:QUIET_STEPS // BLOCK]].ravel()


def quiet_wall(walls, steps):
    """Mean operation wall, scaled to the run's least-contended window.

    walls are the run's operation walls; steps are the step times of the
    loop inside those operations, in the order taken. The scale is the
    quiet() median step over the mean step: how much faster than its
    average the run's quietest window stepped. Loop steps make up most of
    an operation (99 % of a seed_study seed, about 85 % of a closed_loop
    run), so the rest of the operation is scaled by the same factor.
    """
    steps = np.asarray(steps, dtype=float)
    return float(np.mean(walls) * np.median(quiet(steps)) / np.mean(steps))


def _scenario(cfg, seed, duration, ticks=None):
    """run_scenario as the CLI calls it, with per-filter step timing.

    With ``ticks``, the start time of every loop step is appended to it: a
    one-line clock around the truth integration that opens each step.
    """
    kwargs = dict(params=cfg.system_params(), noise=cfg.noise_config(),
                  admittance=cfg.admittance, dt=cfg.run.t_step, duration=duration,
                  seed=seed, estimators=cfg.run.estimators, scaling=cfg.scaling(),
                  p0_diag=cfg.filter.p0_diag, collect_timing=True)
    if ticks is None:
        return sim.run_scenario(cfg.profile, **kwargs)
    inner = dyn.rk4_step

    def ticking(*args, **kw):
        ticks.append(clock())
        return inner(*args, **kw)

    dyn.rk4_step = ticking
    try:
        return sim.run_scenario(cfg.profile, **kwargs)
    finally:
        dyn.rk4_step = inner


def _qukf(cfg, pad_dims=0):
    return est.QuaternionUkf(params=cfg.system_params(), noise=cfg.noise_config(),
                             dt=cfg.run.t_step, p0_diag=cfg.filter.p0_diag,
                             phi=cfg.filter.phi, gamma=cfg.filter.gamma,
                             sigma=cfg.filter.sigma, pad_dims=pad_dims)


def _replay_wide(run, cfg):
    """Step times of a QUKF padded to n=99 over the run's first REPLAY_STEPS
    (control, measurement) pairs, the ones the loop's filters saw."""
    params = cfg.system_params()
    controls = [dyn.ControlInput.hover(params)]
    controls += [dyn.ControlInput(thrust=float(c[0]), moments=c[1:4].copy())
                 for c in run.controls[:REPLAY_STEPS - 1]]
    meas = [est.Measurement(q=z[0:4].copy(), r=z[4:7].copy(), omega=z[7:10].copy())
            for z in run.measurements[:REPLAY_STEPS]]
    filt = _qukf(cfg, WIDE_PAD)
    lat = np.empty(len(meas))
    for k, (u, z) in enumerate(zip(controls, meas)):
        tic = clock()
        filt.step(u, z)
        lat[k] = clock() - tic
    return lat


def _common(setup_s, peak_rss_mb, attempted, failed, force, rate):
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (1.0 - failed / attempted if attempted else 0.0, "share"),
        "force_rmse_N": (force, "N"),
        "rate_rmse_radps": (rate, "rad/s"),
    }


def _timing(step_us, run_wall, study_wall, qukf, ekf, wide):
    """Timing metrics.

    step_us is the workload's per-step time in us and the walls are in
    seconds; qukf, ekf and wide are step times in seconds in the order
    taken. Medians are over their quiet() pools; the p99 is over every step
    of the run, as a user sees it (INFORMATIONAL). Walls are quiet_wall()
    values: the fastest whole operation followed the host's slow-downs (its
    mean rose 28 % between two sets of ten runs), and so did the sum of
    each 50-step part's fastest repetition (spread 0.17-0.32 over ten
    runs), where over the same runs the quiet step median spread 0.05.
    """
    return {
        "us_per_step": (step_us, "us"),
        "run_wall_s": (run_wall, "s"),
        "study_wall_s": (study_wall, "s"),
        "qukf_step_us_p50": (float(np.median(_us(quiet(qukf)))), "us"),
        "qukf_step_us_p99": (float(np.percentile(_us(qukf), 99)), "us"),
        "ekf_step_us_p50": (float(np.median(_us(quiet(ekf)))), "us"),
        "qukf_wide_step_us_p50": (float(np.median(_us(quiet(wide)))), "us"),
    }


class Workload:
    name = ""

    def __init__(self, seed, workdir, reference=None):
        self.seed = int(seed)
        self.workdir = workdir
        self.cfg_path = cfgm.default_config_path()
        if reference is None:
            reference = checks.load_reference()
        self.reference = reference.get(self.name, {})
        self.first_rmse = None

    def _check_reference(self, tables, label):
        bad = []
        for key, rmse in tables.items():
            ref = self.reference.get(key)
            if ref is not None:
                bad += checks.compare_rmse(rmse, ref, "%s (reference %s)" % (label, key))
        return bad

    def _check_repeat(self, rmse, label):
        # The same inputs must give the same numbers on every repetition.
        if self.first_rmse is None:
            self.first_rmse = rmse
            return []
        if rmse != self.first_rmse:
            return ["%s: rmse differs from the first repetition" % label]
        return []

    def probe(self, result):
        pass

    def step_us(self, results):
        return float(np.median(quiet(self.loop_steps(results)))) * 1e6


class ClosedLoop(Workload):
    """The ``aerowrench run`` path for one seed, both filters, CSV telemetry."""

    name = "closed_loop"
    attempts_per_op = 1

    def setup(self):
        cfg = cfgm.parse_config(self.cfg_path)
        # First-call caches: admittance transition, filter contexts, scipy.
        _scenario(cfg, self.seed, 5 * cfg.run.t_step)
        self.tpath = self.workdir / "telemetry.csv"
        self.mpath = self.workdir / "metrics.json"

    def operation(self, op_id):
        t0 = clock()
        cfg = cfgm.parse_config(self.cfg_path)
        cfg.run.seed = self.seed
        cfg.run.duration = CLOSED_LOOP_DURATION
        cfg.run.validate()
        ticks = []
        run = _scenario(cfg, cfg.run.seed, cfg.run.duration, ticks)
        report = sim.compute_metrics(run)
        tlm.write_telemetry(run, str(self.tpath), format="csv")
        doc = tlm.build_metrics_document(report, cfgm.config_digest(cfg),
                                         seed=cfg.run.seed)
        tlm.write_metrics_document(doc, str(self.mpath))
        cols, data = tlm.read_telemetry(str(self.tpath))
        t1 = clock()
        return {"wall": t1 - t0, "loop_lat": np.diff(ticks), "run": run,
                "report": report, "cfg": cfg, "cols": cols, "data": data,
                "attempted": self.attempts_per_op}

    def probe(self, result):
        result["wide_lat"] = _replay_wide(result["run"], result["cfg"])

    def check(self, result):
        label = "%s seed %d" % (self.name, self.seed)
        run = result.pop("run")
        rmse = checks.rmse_table(result.pop("report"))
        bad = checks.check_run(run, label)
        bad += checks.check_roundtrip(run, result.pop("cols"), result.pop("data"), label)
        bad += self._check_repeat(rmse, label)
        result["tables"] = {str(self.seed): rmse}
        bad += self._check_reference(result["tables"], label)
        result["rmse"] = _rmse_pair(rmse["qukf"])
        result["qukf_lat"] = run.tracks["qukf"].step_seconds
        result["ekf_lat"] = run.tracks["ekf"].step_seconds
        result.pop("cfg")
        return bad

    def loop_steps(self, results):
        return np.concatenate([r["loop_lat"] for r in results])

    def metrics(self, results, setup_s, peak_rss_mb, attempted, failed):
        # A study of one seed is one run: both walls are the run's.
        wall = quiet_wall([r["wall"] for r in results], self.loop_steps(results))
        out = _common(setup_s, peak_rss_mb, attempted, failed, *results[0]["rmse"])
        out.update(_timing(self.step_us(results), wall, wall,
                           *(np.concatenate([r[k] for r in results])
                             for k in ("qukf_lat", "ekf_lat", "wide_lat"))))
        return out


class SeedStudy(Workload):
    """Gate 7 scaled down: several seeds, both filters, median gain."""

    name = "seed_study"
    attempts_per_op = STUDY_SEEDS

    def seeds(self):
        return [STUDY_SEEDS * self.seed + i for i in range(STUDY_SEEDS)]

    def setup(self):
        self.cfg = cfgm.parse_config(self.cfg_path)
        _scenario(self.cfg, self.seeds()[0], 5 * self.cfg.run.t_step)

    def operation(self, op_id):
        t0 = clock()
        per_seed = []
        for s in self.seeds():
            ts = clock()
            ticks = []
            run = _scenario(self.cfg, s, STUDY_DURATION, ticks)
            report = sim.compute_metrics(run)
            te = clock()
            per_seed.append({"seed": s, "wall": te - ts, "loop_lat": np.diff(ticks),
                             "run": run, "report": report})
        gains = {}
        for ch in GAIN_CHANNELS:
            med_q = statistics.median(p["report"].rmse["qukf"][ch] for p in per_seed)
            med_e = statistics.median(p["report"].rmse["ekf"][ch] for p in per_seed)
            gains[ch] = 100.0 * (med_e - med_q) / med_e
        t1 = clock()
        return {"wall": t1 - t0, "per_seed": per_seed, "gains": gains,
                "attempted": len(per_seed)}

    def probe(self, result):
        result["wide_lat"] = _replay_wide(result["per_seed"][0]["run"], self.cfg)

    def check(self, result):
        bad = []
        tables = []
        for p in result["per_seed"]:
            label = "%s scenario seed %d" % (self.name, p["seed"])
            run = p.pop("run")
            rmse = checks.rmse_table(p.pop("report"))
            bad += checks.check_run(run, label)
            tables.append(rmse)
            p["qukf_lat"] = run.tracks["qukf"].step_seconds
            p["ekf_lat"] = run.tracks["ekf"].step_seconds
            p["rmse"] = _rmse_pair(rmse["qukf"])
        if not all(np.isfinite(v) for v in result["gains"].values()):
            bad.append("%s seed %d: non-finite median gain" % (self.name, self.seed))
        label = "%s seed %d" % (self.name, self.seed)
        bad += self._check_repeat(tables, label)
        result["tables"] = {str(p["seed"]): t for p, t in zip(result["per_seed"], tables)}
        bad += self._check_reference(result["tables"], label)
        return bad

    def loop_steps(self, results):
        return np.concatenate([p["loop_lat"] for r in results for p in r["per_seed"]])

    def metrics(self, results, setup_s, peak_rss_mb, attempted, failed):
        seeds = [p for r in results for p in r["per_seed"]]
        # Accuracy pooled over the study's seeds: root mean square of the
        # per-seed values (steadier across studies than their median).
        first = results[0]["per_seed"]
        force, rate = (float(np.sqrt(np.mean([p["rmse"][i] ** 2 for p in first])))
                       for i in (0, 1))
        out = _common(setup_s, peak_rss_mb, attempted, failed, force, rate)
        steps = self.loop_steps(results)
        out.update(_timing(self.step_us(results),
                           quiet_wall([p["wall"] for p in seeds], steps),
                           quiet_wall([r["wall"] for r in results], steps),
                           *(np.concatenate([p[k] for p in seeds])
                             for k in ("qukf_lat", "ekf_lat")),
                           np.concatenate([r["wide_lat"] for r in results])))
        return out


WORKLOADS = {w.name: w for w in (ClosedLoop, SeedStudy)}
