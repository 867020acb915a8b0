"""Command-line front end: run scenarios, compare estimators, benchmark.

Exit codes: 0 success, 2 configuration parse failure, 3 validation
failure, 4 estimator failure (a divergence, a singular innovation
covariance or a failed covariance factorization), 5 I/O failure.
"""

import argparse
import os
import sys
import time

import numpy as np

from . import config as cfgm
from . import dynamics as dyn
from . import estimation as est
from . import simulation as sim
from . import telemetry as tlm
from .errors import (DivergenceDetected, FactorizationFailure, ParseError,
                     SingularInnovation, ValidationError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 4  # any estimator failure
EXIT_IO = 5


def _load_config(args):
    path = args.config if args.config else cfgm.default_config_path()
    cfg = cfgm.parse_config(path)
    if getattr(args, "seed", None) is not None:
        cfg.run.seed = args.seed
    if getattr(args, "duration", None) is not None:
        cfg.run.duration = args.duration
    if getattr(args, "estimators", None) is not None:
        cfg.run.estimators = tuple(args.estimators.split(","))
    cfg.validate()  # the overrides may name a filter parse_config did not step
    return cfg


def _execute(cfg):
    return sim.run_scenario(
        cfg.profile,
        params=cfg.system_params(),
        noise=cfg.noise_config(),
        admittance=cfg.admittance,
        dt=cfg.run.t_step,
        duration=cfg.run.duration,
        seed=cfg.run.seed,
        estimators=cfg.run.estimators,
        scaling=cfg.scaling(),
        p0_diag=cfg.filter.p0_diag,
    )


def cmd_run(args):
    cfg = _load_config(args)
    run = _execute(cfg)
    report = sim.compute_metrics(run)
    os.makedirs(args.out, exist_ok=True)
    ext = "csv" if args.format == "csv" else "jsonl"
    tpath = os.path.join(args.out, "telemetry.%s" % ext)
    mpath = os.path.join(args.out, "metrics.json")
    tlm.write_telemetry(run, tpath, format=args.format)
    doc = tlm.build_metrics_document(report, cfgm.config_digest(cfg),
                                     seed=cfg.run.seed)
    tlm.write_metrics_document(doc, mpath)
    print("scenario: %g s at dt=%g, seed %d, estimators %s"
          % (cfg.run.duration, cfg.run.t_step, cfg.run.seed,
             ",".join(cfg.run.estimators)))
    for name in run.tracks:
        print("  %s position rmse [m]: x=%.4g y=%.4g z=%.4g"
              % (name, report.rmse[name]["x_m"], report.rmse[name]["y_m"],
                 report.rmse[name]["z_m"]))
    print("telemetry: %s" % tpath)
    print("metrics:   %s" % mpath)
    return EXIT_OK


def cmd_compare(args):
    cfg = _load_config(args)
    cfg.run.estimators = ("qukf", "ekf")
    run = _execute(cfg)
    report = sim.compute_metrics(run)
    print("seed %d, %g s, window %g s" % (cfg.run.seed, cfg.run.duration,
                                          report.window_s))
    header = "%-10s %12s %12s %12s" % ("channel", "qukf", "ekf", "improve %")
    print(header)
    print("-" * len(header))
    for ch in sim.RMSE_CHANNELS:
        imp = report.improvement_pct[ch]
        print("%-10s %12.5g %12.5g %12s"
              % (ch, report.rmse["qukf"][ch], report.rmse["ekf"][ch],
                 "n/a" if imp is None else "%+.2f" % imp))
    print("convergence time [s] per wrench channel:")
    for ch in sim.WRENCH_CHANNELS:
        a = report.convergence_time_s["qukf"][ch]
        b = report.convergence_time_s["ekf"][ch]
        fmt = lambda v: "never" if v is None else "%.2f" % v
        print("  %-8s qukf=%s ekf=%s" % (ch, fmt(a), fmt(b)))
    return EXIT_OK


def _bench_ukf(pad_dims, cfg):
    phi, gamma, sigma = cfg.scaling()
    return est.QuaternionUkf(params=cfg.system_params(), noise=cfg.noise_config(),
                             dt=cfg.run.t_step, p0_diag=cfg.filter.p0_diag,
                             phi=phi, gamma=gamma, sigma=sigma, pad_dims=pad_dims)


# Steps each pad's filter takes per turn of the interleaved sweep.
SWEEP_TURN = 10


def _step_times(pads, steps, cfg):
    """Hover step times (len(pads), steps) of one QUKF per pad.

    The filters step in turns of SWEEP_TURN steps, so a spell of host load
    falls on every pad alike; timed pad after pad, a spell skews only the
    pads it overlaps, and the sweep's fit with them. Turns of one step
    would distort the widest pads instead: their BLAS calls are large
    enough to use worker threads, which then had to be woken at every step.
    Every other round of turns runs the pads in reverse, so a turn follows
    its own pad's or a neighbour's: a wide filter's turn slows the steps
    after it for a few milliseconds (on a 2-vCPU Xeon, the unpadded step
    read 205 us alone and 290-350 us just after an n=99 turn, recovering
    over about ten steps), which a fixed order put on the narrowest pad.
    """
    filters = list(enumerate(_bench_ukf(pad, cfg) for pad in pads))
    u = dyn.ControlInput.hover(filters[0][1].params)
    meas = est.Measurement.from_state(dyn.BodyState.hover())
    times = np.empty((len(pads), steps))
    for start in range(0, steps, SWEEP_TURN):
        for j, f in filters:
            for i in range(start, min(start + SWEEP_TURN, steps)):
                tic = time.perf_counter()
                f.step(u, meas)
                times[j, i] = time.perf_counter() - tic
        filters.reverse()
    return times


def _bench_sweep(pads, steps, cfg):
    """QUKF step cost over padded error dimensions, the pads stepped in
    turns (see _step_times), with a cubic fit. Returns (dims, median step
    seconds, R^2 of the cubic fit or None for fewer than four pads)."""
    dims = 19.0 + np.array(pads, dtype=float)
    costs = np.median(_step_times(pads, steps, cfg), axis=1)
    if len(pads) < 4:
        return dims, costs, None
    fit = np.polyval(np.polyfit(dims, costs, 3), dims)
    ss_res = float(np.sum((costs - fit) ** 2))
    ss_tot = float(np.sum((costs - costs.mean()) ** 2))
    return dims, costs, 1.0 - ss_res / ss_tot


def cmd_bench(args):
    cfg = _load_config(args)
    times = _step_times([0], args.iterations, cfg)[0]
    mean_ms = times.mean() * 1e3
    p99_ms = float(np.percentile(times, 99)) * 1e3
    print("filter step over %d iterations: mean %.4f ms, p99 %.4f ms"
          % (args.iterations, mean_ms, p99_ms))

    dims, costs, r2 = _bench_sweep(args.pads, args.sweep_steps, cfg)
    for dim, cost in zip(dims, costs):
        print("  error dim %2d: median step %.4f ms" % (dim, cost * 1e3))
    if r2 is None:
        # a cubic needs four points; report the sweep without a fit
        print("cubic fit skipped: need at least 4 sweep dimensions")
        return EXIT_OK
    print("cubic fit over state dimension: R^2 = %.4f" % r2)
    return EXIT_OK


def pad_list(text):
    """--pads: comma-separated distinct nonnegative integers (a repeated
    dimension would leave the sweep's fit ill-posed); ValueError is a usage
    error."""
    pads = [int(p) for p in text.split(",")]
    if min(pads) < 0 or len(set(pads)) < len(pads):
        raise ValueError(text)
    return pads


def positive_int(text, least=1):
    value = int(text)
    if value < least:
        raise ValueError(text)
    return value


def iteration_count(text):
    """--iterations: at least 10000, so 100 timed steps lie beyond the p99."""
    return positive_int(text, 10_000)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="aerowrench",
        description="Closed-loop wrench-estimation scenarios and benchmarks")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--config", help="configuration file (default: built-in)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--duration", type=float, help="override run.duration [s]")
        if out:
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
            p.add_argument("--estimators",
                           help="comma list, e.g. qukf,ekf (default from config)")

    p_run = sub.add_parser("run", help="run one scenario, write telemetry+metrics")
    common(p_run, out=True)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run both estimators, print the comparison")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_b = sub.add_parser("bench", help="time filter steps, fit cost scaling")
    p_b.add_argument("--config", help="configuration file (default: built-in)")
    p_b.add_argument("--iterations", type=iteration_count, default=10_000,
                     help="timing iterations, at least 10000")
    p_b.add_argument("--pads", type=pad_list, default="0,20,40,60,80",
                     help="comma list of padded dimensions for the sweep")
    p_b.add_argument("--sweep-steps", type=positive_int, default=300,
                     help="steps per sweep point")
    p_b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as e:
        print("invalid configuration:", file=sys.stderr)
        for m in e.violations:
            print("  - %s" % m, file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceDetected as e:
        print("divergence: %s" % e, file=sys.stderr)
        return EXIT_DIVERGENCE
    except (SingularInnovation, FactorizationFailure) as e:
        print("estimator failure: %s" % e, file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as e:
        print("i/o error: %s" % e, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
