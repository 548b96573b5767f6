#!/usr/bin/env python3
"""Closed-loop benchmark of hsuq's simulation-study paths.

One process runs one workload: each operation starts when the previous
one has finished. Set-up (interpreter start, importing hsuq, building
the inputs, loading the references) is timed in fresh child processes.

    python3 perfbench/run.py --workload eb_study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload eb_study --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of the same ops and prints the per-layer
metrics (see NOTES.md). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
lines before it starting with ``#`` carry the environment and details.
"""

import os

# One BLAS thread: the ops are single-threaded numpy/scipy code, and idle
# BLAS threads on a shared host add scheduler noise. Set before numpy loads;
# an explicit setting in the environment is kept (and checked by envinfo).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 3

import envinfo  # noqa: E402
import hostspeed  # noqa: E402
import refcheck  # noqa: E402
import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS, import_hsuq, schedule  # noqa: E402

DEV_METRICS = {
    "tau_rel": "tau.max_rel_dev",
    "center_abs": "posterior.mean_max_abs_dev",
    "radius_abs": "posterior.radius_max_abs_dev",
    "summary_abs": "experiments.summary_max_abs_dev",
    "ball_z": "credible.ball_dev_in_se",
    "tau_mean_z": "hierarchical.tau_mean_dev_in_se",
    "interval_z": "hierarchical.interval_dev_in_se",
    "hb_ball_z": "hierarchical.ball_dev_in_se",
}
DEV_UNITS = {"tau_rel": "rel", "center_abs": "abs", "radius_abs": "abs",
             "summary_abs": "abs"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="input size; 'tiny' is for the self-tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Context:
    """Everything built before the first timed op."""

    def __init__(self, workload, size, seed):
        self.env = envinfo.capture(seed)
        refused = envinfo.problems(self.env)
        if refused:
            raise SystemExit("refusing to run: " + "; ".join(refused))
        self.hs = import_hsuq(ROOT / "src")
        self.wl = WORKLOADS[workload]
        self.size = size
        self.refs = refcheck.load(workload, size)
        self.pool = sorted(self.refs)
        self.inputs = {s: self.wl.build(self.hs, size, s) for s in self.pool}
        self.order = schedule(seed, self.pool)


def probe_setup(args):
    """Median wall time of fresh processes from spawn to inputs built.
    Not host-speed scaled: it is mostly imports, whose time follows the
    loop's much less than an op's does."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {err.strip() or line}")
        times.append(elapsed)
    return tracing.median(times)


# --------------------------------------------------------------------------
# one operation


class OpRecord:
    __slots__ = ("seconds", "ok", "devs", "digest")

    def __init__(self, seconds, ok, devs, digest):
        self.seconds, self.ok, self.devs, self.digest = seconds, ok, devs, digest


def _digest(outputs):
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(outputs[key].tobytes())
    return h.hexdigest()


def run_op(ctx, op_seed, tracer=None, hooks=None):
    """Time one op, then check its outputs against the reference."""
    wl, hs = ctx.wl, ctx.hs
    inp = ctx.inputs[op_seed]
    raw, error = None, None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer, hs, **hooks))
        session = stack.enter_context(wl.session(hs))
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op"):
                    raw = wl.run(hs, inp)
            else:
                raw = wl.run(hs, inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if tracer is not None:
        seconds = tracer.stats["op"].durations[-1]
    if error is None and threading.active_count() != 1:
        # the host-speed blocks between ops must run alone
        error = f"{threading.active_count() - 1} threads left running after the op"
    if error is None:
        try:
            outputs = wl.outputs(raw, session)
        except Exception as exc:  # malformed result
            error = f"unreadable result: {type(exc).__name__}: {exc}"
    if error is not None:
        print(f"# op {op_seed} failed: {error}", file=sys.stderr)
        return OpRecord(seconds, False, {}, None)
    res = refcheck.check(outputs, ctx.refs[op_seed])
    for problem in res.problems:
        print(f"# op {op_seed} mismatch: {problem}", file=sys.stderr)
    return OpRecord(seconds, res.ok, res.devs, _digest(outputs))


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics


def tail(durations):
    """(value, percentile, samples beyond): the order statistic with ten
    samples above it from 40 samples on; below that, the one with a
    quarter of the samples above it (the maximum under 4 samples), so the
    tail stays in the upper quarter and is never a single outlier."""
    xs = sorted(durations)
    n = len(xs)
    k = n - 1 - min(10, n // 4)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def run_untraced(ctx, seconds):
    """(warm-up record, timed records, host-speed factor per timed op).
    The warm-up op takes the process's first-call costs; it is checked
    but not timed. A host-speed block runs before and after every op."""
    order = iter(ctx.order)
    warm = run_op(ctx, next(order))
    hostspeed.warm()
    records, blocks = [], [hostspeed.block()]
    start = time.perf_counter()
    for op_seed in order:
        records.append(run_op(ctx, op_seed))
        blocks.append(hostspeed.block())
        if time.perf_counter() - start >= seconds:
            break
    return warm, records, hostspeed.scales(blocks)


def end_to_end(records, factors, setup_s):
    """Op times are host-speed scaled (see hostspeed.py); their wall-clock
    figures go to the detail line."""
    wall = [r.seconds for r in records]
    d = [x * f for x, f in zip(wall, factors)]
    t, pct, beyond = tail(d)
    metrics = {
        "ops_per_s": (len(d) / math.fsum(d), "1/s"),
        "op_p50_s": (tracing.median(d), "s"),
        "op_tail_s": (t, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"ops": len(d), "tail_percentile": round(pct, 2), "tail_beyond": beyond,
              "op_s": [round(x, 4) for x in d],
              "wall": {"ops_per_s": len(wall) / math.fsum(wall),
                       "op_p50_s": tracing.median(wall), "op_tail_s": tail(wall)[0],
                       "op_s": [round(x, 4) for x in wall]},
              "host_speed_p50": tracing.median(factors)}
    return metrics, detail


# --------------------------------------------------------------------------
# traced run: per-layer metrics


def trace_hooks(hs):
    import numpy as np

    def y_rows(args, kwargs, result):
        y = args[0] if args else next(iter(kwargs.values()))
        return int(np.size(y))

    def batch_rows(args, kwargs, result):
        return int(args[0].n)

    def mmle_fact(tracer, args, kwargs, result):
        n = np.size(args[0] if args else kwargs["Y"])
        if result.tau <= (1.0 / n) * (1.0 + 1e-9) or result.tau >= 1.0 - 1e-12:
            tracer.facts["tau.boundary"] += 1

    def radius_fact(tracer, args, kwargs, result):
        batch = args[0]
        alpha = float(args[1] if len(args) > 1 else kwargs["alpha"])
        c = batch.means
        mass = batch.cdf_rows(c + result) - batch.cdf_rows(c - result)
        residual = np.abs(mass - (1.0 - alpha))
        tracer.facts["radius.unconverged"] += int(np.sum(~(residual < 1e-9)))

    def ball_fact(tracer, args, kwargs, result):
        tracer.samples.setdefault("ball_se_rel", []).append(result.mc_se / result.radius)

    def chain_fact(tracer, args, kwargs, result):
        taus = result.taus
        se = hs.hierarchical.mcse_mean(taus)
        ess = float(np.var(taus, ddof=1)) / (se * se) if se > 0 else 0.0
        tracer.samples.setdefault("tau_ess", []).append(ess)

    kernel_names = [name for name in tracing.public_functions(hs).values()
                    if name.startswith("kernels.")]
    rows = {name: y_rows for name in kernel_names}
    rows.update({
        "posterior.PosteriorBatch.__init__": batch_rows,
        "posterior.PosteriorBatch.radius_batch": batch_rows,
        "posterior.PosteriorBatch.cdf_rows": batch_rows,
        "posterior.PosteriorBatch.draw_weights": lambda a, k, r: int(r.size),
    })
    observers = {
        "tau.mmle": mmle_fact,
        "posterior.PosteriorBatch.radius_batch": radius_fact,
        "credible.credible_ball": ball_fact,
        "hierarchical.run_chain": chain_fact,
    }
    return {"rows": rows, "observers": observers}


def run_traced(ctx, seconds):
    """Pairs of one untraced and one traced run of the same op; the pair
    count is fixed by --seconds so count metrics repeat exactly. One
    unrecorded op first takes the process's first-call costs, which would
    otherwise land on one side of the overhead comparison."""
    tracer = tracing.Tracer()
    hooks = trace_hooks(ctx.hs)
    pairs = max(1, int(seconds / (2.0 * ctx.wl.nominal_op_s)))
    ops = list(islice(ctx.order, pairs))
    run_op(ctx, ops[0])
    plain, traced = [], []
    for i, op_seed in enumerate(ops):
        if i % 2 == 0:
            plain.append(run_op(ctx, op_seed))
            traced.append(run_op(ctx, op_seed, tracer, hooks))
        else:
            traced.append(run_op(ctx, op_seed, tracer, hooks))
            plain.append(run_op(ctx, op_seed))
    missing = [name for name in ctx.wl.expected
               if name not in tracer.stats or tracer.stats[name].calls == 0]
    if missing:
        raise SystemExit(f"traced run never reached {missing}; "
                         "a function was renamed or is no longer looked up there")
    return tracer, plain, traced


def per_layer(tracer, plain, traced):
    ops = len(traced)
    st = tracer.stats
    empty = tracing.SpanStat()

    def s(name):
        return st.get(name, empty)

    def layer_sum(module, field, skip=()):
        return math.fsum(getattr(v, field) for k, v in tracer.layer(module).items()
                         if k not in skip)

    per_op = lambda x: x / ops  # noqa: E731
    ratio = tracing.ratio
    k_calls = layer_sum("kernels", "calls")
    k_rows = layer_sum("kernels", "rows")
    k_self = layer_sum("kernels", "self_time")
    fit = s("tau.mmle")
    radius = s("posterior.PosteriorBatch.radius_batch")
    draws = s("posterior.PosteriorBatch.draw_weights")
    sweep = s("hierarchical.gibbs_step")
    m = {
        "kernels.calls_per_op": (per_op(k_calls), "count"),
        "kernels.rows_per_op": (per_op(k_rows), "count"),
        "kernels.self_s_per_op": (per_op(k_self), "s"),
        "kernels.rows_per_s": (ratio(k_rows, k_self), "rows/s"),
        "tau.fits_per_op": (per_op(fit.calls), "count"),
        "tau.fit_s_p50": (tracing.median(fit.durations), "s"),
        "tau.self_s_per_op": (per_op(layer_sum("tau", "self_time")), "s"),
        "tau.kernel_calls_per_fit": (ratio(tracer.nested_calls("tau.mmle", "kernels"),
                                           fit.calls), "count"),
        "tau.boundary_frac": (ratio(tracer.facts["tau.boundary"], fit.calls), "frac"),
        "posterior.builds_per_op": (per_op(s("posterior.PosteriorBatch.__init__").calls),
                                    "count"),
        "posterior.build_s_per_op": (per_op(s("posterior.PosteriorBatch.__init__").total),
                                     "s"),
        "posterior.radius_s_per_op": (per_op(radius.total), "s"),
        "posterior.radius_rows_per_s": (ratio(radius.rows, radius.total), "rows/s"),
        "posterior.radius_unconverged_frac": (
            ratio(tracer.facts["radius.unconverged"], radius.rows), "frac"),
        "posterior.draw_s_per_op": (per_op(draws.total), "s"),
        "posterior.weights_per_s": (ratio(draws.rows, draws.self_time), "1/s"),
        "posterior.draw_matrix_self_s_per_op": (
            per_op(s("posterior.PosteriorBatch.draw_matrix").self_time), "s"),
        "credible.interval_self_s_per_op": (per_op(s("credible.interval_batch").self_time),
                                            "s"),
        "credible.ball_self_s_per_op": (
            per_op(s("credible.credible_ball").self_time + s("credible.ball_radius").self_time),
            "s"),
        "credible.ball_mc_se_rel": (tracing.median(tracer.samples.get("ball_se_rel", [])),
                                    "frac"),
        "hierarchical.sweeps_per_op": (per_op(sweep.calls), "count"),
        "hierarchical.sweeps_per_s": (ratio(sweep.calls, sweep.total), "1/s"),
        "hierarchical.chain_self_s_per_op": (per_op(s("hierarchical.run_chain").self_time),
                                             "s"),
        "hierarchical.summary_s_per_op": (
            per_op(s("hierarchical.hb_marginal_intervals").total
                   + s("hierarchical.hb_ball").total), "s"),
        "hierarchical.tau_ess_per_s": (
            ratio(math.fsum(tracer.samples.get("tau_ess", [])), sweep.total), "1/s"),
        "selection.calls_per_op": (per_op(layer_sum("selection", "calls")), "count"),
        "selection.self_s_per_op": (per_op(layer_sum("selection", "self_time")), "s"),
        "experiments.generate_s_per_op": (per_op(s("experiments.generate").total), "s"),
        "experiments.self_s_per_op": (
            per_op(layer_sum("experiments", "self_time", skip=("experiments.generate",))),
            "s"),
        "trace.overhead_frac": (
            math.fsum(r.seconds for r in traced) / math.fsum(r.seconds for r in plain) - 1.0,
            "frac"),
    }
    devs = defaultdict(float)
    for r in plain + traced:
        for key, val in r.devs.items():
            devs[key] = max(devs[key], val)
    for key, name in DEV_METRICS.items():
        m[name] = (devs[key], DEV_UNITS.get(key, "se"))
    return m


# --------------------------------------------------------------------------


def emit(records, metrics, extra=None):
    failed = sum(not r.ok for r in records)
    detail = {"fail_frac": failed / len(records), **(extra or {})}
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload in its own process; prints each metric with its unit."""
    combined, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_frac {result['failed'] / result['attempted']:g}")
        for key, val in result["metrics"].items():
            print(f"#   {name} {key} = {val['value']:.6g} {val['unit']}")
            combined[f"{name}.{key}"] = val
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    if args.setup_probe:
        Context(args.workload, args.size, args.seed)
        print("ready", flush=True)
        return 0
    setup_s = None if args.trace else probe_setup(args)
    ctx = Context(args.workload, args.size, args.seed)
    print("# env " + json.dumps(ctx.env, sort_keys=True))
    if args.trace:
        tracer, plain, traced = run_traced(ctx, args.seconds)
        metrics = per_layer(tracer, plain, traced)
        print("# spans " + json.dumps(tracer.summary(), sort_keys=True))
        digest = hashlib.sha256("".join(r.digest or "-" for r in traced).encode())
        emit(plain + traced, metrics, {"traced_ops": len(traced),
                                       "outputs_sha256": digest.hexdigest()})
    else:
        warm, records, factors = run_untraced(ctx, args.seconds)
        metrics, detail = end_to_end(records, factors, setup_s)
        emit([warm, *records], metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
