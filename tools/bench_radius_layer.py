"""Before/after timings of the radius layer of the EB study, layer by layer.

Each layer runs on fixed inputs in fresh processes of two source trees,
alternating which tree goes first, and the result is one JSON file with a
row per layer: the median seconds per call of each tree, the run count and
the largest absolute movement of the layer's output between the trees.

    python tools/bench_radius_layer.py --before OLD_TREE/src --after src \\
        --runs 10 --out BENCH_radius_layer.json

The inputs are eb_study replications (n = 400, 20 signals around twice the
universal threshold) at their MMLE tau, as in ``perfbench``; the theta law is
also built at tau = 1e-6 on the same rows, where the core has more panels.
Times are the median over 7 repeats within a process, then the median over
processes.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit

LAYERS = {
    "kernels._panel_interp (100 points)": "interp",
    "PosteriorBatch._evaluate (50 rows)": "evaluate50",
    "PosteriorBatch._evaluate (350 rows)": "evaluate350",
    "PosteriorBatch._law (400 rows)": "law",
    "PosteriorBatch._law (400 rows, tau = 1e-6)": "law_tiny",
    "PosteriorBatch.radius_batch (solve, 400 rows)": "solve",
    "PosteriorBatch means + variances (400 rows)": "moments",
    "eb_study op (run_scenario)": "op",
}


def _per_call(fn, number):
    return statistics.median(timeit.repeat(fn, number=number, repeat=7)) / number


def child(src, out):
    """Time every layer of the hsuq under ``src``; save its outputs to ``out``."""
    sys.path.insert(0, src)
    import numpy as np

    from hsuq import experiments, kernels
    from hsuq.posterior import PosteriorBatch
    from hsuq.tau import mmle

    signal = experiments.NormalAround(2.0 * math.sqrt(2.0 * math.log(400)), 1.0)

    def config(seed, methods):
        return experiments.ScenarioConfig(n=400, p=20, signal=signal, reps=1, seed=seed,
                                          methods=methods, threshold=True, name="eb_study")

    Y = experiments.generate(config(3, ("eb-mmle",)), 0)[0]
    tau = mmle(Y).tau
    warm = PosteriorBatch(Y, tau)
    warm._law, warm.means, warm.variances
    r0 = 1.96 * np.sqrt(warm.variances)
    rng = np.random.default_rng(7)
    f, s = rng.uniform(0.0, 1.0, (100, 16)), rng.uniform(-1.0, 1.0, 100)
    outputs, times = {}, {}

    def evaluate(rows):
        idx = np.arange(rows)
        t = warm.means[idx, None] + np.array([1.0, -1.0]) * r0[idx, None]
        return lambda: warm._evaluate(idx, t)

    def law(at):
        return lambda: PosteriorBatch(Y, at)._law["mass"]

    def moments():
        batch = PosteriorBatch(Y, tau)
        return np.stack([batch.means, batch.variances])

    def op():
        report = experiments.run_scenario(config(op_seed[0], ("eb-mmle", "eb-simple",
                                                             "normal-approx")))
        op_seed[0] = op_seed[0] % 16 + 1
        return np.array([v for m in sorted(report.metrics) for k, v in
                         sorted(report.metrics[m].items()) if k != "runtime_s"], dtype=float)

    op_seed = [1]
    layers = {
        "interp": (lambda: kernels._panel_interp(f, s), 200),
        "evaluate50": (evaluate(50), 100),
        "evaluate350": (evaluate(350), 50),
        "law": (law(tau), 10),
        "law_tiny": (law(1e-6), 10),
        "solve": (lambda: warm.radius_batch(0.05), 10),
        "moments": (moments, 10),
        "op": (op, 2),
    }
    for key, (fn, number) in layers.items():
        outputs[key] = np.asarray(fn(), dtype=float)
        times[key] = _per_call(fn, number)
    np.savez(out, **outputs)
    print(json.dumps(times))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old tree")
    ap.add_argument("--after", required=True, help="src directory of the new tree")
    ap.add_argument("--runs", type=int, default=10, help="processes per tree")
    ap.add_argument("--out", default="BENCH_radius_layer.json")
    args = ap.parse_args()
    import numpy as np

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sides = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(args.runs):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            for side in order:
                npz = os.path.join(tmp, f"{side}.npz")
                proc = subprocess.run([sys.executable, __file__, "--child", sides[side], npz],
                                      env=env, check=True, capture_output=True, text=True)
                times[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
        before, after = np.load(os.path.join(tmp, "before.npz")), np.load(os.path.join(tmp, "after.npz"))
        rows = []
        for name, key in LAYERS.items():
            b = statistics.median(t[key] for t in times["before"])
            a = statistics.median(t[key] for t in times["after"])
            rows.append({"layer": name, "before_s": b, "after_s": a, "ratio": a / b,
                         "runs": args.runs,
                         "max_abs_output_move": float(np.max(np.abs(after[key] - before[key])))})
    report = {
        "what": "median seconds per call of each layer, before and after, on one machine",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row in rows:
        print(f"{row['layer']:48s} {row['before_s'] * 1e6:10.1f} us {row['after_s'] * 1e6:10.1f} us"
              f"  x{row['ratio']:.3f}  move {row['max_abs_output_move']:.2e}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # one timing process of one tree
        child(*sys.argv[2:4])
    else:
        main()
