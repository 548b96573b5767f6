"""The three benchmark workloads: inputs, one operation, and its outputs.

Every operation is keyed by an *op seed* drawn from a pool recorded in the
reference files (``refs/``). The workload seed only chooses the order in
which pool entries are visited, so every op of every run has a recorded
reference output. ``make_refs.py`` adds op seeds to a pool.

An op's outputs are a flat ``{field: ndarray}`` dict; ``refcheck`` holds
the tolerance each field is compared with.
"""

import importlib
import math
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path

import numpy as np

from refcheck import batch_quantile_se
from tracing import capturing

SIZES = ("full", "tiny")


def _signal(hs, n):
    return hs.experiments.NormalAround(2.0 * math.sqrt(2.0 * math.log(n)), 1.0)


class _ScenarioStudy:
    """An op is one ``run_scenario`` replication; outputs come from the
    ``run_method`` results it produced."""

    ref_capture = ()           # extra experiments functions make_refs reads

    def session(self, hs, for_refs=False):
        return _MethodCapture(hs, extra=self.ref_capture if for_refs else ())

    def run(self, hs, config):
        return hs.experiments.run_scenario(config)

    def reference_se(self, hs, raw, session):
        return {}


class EbStudy(_ScenarioStudy):
    """Everyday study traffic: MMLE grid, radius Newton solves and the
    one-coordinate kernel calls of the normal approximation."""

    name = "eb_study"
    methods = ("eb-mmle", "eb-simple", "normal-approx")
    params = {"full": {"n": 400, "p": 20}, "tiny": {"n": 60, "p": 4}}
    # about one op's seconds on two CPUs; fixes the traced run's op count
    nominal_op_s = 0.9
    expected = (
        "experiments.run_scenario", "experiments.generate", "experiments.run_method",
        "experiments.aggregate", "tau.mmle", "tau.simple_estimator",
        "kernels.score_m", "kernels.log_marginal_lik", "kernels.posterior_mean",
        "kernels.posterior_variance", "kernels.log_integral_Ik",
        "posterior.PosteriorBatch.__init__", "posterior.PosteriorBatch.radius_batch",
        "credible.interval_batch", "credible.classify_regions_adaptive",
        "selection.select_by_interval", "selection.select_by_threshold",
        "selection.discovery_report", "selection.shrinkage_weight",
    )

    def build(self, hs, size, op_seed):
        p = self.params[size]
        return hs.experiments.ScenarioConfig(
            n=p["n"], p=p["p"], signal=_signal(hs, p["n"]), reps=1, seed=op_seed,
            methods=self.methods, threshold=True, name=self.name,
        )

    def outputs(self, report, session):
        out = {}
        for res in session.results:
            out[f"{res.method}.tau"] = np.array([res.tau.tau])
            out[f"{res.method}.center"] = np.array([iv.center for iv in res.intervals])
            out[f"{res.method}.half"] = np.array([iv.half_width for iv in res.intervals])
        names, values = [], []
        for method, metrics in report.metrics.items():
            for key, val in metrics.items():
                if key != "runtime_s":
                    names.append(f"{method}.{key}")
                    values.append(float(val))
        out["summary.names"] = np.array(names)
        out["summary.values"] = np.array(values)
        return out


class BallNull:
    """Joint weight draws with a working set above cache size; no tau fit
    and no radius solves."""

    name = "ball_null"
    params = {"full": {"n": 5000, "draws": 2000}, "tiny": {"n": 2000, "draws": 1000}}
    tau = 0.01
    alpha = 0.05
    center_probe = 64          # center coordinates compared one by one
    nominal_op_s = 2.3
    expected = (
        "credible.credible_ball", "credible.ball_radius",
        "posterior.PosteriorBatch.__init__", "posterior.PosteriorBatch.draw_matrix",
        "posterior.PosteriorBatch.draw_weights", "kernels.posterior_mean",
    )

    def build(self, hs, size, op_seed):
        p = self.params[size]
        y = np.random.default_rng([op_seed]).standard_normal(p["n"])
        return {"Y": y, "draws": p["draws"], "op_seed": op_seed}

    def session(self, hs, for_refs=False):
        return nullcontext()

    def run(self, hs, inp):
        rng = np.random.default_rng([inp["op_seed"], 1])
        return hs.credible.credible_ball(inp["Y"], self.tau, self.alpha, 1.0,
                                         inp["draws"], rng)

    def outputs(self, ball, session):
        c = np.asarray(ball.center, dtype=float)
        probe = np.linspace(0, c.size - 1, self.center_probe).astype(int)
        return {
            "ball.radius": np.array([ball.radius]),
            "ball.center_probe": c[probe],
            "ball.center_mean": np.array([math.fsum(c) / c.size]),
        }

    def reference_se(self, hs, ball, session):
        return {"ball.radius.se": np.array([ball.mc_se])}


class HbStudy(_ScenarioStudy):
    """3500 Gibbs sweeps per op and no quadrature: the target for sampler
    changes and the control for kernel and posterior changes."""

    name = "hb_study"
    ref_capture = ("run_chain",)
    params = {"full": {"n": 400, "p": 20, "iters": 3000, "burn_in": 500},
              "tiny": {"n": 60, "p": 4, "iters": 600, "burn_in": 100}}
    alpha = 0.05
    nominal_op_s = 0.55
    expected = (
        "experiments.run_scenario", "experiments.generate", "experiments.run_method",
        "experiments.aggregate", "hierarchical.run_chain", "hierarchical.gibbs_step",
        "hierarchical.hb_marginal_intervals", "hierarchical.hb_ball",
        "hierarchical.mcse_quantile", "tau.simple_estimator",
        "selection.select_by_interval", "selection.discovery_report",
    )

    def build(self, hs, size, op_seed):
        p = self.params[size]
        return hs.experiments.ScenarioConfig(
            n=p["n"], p=p["p"], signal=_signal(hs, p["n"]), reps=1, seed=op_seed,
            methods=("hb-tcauchy",), hb_iters=p["iters"], hb_burn_in=p["burn_in"],
            ball=True, alpha=self.alpha, name=self.name,
        )

    def reference_se(self, hs, report, session):
        (chain,) = session.extra["run_chain"]
        (res,) = session.results
        q = self.alpha / 2.0
        return {
            "hb.tau_mean.se": np.array([hs.hierarchical.mcse_mean(chain.taus)]),
            "hb.lo.se": batch_quantile_se(chain.thetas, q),
            "hb.hi.se": batch_quantile_se(chain.thetas, 1.0 - q),
            "hb.ball_radius.se": np.array([res.ball.mc_se]),
        }

    def outputs(self, report, session):
        (res,) = session.results
        c = np.array([iv.center for iv in res.intervals])
        h = np.array([iv.half_width for iv in res.intervals])
        return {
            "hb.tau_mean": np.array([res.tau.tau]),
            "hb.lo": c - h,
            "hb.hi": c + h,
            "hb.ball_radius": np.array([res.ball.radius]),
        }


WORKLOADS = {w.name: w for w in (EbStudy(), BallNull(), HbStudy())}


class _MethodCapture:
    """Records every ``run_method`` result of one ``run_scenario`` call."""

    def __init__(self, hs, extra=()):
        self.hs = hs
        self.results = []
        self.extra = {attr: [] for attr in extra}
        self._stack = ExitStack()

    def __enter__(self):
        ex = self.hs.experiments
        self._stack.enter_context(capturing(ex, "run_method", self.results))
        for attr, sink in self.extra.items():
            self._stack.enter_context(capturing(ex, attr, sink))
        return self

    def __exit__(self, *exc):
        self._stack.close()
        return False


def schedule(seed, pool):
    """Endless op seeds for one run: shuffled passes over the pool, fixed by seed."""
    rng = np.random.default_rng([int(seed), 17])
    while True:
        for i in rng.permutation(len(pool)):
            yield pool[i]


def import_hsuq(src):
    """Import the hsuq package from the source tree ``src`` and no other."""
    src = Path(src).resolve()
    if not (src / "hsuq" / "__init__.py").is_file():
        raise SystemExit(f"no hsuq package under {src}")
    sys.path.insert(0, str(src))
    hs = importlib.import_module("hsuq")
    if Path(hs.__file__).resolve().parent != src / "hsuq":
        raise SystemExit(f"imported hsuq from {hs.__file__}, expected {src / 'hsuq'}")
    for mod in ("kernels", "posterior", "tau", "credible", "hierarchical",
                "selection", "experiments"):
        importlib.import_module(f"hsuq.{mod}")
    return hs
