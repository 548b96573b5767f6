"""Self-tests of the benchmark harness.

Run from the repository root with

    python3 -m pytest perfbench/tests -q

The smoke and determinism tests use ``--size tiny`` so the whole file
takes about a minute on two CPUs.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import envinfo  # noqa: E402
import refcheck  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, HbStudy, BallNull, import_hsuq  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600, env=env)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = [json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail ")]
    return json.loads(lines[-1]), detail[0]


@pytest.fixture(scope="module")
def hs():
    return import_hsuq(ROOT / "src")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric_with_unit(workload):
    res, detail = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", "0", "--size", "tiny"))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["attempted"] >= 1 and res["failed"] == 0 and res["correct"] is True
    assert detail["fail_frac"] == 0.0

    res, _ = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--size", "tiny"))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == LAYER
    assert res["failed"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_outputs_and_counts(workload):
    runs = [result_of(bench("--workload", workload, "--seed", "7", "--seconds", "2",
                            "--trace", "1", "--size", "tiny")) for _ in range(2)]
    (a, da), (b, db) = runs
    assert da["outputs_sha256"] == db["outputs_sha256"]
    counts = [k for k, u in LAYER.items() if u == "count"]
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}
    assert a["attempted"] == b["attempted"]


def _eb_reference():
    refs = refcheck.load("eb_study", "full")
    seed = min(refs)
    return refs[seed]


@pytest.mark.parametrize("shift,accepted", [(6e-5, False), (3e-6, True), (-6e-5, False)])
def test_radius_shift_check(shift, accepted):
    ref = _eb_reference()
    observed = copy.deepcopy(ref)
    for key in observed:
        if key.endswith(".half"):
            observed[key] = observed[key] + shift
    res = refcheck.check(observed, ref)
    assert res.ok is accepted, res.problems
    assert res.devs["radius_abs"] == pytest.approx(abs(shift), rel=1e-3)


def test_single_coordinate_radius_shift_is_rejected():
    ref = _eb_reference()
    observed = copy.deepcopy(ref)
    observed["eb-mmle.half"] = observed["eb-mmle.half"].copy()
    observed["eb-mmle.half"][123] += 6e-5
    assert not refcheck.check(observed, ref).ok


def test_unchanged_outputs_pass_with_zero_deviation():
    ref = _eb_reference()
    res = refcheck.check(copy.deepcopy(ref), ref)
    assert res.ok and all(v == 0.0 for v in res.devs.values())


def test_missing_output_is_rejected():
    ref = _eb_reference()
    observed = {k: v for k, v in ref.items() if k != "eb-simple.half"}
    assert not refcheck.check(observed, ref).ok


class _Session:
    def __init__(self, results):
        self.results = results


def test_monte_carlo_check_accepts_new_stream_and_rejects_new_law(hs):
    wl = HbStudy()
    refs = refcheck.load(wl.name, "full")
    op_seed = min(refs)
    config = wl.build(hs, "full", op_seed)
    Y, _ = hs.experiments.generate(config, 0)
    res = hs.experiments.run_method(Y, "hb-tcauchy", wl.alpha, seed=987654321,
                                    hb_iters=config.hb_iters,
                                    hb_burn_in=config.hb_burn_in, want_ball=True)
    observed = wl.outputs(None, _Session([res]))
    check = refcheck.check(observed, refs[op_seed])
    assert check.ok, check.problems
    assert 0.0 < check.devs["tau_mean_z"] < refcheck.TOL["mc_z"]

    widened = dict(observed)
    widened["hb.lo"] = observed["hb.lo"] - 0.5
    widened["hb.hi"] = observed["hb.hi"] + 0.5
    assert not refcheck.check(widened, refs[op_seed]).ok


def test_ball_check_accepts_new_stream(hs):
    wl = BallNull()
    refs = refcheck.load(wl.name, "full")
    op_seed = min(refs)
    inp = wl.build(hs, "full", op_seed)
    ball = hs.credible.credible_ball(inp["Y"], wl.tau, wl.alpha, 1.0, inp["draws"],
                                     np.random.default_rng([op_seed, 99]))
    check = refcheck.check(wl.outputs(ball, None), refs[op_seed])
    assert check.ok, check.problems
    assert 0.0 < check.devs["ball_z"]


def test_tracer_patches_every_lookup_site(hs):
    tracer = tracing.Tracer()
    orig = hs.kernels.score_m
    with tracing.installed(tracer, hs):
        assert hs.tau.score_m is not orig and hs.tau.score_m.__wrapped__ is orig
        assert hs.kernels.score_m is hs.tau.score_m
        hs.tau.mmle(np.random.default_rng(0).standard_normal(50))
        assert tracer.stats == {}          # inactive outside a root span
        with tracer.span("op"):
            hs.tau.mmle(np.random.default_rng(0).standard_normal(50))
    assert hs.tau.score_m is orig and hs.kernels.score_m is orig
    fit = tracer.stats["tau.mmle"]
    assert fit.calls == 1
    assert tracer.stats["kernels.score_m"].calls >= 200
    assert tracer.nested_calls("tau.mmle", "kernels") == (
        tracer.stats["kernels.score_m"].calls + tracer.stats["kernels.log_marginal_lik"].calls)
    assert 0.0 <= fit.self_time <= fit.total <= tracer.stats["op"].total


def test_guard_refuses_process_pool_and_oversubscribed_blas():
    env = envinfo.capture(seed=1)
    assert envinfo.problems(env) == []
    assert envinfo.problems({**env, "hsuq_threads": "4"})
    assert envinfo.problems({**env, "blas_threads": env["nproc"] + 1})
    proc = bench("--workload", "eb_study", "--seed", "1", "--seconds", "1", "--size", "tiny",
                 env={**os.environ, "HSUQ_THREADS": "2"})
    assert proc.returncode != 0 and "HSUQ_THREADS" in proc.stderr
    assert not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "eb_study", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_stays_in_the_upper_quarter():
    import run

    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(15)])[1:] == (80.0, 3)
    assert run.tail([float(i) for i in range(85)])[0] == 74.0


def test_host_speed_scales_each_op_by_its_neighbouring_blocks():
    import hostspeed

    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scales([nominal, nominal, 3.0 * nominal]) == pytest.approx([1.0, 0.5])
    assert 0.0 < hostspeed.block() < 1.0
