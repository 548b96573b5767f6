"""Tests for the replication harness and the command line interface."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsuq.credible import covers, credible_ball, interval_batch
from hsuq.experiments import (
    THEORY_CHECKS,
    FixedValue,
    FromDistribution,
    NormalAround,
    RepReport,
    ScenarioConfig,
    ThreeGroup,
    UnboundedScale,
    aggregate,
    cli_main,
    generate,
    parse_config,
    report_to_csv,
    report_to_json,
    run_method,
    run_scenario,
    verify_theory,
)
from hsuq.hierarchical import Chain, hb_marginal_intervals
from hsuq.kernels import GlobalScale, SparsityRate, posterior_mean, posterior_variance


def _config(**overrides):
    base = dict(n=60, p=6, signal=FixedValue(4.0), reps=2, seed=3,
                methods=("eb-mmle",), name="t")
    base.update(overrides)
    return ScenarioConfig(**base)


class TestSignals:
    def test_three_group_values(self):
        sig = ThreeGroup((2, 2, 2))
        small, medium, large = sig.values(400, 6)
        assert small == 1.0 / 400
        tn = SparsityRate(400, 6).tau_n
        assert_allclose(medium, 0.5 * math.sqrt(2.0 * math.log(1.0 / tn)), rtol=1e-14)
        assert_allclose(large, 1.5 * math.sqrt(2.0 * math.log(400)), rtol=1e-14)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="unknown signal distribution"):
            FromDistribution("lognormal")

    def test_unbounded_scale_allows_large_values(self):
        assert UnboundedScale(1.7).tau == 1.7
        with pytest.raises(ValueError):
            UnboundedScale(0.0)
        with pytest.raises(ValueError):
            GlobalScale(1.7)


class TestGenerate:
    def test_deterministic_per_rep(self):
        cfg = _config()
        Y1, t1 = generate(cfg, 1)
        Y2, t2 = generate(cfg, 1)
        assert np.array_equal(Y1, Y2)
        assert np.array_equal(t1, t2)
        Y3, _ = generate(cfg, 2)
        assert not np.array_equal(Y1, Y3)

    def test_fixed_signal_layout(self):
        Y, theta = generate(_config(), 0)
        assert theta.shape == (60,)
        assert np.all(theta[:6] == 4.0)
        assert np.all(theta[6:] == 0.0)
        assert not np.array_equal(Y, theta)

    def test_pure_noise_when_p_zero(self):
        cfg = _config(p=0, signal=FixedValue(4.0))
        Y, theta = generate(cfg, 0)
        assert np.all(theta == 0.0)
        # with no signal coordinates the noise stream is untouched
        expected = np.random.default_rng([cfg.seed, 0]).standard_normal(60)
        assert np.array_equal(Y, expected)

    def test_three_group_layout(self):
        sig = ThreeGroup((2, 3, 4))
        cfg = _config(n=100, p=9, signal=sig)
        _, theta = generate(cfg, 0)
        small, medium, large = sig.values(100, 9)
        assert np.all(theta[:2] == small)
        assert np.all(theta[2:5] == medium)
        assert np.all(theta[5:9] == large)
        assert np.all(theta[9:] == 0.0)

    def test_random_signals_reproducible(self):
        cfg = _config(signal=NormalAround(3.0, 0.5))
        _, t1 = generate(cfg, 4)
        _, t2 = generate(cfg, 4)
        assert np.array_equal(t1, t2)
        assert len(np.unique(t1[:6])) == 6

    @pytest.mark.parametrize("signal, draw", [
        (FixedValue(4.0), lambda rng, n, p: np.full(p, 4.0)),
        (NormalAround(3.0, 0.5), lambda rng, n, p: rng.normal(3.0, 0.5, p)),
        (ThreeGroup((1, 2, 3)), lambda rng, n, p: np.array(
            [1.0 / n]
            + [0.5 * math.sqrt(2.0 * math.log(1.0 / SparsityRate(n, p).tau_n))] * 2
            + [1.5 * math.sqrt(2.0 * math.log(n))] * 3)),
        (FromDistribution("laplace"), lambda rng, n, p: rng.laplace(0.0, 3.0, p)),
        (FromDistribution("gamma"), lambda rng, n, p: rng.gamma(2.0, 2.0, p)),
        (FromDistribution("cauchy"), lambda rng, n, p: 5.0 * rng.standard_cauchy(p)),
    ], ids=["fixed", "normal", "three_group", "laplace", "gamma", "cauchy"])
    def test_every_family_draws_signals_then_noise(self, signal, draw):
        cfg = _config(n=40, p=6, signal=signal)
        for rep in (0, 3):
            Y, theta = generate(cfg, rep)
            rng = np.random.default_rng([cfg.seed, rep])
            want = np.zeros(40)
            want[:6] = draw(rng, 40, 6)
            assert np.array_equal(theta, want)
            assert np.array_equal(Y, want + rng.standard_normal(40))


class TestScenarioConfig:
    def test_three_group_counts_must_sum_to_p(self):
        with pytest.raises(ValueError, match="sum to p"):
            _config(p=5, signal=ThreeGroup((1, 1, 1)))

    def test_three_group_needs_p_below_n(self):
        # tau_n is 0 at p = n, where the medium group has no value
        with pytest.raises(ValueError, match="three_group:1,1,1 needs p < n"):
            _config(n=3, p=3, signal=ThreeGroup((1, 1, 1)))

    def test_rejects_bad_level_and_blowup(self):
        for alpha in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                _config(alpha=alpha)
        with pytest.raises(ValueError, match="blow-up"):
            _config(blowup_L=math.nan)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            _config(methods=("eb-mmle", "lasso"))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="0 <= p <= n"):
            _config(p=61)
        with pytest.raises(ValueError, match="reps"):
            _config(reps=0)
        with pytest.raises(ValueError, match="alphanumeric"):
            _config(name="bad name!")

    def test_signal_must_be_a_signal_spec(self):
        with pytest.raises(ValueError, match="unrecognized signal spec 'fixed:4'"):
            _config(signal="fixed:4")

    def test_fixed_method_string_accepted(self):
        cfg = _config(methods=("fixed:0.25",))
        assert cfg.methods == ("fixed:0.25",)

    @pytest.mark.parametrize("method, reason", [
        ("fixed:abc", "could not convert string to float"),
        ("fixed:2", "tau must lie in"),
    ])
    def test_bad_fixed_scale_rejected_when_built(self, method, reason):
        # before any replication runs, and naming the method
        with pytest.raises(ValueError, match=f"method '{method}'.*{reason}"):
            _config(methods=("eb-mmle", method))
        text = f"n = 50\np = 2\nsignal = fixed:3\nreps = 1\nseed = 0\nmethods = {method}"
        with pytest.raises(ValueError, match=f"method '{method}'"):
            parse_config(text)

    @pytest.mark.parametrize("overrides, key", [
        (dict(methods=("hb-tcauchy",), hb_iters=0), "hb_iters"),
        (dict(methods=("eb-mmle", "hb-cauchy"), hb_iters=99), "hb_iters"),
        (dict(methods=("hb-tuniform",), hb_burn_in=-1), "hb_burn_in"),
        (dict(methods=("eb-mmle", "hb-tcauchy"), ball=True, ball_draws=500), "ball_draws"),
    ])
    def test_bad_chain_and_ball_sizes_rejected_when_built(self, overrides, key):
        with pytest.raises(ValueError, match=key):
            _config(**overrides)

    def test_chain_and_ball_sizes_checked_only_where_used(self):
        # no chain runs without an hb-* method, and an HB ball summarizes
        # the chain's own draws rather than ball_draws fresh ones
        _config(methods=("eb-mmle",), hb_iters=0, hb_burn_in=-1)
        _config(methods=("hb-tcauchy",), ball=True, ball_draws=10, hb_iters=100,
                hb_burn_in=0)
        _config(methods=("eb-mmle",), ball_draws=10)

    def test_bad_chain_size_in_a_config_file_names_the_key(self):
        text = ("n = 50\np = 2\nsignal = fixed:3\nreps = 1\nseed = 0\n"
                "methods = hb-tcauchy\nhb_iters = 0")
        with pytest.raises(ValueError, match="hb_iters"):
            parse_config(text)


class TestRunMethod:
    def test_fixed_scale_matches_interval_batch(self):
        Y, _ = generate(_config(), 0)
        res = run_method(Y, "fixed:0.1", 0.05)
        direct = interval_batch(Y, GlobalScale(0.1), 0.05)
        for a, b in zip(res.intervals, direct):
            assert a.center == b.center
            assert a.half_width == b.half_width
        assert res.tau.tau == 0.1

    def test_normal_approx_uses_exact_moments(self):
        Y, _ = generate(_config(), 0)
        res = run_method(Y, "normal-approx", 0.05)
        t = res.tau.tau
        for y, iv in zip(Y, res.intervals):
            assert_allclose(iv.center, posterior_mean(y, t), rtol=1e-14)
            assert_allclose(iv.half_width,
                            1.96 * math.sqrt(posterior_variance(y, t)), rtol=1e-14)

    def test_every_method_returns_an_interval_record_array(self):
        Y, _ = generate(_config(n=30, p=3), 0)
        for method in ("eb-mmle", "eb-simple", "normal-approx", "fixed:0.1",
                       "hb-cauchy", "hb-tcauchy", "hb-tuniform"):
            res = run_method(Y, method, 0.05, seed=2, hb_iters=200, hb_burn_in=100)
            assert isinstance(res.intervals, np.recarray)
            assert res.intervals.dtype.names == ("center", "half_width")
            assert res.intervals.dtype["center"] == np.float64
            assert res.intervals.dtype["half_width"] == np.float64
            assert len(res.intervals) == 30

    def test_eb_methods_reject_nonpositive_blowup(self):
        Y, _ = generate(_config(), 0)
        for method in ("eb-mmle", "eb-simple", "normal-approx", "fixed:0.1"):
            for L in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="blow-up"):
                    run_method(Y, method, 0.05, L=L)

    def test_unknown_method(self):
        Y, _ = generate(_config(), 0)
        with pytest.raises(ValueError, match="unknown method"):
            run_method(Y, "bonferroni", 0.05)

    def test_hb_method_runs_and_tags_scale(self):
        Y, _ = generate(_config(n=30, p=3), 0)
        res = run_method(Y, "hb-tuniform", 0.05, seed=2, hb_iters=400, hb_burn_in=100)
        assert len(res.intervals) == 30
        assert isinstance(res.tau, GlobalScale)
        res = run_method(Y, "hb-cauchy", 0.05, seed=2, hb_iters=400, hb_burn_in=100)
        assert isinstance(res.tau, UnboundedScale)


def _report(method="m", coverage=1.0, fdr=0.0, tau=0.1, hits=0, totals=0):
    labels = ("small", "medium", "large", "unclassified")
    return RepReport(
        method=method, coverage_all=coverage, coverage_nonzero=coverage,
        coverage_zero=coverage, length_all=1.0, length_nonzero=1.0,
        length_zero=1.0, tau=tau, fdr=fdr,
        detect_hits={k: hits for k in labels},
        detect_totals={k: totals for k in labels},
    )


class TestAggregate:
    def test_single_report_passthrough(self):
        out = aggregate([_report(coverage=0.75, fdr=0.2, tau=0.3)])
        assert out["m"]["coverage_all"] == 0.75
        assert out["m"]["fdr"] == 0.2
        assert out["m"]["mean_tau"] == 0.3

    def test_hand_computed_mean(self):
        reports = [_report(coverage=c) for c in (0.5, 0.75, 1.0)]
        assert aggregate(reports)["m"]["coverage_all"] == 0.75

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(8)
        reports = [_report(coverage=float(c)) for c in rng.uniform(size=17)]
        a = aggregate(reports)["m"]["coverage_all"]
        b = aggregate(reports[::-1])["m"]["coverage_all"]
        assert a == b

    def test_detection_rates_skip_empty_denominators(self):
        with_signals = _report(hits=3, totals=4)
        out = aggregate([with_signals, _report(hits=0, totals=0)])
        # only the replication that had signals contributes
        assert out["m"]["detect_large"] == 0.75
        assert out["m"]["detect_small_medium"] == 0.75

    def test_none_metrics_dropped(self):
        rep = RepReport(method="m", coverage_all=1.0, coverage_nonzero=None,
                        coverage_zero=1.0, length_all=1.0, length_nonzero=None,
                        length_zero=1.0, tau=0.1, fdr=0.0,
                        detect_hits={}, detect_totals={})
        out = aggregate([rep])
        assert "coverage_nonzero" not in out["m"]
        assert "detect_large" not in out["m"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to aggregate"):
            aggregate([])


class TestRunScenario:
    def test_reports_and_echo(self):
        cfg = _config(methods=("eb-mmle", "fixed:0.1"), threshold=True)
        rep = run_scenario(cfg)
        assert set(rep.metrics) == {"eb-mmle", "fixed:0.1", "threshold"}
        assert rep.scenario["signal"] == "fixed:4"
        assert rep.scenario["reps"] == 2
        # the threshold row carries selection metrics only
        assert "coverage_all" not in rep.metrics["threshold"]
        assert "fdr" in rep.metrics["threshold"]

    def test_level_above_half_runs_every_method_kind(self):
        # one level rule, 0 < alpha < 1, for EB radii, normal quantiles and HB sets
        cfg = _config(n=30, p=3, reps=1, alpha=0.7, hb_iters=200, hb_burn_in=100,
                      methods=("eb-mmle", "normal-approx", "hb-tcauchy"))
        rep = run_scenario(cfg)
        assert set(rep.metrics) == {"eb-mmle", "normal-approx", "hb-tcauchy"}
        assert all(0.0 <= m["coverage_all"] <= 1.0 for m in rep.metrics.values())

    def test_metric_keys_in_report_order(self):
        cfg = _config(n=40, p=4, signal=ThreeGroup((1, 1, 2)),
                      methods=("eb-mmle", "fixed:0.1", "hb-tcauchy"), threshold=True,
                      ball=True, ball_draws=1000, hb_iters=200, hb_burn_in=100)
        rep = run_scenario(cfg)
        detect = ["detect_small", "detect_medium", "detect_large", "detect_small_medium"]
        interval = ["coverage_all", "coverage_nonzero", "coverage_zero", "length_all",
                    "length_nonzero", "length_zero", "mean_tau", "fdr", "runtime_s",
                    "ball_coverage", "ball_radius"] + detect
        assert list(rep.metrics) == ["eb-mmle", "fixed:0.1", "hb-tcauchy", "threshold"]
        for method in ("eb-mmle", "fixed:0.1", "hb-tcauchy"):
            assert list(rep.metrics[method]) == interval
        assert list(rep.metrics["threshold"]) == ["mean_tau", "fdr", "runtime_s"] + detect

    def test_serialization_deterministic(self):
        cfg = _config()
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert report_to_csv(a) == report_to_csv(b)
        assert report_to_json(a) == report_to_json(b)

    def test_process_pool_output_matches_serial(self, monkeypatch):
        cfg = _config(reps=3, methods=("eb-mmle", "normal-approx"), threshold=True)
        monkeypatch.setenv("HSUQ_THREADS", "1")
        serial = report_to_json(run_scenario(cfg))
        monkeypatch.setenv("HSUQ_THREADS", "2")
        assert report_to_json(run_scenario(cfg)) == serial

    @pytest.mark.parametrize("value", ["abc", "-3", "0", "", "1.5"])
    def test_rejects_a_bad_thread_count(self, value, monkeypatch, tmp_path, capsys):
        # a non-integer or a count below 1 names the variable and its value
        monkeypatch.setenv("HSUQ_THREADS", value)
        with pytest.raises(ValueError, match=f"HSUQ_THREADS .* got {value!r}"):
            run_scenario(_config())
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("name = t\nn = 60\np = 6\nsignal = fixed:4\nreps = 2\nseed = 3\n"
                       "methods = eb-mmle\n")
        assert cli_main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert f"HSUQ_THREADS must be an integer >= 1, got {value!r}" in capsys.readouterr().err

    def test_one_mmle_fit_per_replication(self, monkeypatch):
        import hsuq.experiments

        real = hsuq.experiments.mmle
        fits = []
        monkeypatch.setattr(hsuq.experiments, "mmle", lambda Y: fits.append(1) or real(Y))
        monkeypatch.setenv("HSUQ_THREADS", "1")
        cfg = _config(reps=3, methods=("eb-mmle", "normal-approx"), threshold=True)
        rep = run_scenario(cfg)
        assert len(fits) == 3
        taus = {rep.metrics[m]["mean_tau"] for m in ("eb-mmle", "normal-approx", "threshold")}
        assert len(taus) == 1

    def test_runtime_not_serialized(self):
        rep = run_scenario(_config(reps=1))
        assert "runtime_s" in rep.metrics["eb-mmle"]
        assert "runtime_s" not in report_to_csv(rep)
        assert "runtime_s" not in report_to_json(rep)

    def test_threshold_runtime_times_the_selection(self, monkeypatch):
        import hsuq.experiments

        real = hsuq.experiments.select_by_threshold

        def slow(Y, tau):
            time.sleep(0.05)
            return real(Y, tau)

        monkeypatch.setattr(hsuq.experiments, "select_by_threshold", slow)
        monkeypatch.setenv("HSUQ_THREADS", "1")
        rep = run_scenario(_config(reps=1, threshold=True))
        assert rep.metrics["threshold"]["runtime_s"] >= 0.05

    def test_csv_shape(self):
        rep = run_scenario(_config(reps=1))
        lines = report_to_csv(rep).splitlines()
        assert lines[0] == "scenario,method,metric,value"
        assert all(line.startswith("t,eb-mmle,") for line in lines[1:])

    def test_gamma_scenario_notes_sign_convention(self):
        rep = run_scenario(_config(signal=FromDistribution("gamma"), reps=1))
        assert rep.scenario["note"] == (
            "gamma signals drawn positive, not sign-symmetrized")
        assert report_to_csv(rep).startswith("# gamma signals drawn positive")
        assert "note" in json.loads(report_to_json(rep))["scenario"]
        # other signal families carry no note line
        assert "note" not in run_scenario(_config(reps=1)).scenario


class TestConfigParsing:
    def test_round_trip(self):
        text = """
        # comment line
        name = demo
        n = 100            # trailing comment
        p = 10
        signal = three_group:3,3,4
        reps = 5
        seed = 11
        methods = eb-mmle, fixed:0.2
        threshold = yes
        """
        cfg = parse_config(text)
        assert cfg.name == "demo"
        assert cfg.signal == ThreeGroup((3, 3, 4))
        assert cfg.methods == ("eb-mmle", "fixed:0.2")
        assert cfg.threshold is True

    def test_absent_keys_keep_the_dataclass_defaults(self):
        cfg = parse_config("n = 50\np = 2\nsignal = fixed:3\nreps = 4\nseed = 9")
        assert cfg == ScenarioConfig(n=50, p=2, signal=FixedValue(3.0), reps=4, seed=9)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key 'widgets'"):
            parse_config("widgets = 3")

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("n = 10")

    def test_signal_strings(self):
        base = "n = 50\np = 2\nreps = 1\nseed = 0\n"
        cfg = parse_config(base + "signal = normal:4:0.5")
        assert cfg.signal == NormalAround(4.0, 0.5)
        cfg = parse_config(base + "signal = cauchy")
        assert cfg.signal == FromDistribution("cauchy")
        with pytest.raises(ValueError, match="unrecognized signal"):
            parse_config(base + "signal = spikes")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just words")

    def test_bad_bool(self):
        base = "n = 50\np = 2\nsignal = fixed:3\nreps = 1\nseed = 0\n"
        with pytest.raises(ValueError, match="boolean"):
            parse_config(base + "threshold = maybe")

    def test_false_spellings_of_a_bool(self):
        base = "n = 50\np = 2\nsignal = fixed:3\nreps = 1\nseed = 0\n"
        for text in ("no", "False", "0"):
            assert parse_config(base + f"threshold = {text}").threshold is False

    @pytest.mark.parametrize("signal, reason", [
        ("normal:1:2:3", r"normal signal takes A\[:sd\], got 'normal:1:2:3'"),
        ("three_group:1,2", "three_group needs three nonnegative counts, got 'three_group:1,2'"),
    ])
    def test_malformed_signal_parameters(self, signal, reason):
        with pytest.raises(ValueError, match=reason):
            parse_config(f"n = 50\np = 3\nreps = 1\nseed = 0\nsignal = {signal}")

    @pytest.mark.parametrize("line, reason", [
        ("n = 1", "need n >= 2, got 1"),
        ("methods = ,", "need at least one method"),
    ])
    def test_values_checked_by_the_scenario(self, line, reason):
        text = "n = 50\np = 1\nsignal = fixed:3\nreps = 1\nseed = 0\n"
        with pytest.raises(ValueError, match=reason):
            parse_config(text + line)


class TestVerifyTheory:
    def test_registry_names(self):
        assert set(THEORY_CHECKS) == {
            "kernel-identity", "oracle-moments", "score-bounds", "radius-bound",
            "moment-constant", "region-coverage", "ball-coverage",
            "kernel-expansions",
        }

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            verify_theory("p-equals-np")

    def test_kernel_expansions_check_passes(self):
        result = verify_theory("kernel-expansions")
        assert result.passed
        assert result.measured["max_series_error"] < 1e-9

    def test_checks_without_a_timer_report_runtime(self):
        for name in ("kernel-expansions", "score-bounds"):
            assert verify_theory(name).measured["runtime_s"] > 0.0

    def test_unknown_parameter_names_the_check_and_key(self):
        with pytest.raises(ValueError, match=r"check 'moment-constant' takes "
                                             r"\['n', 'tau'\], got 'nn'"):
            verify_theory("moment-constant", {"nn": "10"})
        with pytest.raises(ValueError, match=r"takes \[\], got 'tau'"):
            verify_theory("kernel-expansions", {"tau": "0.1"})

    def test_ill_typed_value_names_the_check_and_key(self):
        with pytest.raises(ValueError, match=r"check 'moment-constant' parameter 'n' "
                                             r"must be int, got 'abc'"):
            verify_theory("moment-constant", {"n": "abc"})

    def test_values_take_the_type_of_their_default(self):
        # the threshold-scale ratio is 1.107 at tau = 1e-6 (1.193 at 1e-4)
        result = verify_theory("score-bounds", {"tau": "1e-6"})
        assert abs(result.measured["zeta_ratio"] - 1.107) < 1e-3

    def test_a_check_past_its_time_limit_fails(self, monkeypatch):
        check, defaults, _, note = THEORY_CHECKS["kernel-expansions"]
        monkeypatch.setitem(THEORY_CHECKS, "kernel-expansions", (check, defaults, 0.0, note))
        result = verify_theory("kernel-expansions")
        assert not result.passed
        assert result.measured["max_series_error"] < 1e-9


class TestCli:
    def _write_obs(self, path, values):
        path.write_text("\n".join(f"{v:.10g}" for v in values) + "\n")

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_fit_tau_on_zero_data(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        self._write_obs(obs, [0.0, 0.0, 0.0])
        assert cli_main(["fit-tau", str(obs)]) == 0
        assert capsys.readouterr().out.strip() == "0.333333333333"

    def test_fit_tau_missing_file(self, tmp_path, capsys):
        assert cli_main(["fit-tau", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fit_tau_rejects_junk(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        obs.write_text("1.0\nbanana\n")
        assert cli_main(["fit-tau", str(obs)]) == 2
        assert "not a number" in capsys.readouterr().err

    def test_intervals_csv(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        self._write_obs(obs, [3.0, 0.5, -1.0])
        assert cli_main(["intervals", str(obs), "--tau", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,y,center,half_width,lower,upper"
        assert len(lines) == 5
        assert lines[-1] == "# tau 0.1"

    def test_select_csv(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        self._write_obs(obs, [6.0, 0.1, -0.3, 5.5])
        assert cli_main(["select", str(obs), "--rule", "threshold",
                         "--tau", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,y,selected"
        flags = [line.split(",")[2] for line in lines[1:]]
        assert flags == ["1", "0", "0", "1"]

    def test_verify_list(self, capsys):
        assert cli_main(["verify", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert "kernel-identity" in names
        assert names == sorted(names)

    def test_verify_pass_and_fail_exit_codes(self, capsys):
        assert cli_main(["verify", "kernel-expansions"]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        # the threshold-scale ratio sits outside its asymptotic band
        assert cli_main(["verify", "score-bounds"]) == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_verify_rejects_bad_parameters(self, capsys):
        assert cli_main(["verify", "moment-constant", "nn=10"]) == 2
        assert "got 'nn'" in capsys.readouterr().err
        assert cli_main(["verify", "moment-constant", "n=abc"]) == 2
        assert "parameter 'n'" in capsys.readouterr().err
        assert cli_main(["verify", "moment-constant", "nn"]) == 2
        assert capsys.readouterr().err == (
            "error: check parameters look like key=value, got 'nn'\n")

    def test_simulate_outputs_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "name = cli_smoke\nn = 60\np = 6\nsignal = fixed:4\n"
            "reps = 2\nseed = 3\nmethods = eb-mmle\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["simulate", "--config", str(cfg),
                         "--out-dir", str(out1)]) == 0
        assert cli_main(["simulate", "--config", str(cfg),
                         "--out-dir", str(out2)]) == 0
        capsys.readouterr()
        csv_a = (out1 / "cli_smoke_metrics.csv").read_bytes()
        csv_b = (out2 / "cli_smoke_metrics.csv").read_bytes()
        assert csv_a == csv_b
        json_a = (out1 / "cli_smoke_summary.json").read_bytes()
        json_b = (out2 / "cli_smoke_summary.json").read_bytes()
        assert json_a == json_b

    def test_simulate_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 10\nwidgets = 3\n")
        assert cli_main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_hb_prints_tau_mean(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        rng = np.random.default_rng(5)
        self._write_obs(obs, np.concatenate([[4.0, 4.5], rng.standard_normal(18)]))
        chain_csv = tmp_path / "chain.csv"
        assert cli_main(["hb", str(obs), "--iters", "600", "--burnin", "100",
                         "--chain-csv", str(chain_csv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,y,center,half_width,lower,upper"
        assert lines[-1].startswith("# tau_mean ")
        assert chain_csv.read_text().startswith("iter,tau,theta_1")

    def test_ball_reports_radius(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        rng = np.random.default_rng(6)
        self._write_obs(obs, rng.standard_normal(40))
        assert cli_main(["ball", str(obs), "--tau", "0.2",
                         "--draws", "1200"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("radius ")
        assert "mc_se " in out

    def test_fit_tau_simple_counts_exceedances(self, tmp_path, capsys):
        # four of twenty values pass sqrt(2 log 20), so tau = 4 / (c1 * 20)
        obs = tmp_path / "obs.txt"
        self._write_obs(obs, [10.0, -10.0] * 2 + [0.0] * 16)
        assert cli_main(["fit-tau", str(obs), "--method", "simple"]) == 0
        assert capsys.readouterr().out == "0.1\n"
        assert cli_main(["fit-tau", str(obs), "--method", "simple", "--c1", "3"]) == 0
        assert capsys.readouterr().out == "0.0666666666667\n"

    def test_select_interval_rule(self, tmp_path, capsys):
        Y = [6.0, 0.1, -0.3, 5.5]
        obs = tmp_path / "obs.txt"
        self._write_obs(obs, Y)
        assert cli_main(["select", str(obs), "--rule", "interval", "--tau", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        excludes_zero = ~covers(interval_batch(Y, 0.1, alpha=0.05), 0.0)
        assert lines == ["index,y,selected"] + [
            f"{i},{y:g},{int(s)}" for i, (y, s) in enumerate(zip(Y, excludes_zero))]
        assert excludes_zero.tolist() == [True, False, False, True]

    def test_blank_lines_in_the_observation_file_are_skipped(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        obs.write_text("3.0\n\n0.5\n   \n-1.0\n")
        assert cli_main(["intervals", str(obs), "--tau", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[:2] for line in lines[1:-1]] == [
            ["0", "3"], ["1", "0.5"], ["2", "-1"]]

    def test_one_observation_is_an_input_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        obs.write_text("2.0\n")
        assert cli_main(["intervals", str(obs), "--tau", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {obs}: need at least two observations, got 1\n"

    def test_numerical_failure_exits_one(self, tmp_path, capsys):
        # no finite radius holds all but 1e-20 of the posterior mass
        obs = tmp_path / "obs.txt"
        self._write_obs(obs, [3.0, 0.5, -1.0])
        assert cli_main(["intervals", str(obs), "--tau", "0.1", "--alpha", "1e-20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: no finite root reaches the target mass\n")


def test_infinite_blowup_is_rejected_everywhere(tmp_path, capsys):
    # an infinite L would give infinite half-widths and a ball holding every point
    Y = np.array([3.0, 0.5, -1.0])
    chain = Chain(thetas=np.zeros((100, 3)), taus=np.full(100, 0.1), burn_in=0, thin=1, seed=0)
    calls = (
        lambda: interval_batch(Y, 0.1, 0.05, L=math.inf),
        lambda: credible_ball(Y, 0.1, 0.05, math.inf, 1000, np.random.default_rng(0)),
        lambda: hb_marginal_intervals(chain, 0.05, L=math.inf),
        lambda: _config(blowup_L=math.inf),
    )
    for call in calls:
        with pytest.raises(ValueError, match="blow-up factor must be positive and finite"):
            call()
    obs = tmp_path / "obs.txt"
    obs.write_text("3.0\n0.5\n-1.0\n")
    assert cli_main(["intervals", str(obs), "--tau", "0.1", "--L", "inf"]) == 2
    assert "blow-up factor must be positive and finite" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli_without_warnings():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hsuq", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fit-tau" in proc.stdout
