"""Sweep orchestration: configs, determinism, cell isolation, CLI contract."""

import importlib.util
import inspect
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import SLACK, run_fresh, tile_bytes, traced_peak

from ntkorigin import (
    ConfigError,
    Direction,
    LinearTarget,
    QuadraticTarget,
    SinusoidalTarget,
    agnosticism_rate,
    calculus,
    kernel,
    runner,
    sample_features,
    shift_set,
)
from ntkorigin.cli import main
from ntkorigin.configs import DEFAULTS, default_config, overlay_config
from ntkorigin.runner import (
    RUNNERS,
    load_config,
    realization_from_config,
    render_csv,
    run_farfield,
    run_kappa,
    run_theorem1,
    target_from_config,
    write_csv,
)


# Small configs with at least two cells each; with `kernel.DIAGONAL_CHUNK` at
# 1000, as the threads test sets it, the kappa diagonal spans three chunks, the
# last one partial.
SMALL = {
    "theorem1": {"t_list": [100.0, 1000.0], "n_directions": 2, "include_shift_direction": False,
                 "include_orthogonal": False, "profile_points": 11},
    "farfield": {"n_directions": 3},
    "gram-limit": {"k_features": 2000, "kappa_mc_features": 1000},
    "inverse-check": {"n_list": [1, 2], "kappa_list": [0.0, 1.0], "t_list": [10.0, 100.0], "sigma_instances": 5},
    "kappa": {"pair_dims": [1, 2], "pairs_per_dim": 2, "k_features": 1000, "diag_points_per_dim": 1,
              "diag_k_features": 2500, "kappa_directions": 2, "kappa_k_features": 1000},
    "mlp-compare": {"widths": [16, 64], "max_steps": 200, "eval_points": 2},
}

# A config value per subcommand that makes at least one cell raise.
FAILING = {
    "theorem1": {"t_list": [100.0, -5.0]},
    "farfield": {"degmax": 1},
    "gram-limit": {"t_list": [100.0, -5.0]},
    "inverse-check": {"stencil_max_order": "x"},
    "kappa": {"k_features": 0},
    "mlp-compare": {"widths": [0, 16]},
}


def small_config(sub, **overrides):
    cfg = default_config(sub)
    cfg.update(SMALL[sub])
    cfg.update(overrides)
    return cfg


def small_theorem1(**overrides):
    return small_config("theorem1", **{"t_list": [100.0], **overrides})


class TestConfigs:
    def test_all_defaults_json_round_trip(self):
        for name, cfg in DEFAULTS.items():
            text = json.dumps(cfg, sort_keys=True)
            assert json.loads(text) == cfg, name

    @pytest.mark.parametrize("sub", list(DEFAULTS))
    def test_defaults_pass_their_rules_unchanged(self, sub):
        # Every key has a rule, the nested bias_sensitivity block included,
        # and no rule rewrites a packaged value, not even an int to a float.
        assert json.dumps(overlay_config(sub)) == json.dumps(default_config(sub))

    def test_numbers_load_as_the_floats_the_runners_read(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_list": [100, 1000], "radius": 1, "box": [-1, 1], "v_phi": [1, 0]}))
        cfg = load_config("theorem1", path)
        assert cfg["t_list"] == [100, 1000] and cfg["radius"] == 1 and cfg["box"] == [-1, 1]
        assert all(type(x) is float for x in [*cfg["t_list"], cfg["radius"], *cfg["box"], *cfg["v_phi"]])

    @pytest.mark.parametrize("workload", ["origin-analytic", "origin-mc", "kappa-mc", "mlp-train"])
    def test_benchmark_overlays_load_as_intended(self, tmp_path, monkeypatch, workload):
        # The benchmark refuses to run when a config loads other than it
        # wrote it, so no rule may reject or rewrite one of its values.
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        bench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_run)
        path = tmp_path / "overlay.json"
        for cseed in bench_run.POOL:
            for sub, overlay in bench_run.sweeps(workload, cseed):
                path.write_text(json.dumps(overlay))
                assert bench_run.guard_config(sub, overlay, path) == []

    def test_benchmark_traced_functions_still_exist(self):
        # A per-layer metric `<layer>.<function>.<what>` reads the span of a
        # public function of `ntkorigin.<layer>`; `cli.load_config` is the
        # benchmark's name for `runner.load_config`.
        layers = ("geometry", "kernel", "gram", "regression", "calculus", "mlp", "runner", "cli")
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        traced = {tuple(m["name"].split(".")[:2]) for m in spec["per_layer"]
                  if m["name"].count(".") >= 2 and m["name"].split(".")[0] in layers}
        assert ("kernel", "ntk") in traced and ("cli", "load_config") in traced
        for layer, name in sorted(traced):
            layer = "runner" if (layer, name) == ("cli", "load_config") else layer
            module = importlib.import_module(f"ntkorigin.{layer}")
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"), \
                f"{layer}.{name}"

    def test_default_is_a_copy(self):
        a = default_config("theorem1")
        a["seed"] = 999
        assert default_config("theorem1")["seed"] != 999

    def test_overlay_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 42}))
        cfg = load_config("farfield", path, seed_override=None, threads_override=3)
        assert cfg["seed"] == 42 and cfg["threads"] == 3
        cfg = load_config("farfield", path, seed_override=7, threads_override=None)
        assert cfg["seed"] == 7

    def test_unknown_subcommand(self):
        with pytest.raises(KeyError):
            default_config("nope")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t-list": [5.0]}))
        with pytest.raises(ConfigError, match="t-list"):
            load_config("theorem1", path)
        assert main(["theorem1", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("sub, overlay, key", [
        ("farfield", {"mode": "mc"}, "mode"),
        ("inverse-check", {"bias_sensitivity": {"d": 2}}, "bias_sensitivity.d"),
        ("inverse-check", {"bias_sensitivity": {"n": 2}}, "bias_sensitivity.n"),
        ("kappa", {"diag_chunk": 1000}, "diag_chunk"),
    ], ids=["farfield-mode", "bias-sensitivity-d", "bias-sensitivity-n", "kappa-diag-chunk"])
    def test_keys_that_changed_nothing_are_unknown(self, tmp_path, sub, overlay, key):
        # farfield is analytic only, the sensitivity block takes d and n from
        # its points and the diagonal's chunk is `kernel.DIAGONAL_CHUNK`, so
        # none of these keys is read.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overlay))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(sub, path)
        assert main([sub, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1

    def test_nested_overlay_merges_key_by_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bias_sensitivity": {"probes": 5}}))
        cfg = load_config("inverse-check", path)
        assert cfg["bias_sensitivity"] == {**default_config("inverse-check")["bias_sensitivity"], "probes": 5}
        assert main(["inverse-check", "--config", str(path), "--out", str(tmp_path / "i.csv")]) == 0

    def test_target_missing_field_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            target_from_config({"kind": "linear"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"kind": "linear"}}))
        assert main(["farfield", "--config", str(path), "--out", str(tmp_path / "f.csv")]) == 1

    def test_target_of_another_kind_replaces_the_default(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"kind": "linear", "a": [1.0, 0.0]}}))
        assert load_config("farfield", path)["target"] == {"kind": "linear", "a": [1.0, 0.0]}
        path.write_text(json.dumps({"bias_sensitivity": {"target": {"kind": "linear", "a": [1.0, 0.0]}}}))
        assert load_config("inverse-check", path)["bias_sensitivity"]["target"] == {"kind": "linear", "a": [1.0, 0.0]}
        # A partial target of the same kind still merges key by key.
        path.write_text(json.dumps({"target": {"phase": 0.0}}))
        assert load_config("farfield", path)["target"] == {"kind": "sinusoidal", "u": [1.3, -0.7], "phase": 0.0}
        path.write_text(json.dumps({"target": {"kind": "sinusoidal", "phase": 0.0}}))
        assert load_config("farfield", path)["target"] == {"kind": "sinusoidal", "u": [1.3, -0.7], "phase": 0.0}

    @pytest.mark.parametrize("spec, extra", [
        ({"kind": "linear", "a": [1.0, 0.0], "u": [5.0, 5.0], "phse": 1}, ["phse", "u"]),
        ({"kind": "quadratic", "q": [[1.0, 0.0], [0.0, 1.0]], "a": [1.0, 0.0], "phase": 0.1}, ["phase"]),
        ({"kind": "sinusoidal", "u": [1.0, 0.0], "b": 2.0}, ["b"]),
    ], ids=["linear", "quadratic", "sinusoidal"])
    def test_target_field_of_another_kind_is_a_config_error(self, tmp_path, capsys, spec, extra):
        with pytest.raises(ConfigError, match=re.escape(f"fields {extra}")):
            target_from_config(spec)
        # A sinusoidal overlay merges into the default target, whose keys
        # reject the field first; the other kinds reach target_from_config.
        path = tmp_path / "cfg.json"
        for sub, overlay in (("farfield", {"target": spec}),
                             ("inverse-check", {"bias_sensitivity": {"target": spec}})):
            path.write_text(json.dumps(overlay))
            out = tmp_path / "out.csv"
            assert main([sub, "--config", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert all(f"{name}'" in err for name in extra)
            assert not out.exists()

    @pytest.mark.parametrize("spec", [[1.0, 0.0], {"kind": ["linear"]}, {"kind": "cubic", "a": [1.0, 0.0]}],
                             ids=["not-an-object", "kind-not-a-string", "unknown-kind"])
    def test_target_spec_of_no_known_kind_is_a_config_error(self, tmp_path, spec):
        with pytest.raises(ConfigError):
            target_from_config(spec)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": spec}))
        out = tmp_path / "out.csv"
        assert main(["farfield", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_target_with_every_field_of_its_kind_loads(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        for spec, cls in (({"kind": "linear", "a": [1.0, 0.0], "b": 0.5}, LinearTarget),
                          ({"kind": "quadratic", "q": eye, "a": [1.0, 0.0], "b": 0.5}, QuadraticTarget),
                          ({"kind": "sinusoidal", "u": [1.0, 0.0], "phase": 0.5}, SinusoidalTarget)):
            assert isinstance(target_from_config(spec), cls)

    @pytest.mark.parametrize("mode", ["MC", "Analytic", "montecarlo", ""])
    def test_theorem1_mode_other_than_analytic_or_mc_is_a_config_error(self, tmp_path, capsys, mode):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": mode}))
        out = tmp_path / "t.csv"
        assert main(["theorem1", "--config", str(path), "--out", str(out)]) == 1
        assert "theorem1 mode must be 'analytic' or 'mc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, overlay", [
        ("inverse-check", {"bias_sensitivity": {"delta": 5}}),
        ("inverse-check", {"bias_sensitivity": {"delta": {"mode": "bogus"}}}),
        ("inverse-check", {"delta_list": [{"mode": "bogus", "value": 1e-2}]}),
        ("theorem1", {"delta": {"mode": "bogus", "value": 1e-8}}),
        ("mlp-compare", {"delta": {"mode": "relative", "value": -1}}),
        ("farfield", {"delta": {"mode": "absolute", "value": "x"}}),
    ], ids=["bias-delta-not-a-dict", "bias-delta-bogus-mode", "delta-list-bogus-mode", "bogus-mode",
            "negative-value", "non-numeric-value"])
    def test_malformed_delta_spec_is_a_config_error(self, tmp_path, sub, overlay, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overlay))
        out = tmp_path / "out.csv"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 1
        assert "malformed delta spec" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_theorem1_rerun_byte_identical(self):
        cfg = small_theorem1()
        a = run_theorem1(cfg)
        b = run_theorem1(cfg)
        assert a.csv() == b.csv()

    @pytest.mark.parametrize("sub", list(SMALL))
    def test_threads_do_not_change_output(self, monkeypatch, sub):
        monkeypatch.setattr(kernel, "DIAGONAL_CHUNK", 1000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            threaded = RUNNERS[sub](small_config(sub, threads=2))
        finally:
            sys.setswitchinterval(interval)
        assert RUNNERS[sub](small_config(sub, threads=1)).csv() == threaded.csv()

    def test_farfield_rerun_byte_identical(self):
        cfg = default_config("farfield")
        cfg["n_directions"] = 2
        assert run_farfield(cfg).csv() == run_farfield(cfg).csv()

    def test_float_formatting_has_17_significant_digits(self):
        text = render_csv(["x"], [[1.0 / 3.0]])
        assert text == "x\n0.33333333333333331\n"


class TestCellIsolation:
    def test_failing_cell_reports_error_and_continues(self):
        cfg = small_theorem1(t_list=[100.0, -5.0])
        res = run_theorem1(cfg)
        statuses = {row[5] for row in res.rows}
        assert "ok" in statuses
        assert any(s.startswith("error:") for s in statuses)
        assert res.failures == 1

    @pytest.mark.parametrize("sub", list(FAILING))
    def test_stub_row_spans_the_header(self, sub):
        res = RUNNERS[sub](small_config(sub, **FAILING[sub]))
        status = res.header.index("status")
        stubs = [row for row in res.rows if row[status].startswith("error:")]
        assert stubs and res.failures == len(stubs)
        for row in stubs:
            assert len(row) == len(res.header)
            assert all(v is None for v in row[status + 1:])

    def test_record_naming_a_column_outside_the_header_raises(self, monkeypatch):
        # A misnamed column is a programming error, so it escapes the cell
        # isolation instead of becoming a stub row.
        cell = runner.Cell

        def misnamed(key, rows):
            return cell(key, lambda: [{**rec, "bogus": 1.0} for rec in rows()])

        monkeypatch.setattr(runner, "Cell", misnamed)
        with pytest.raises(KeyError, match="bogus"):
            RUNNERS["gram-limit"](small_config("gram-limit", t_list=[100.0]))

    def test_summary_row_is_fit_to_the_ok_rows_only(self):
        res = RUNNERS["gram-limit"](small_config("gram-limit", t_list=[100.0, -5.0, 1000.0]))
        idx = {h: i for i, h in enumerate(res.header)}
        ok = [row for row in res.rows if row[idx["status"]] == "ok" and row[idx["t"]] != "fit"]
        (fit,) = [row for row in res.rows if row[idx["t"]] == "fit"]
        assert res.failures == 1 and [row[idx["t"]] for row in ok] == [100.0, 1000.0]
        ts, errs = np.array([[row[idx["t"]], row[idx["gram_limit_error"]]] for row in ok]).T
        assert fit[idx["decay_exponent"]] == float(np.polyfit(np.log(ts), np.log(errs), 1)[0])

    def test_no_displacement_order_without_two_trained_widths(self):
        res = RUNNERS["mlp-compare"](small_config("mlp-compare", **FAILING["mlp-compare"]))
        items = [row[res.header.index("item")] for row in res.rows]
        assert res.failures == 1 and "train" in items
        assert "displacement_order" not in items

    def test_failed_pascal_identity_counts_as_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(calculus, "pascal_shift_identity", lambda z: False)
        res = RUNNERS["inverse-check"](small_config("inverse-check"))
        assert res.failures == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL["inverse-check"]))
        assert main(["inverse-check", "--config", str(cfg), "--out", str(tmp_path / "i.csv")]) == 2


class TestCli:
    def test_writes_csv_and_returns_zero(self, tmp_path):
        out = tmp_path / "ff.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_directions": 2}))
        rc = main(["farfield", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().split("\n")
        assert lines[0].startswith("scenario,center,radius,direction,status")
        assert len(lines) >= 3

    def test_invalid_config_returns_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["farfield", "--config", str(bad)]) == 1

    def test_failed_cell_returns_two(self, tmp_path):
        # A valid config whose one solve fails its residual gate.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n": 128, "t_list": [1e6], "n_directions": 1, "include_shift_direction": False,
             "include_orthogonal": False}))
        rc = main(["theorem1", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_overflowing_delta_fails_its_cells(self):
        # A library caller skips the config rules. A relative delta, kappa *
        # t**2, overflows a float at t=1e200. Each cell computes its own
        # delta under the closed forms' overflow rule, so those cells give
        # the InvalidInput stub rows the absolute alpha cells give, and the
        # run goes on.
        cfg = default_config("inverse-check")
        cfg["t_list"] = [1e200]
        res = RUNNERS["inverse-check"](cfg)
        check, mode, status = (res.header.index(col) for col in ("check", "delta_mode", "status"))
        relative = {row[status] for row in res.rows if row[check] in ("identity", "alpha") and row[mode] == "relative"}
        assert relative == {"error:InvalidInput"}
        assert {row[status] for row in res.rows if row[check] == "alpha"} == {"error:InvalidInput"}
        assert all(row[status] == "ok" for row in res.rows if row[check] not in ("identity", "alpha"))

    def test_closed_form_residual_past_its_bound_fails_the_row(self, tmp_path):
        # kappa t**2 / delta = 4e310 is past long double's precision, so the
        # absolute-delta identity product cancels to nothing: residual 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [2], "kappa_list": [4.0], "t_list": [1e154]}))
        out = tmp_path / "ic.csv"
        # The alpha rows' n kappa t**2 overflows float64; they fail with
        # InvalidInput before numpy warns about inf / inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inverse-check", "--config", str(cfg), "--out", str(out)]) == 2
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        check, mode, status, resid = (header.index(c) for c in ("check", "delta_mode", "status", "residual"))
        identity = {row[mode]: (row[status], row[resid]) for row in rows if row[check] == "identity"}
        assert identity["absolute"] == ("error:IdentityResidual", "1")
        assert identity["relative"][0] == "ok" and float(identity["relative"][1]) < runner.CLOSED_FORM_RESIDUAL_BOUND
        alpha = {row[mode]: row[status] for row in rows if row[check] == "alpha"}
        assert alpha == {"absolute": "error:InvalidInput", "relative": "error:InvalidInput"}

    @pytest.mark.parametrize("sub, overlay", [
        ("farfield", {"v_phi": [0, 0]}),
        ("theorem1", {"mode": "mc", "k_features": 0}),
        ("mlp-compare", {"points": []}),
    ], ids=["zero-shift-direction", "no-features", "no-points"])
    def test_library_error_while_reading_the_config_is_a_config_error(self, tmp_path, capsys, sub, overlay):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overlay))
        out = tmp_path / "out.csv"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_kappa_sample_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kappa_mc_features": 0}))
        out = tmp_path / "out.csv"
        assert main(["gram-limit", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: gram-limit kappa_mc_features must be an integer >= 1, got 0\n"
        assert not out.exists()

    def test_empty_diagonal_chunk_fails_the_diag_rows(self):
        # A library caller skips the config rules and keeps cell isolation.
        cfg = default_config("kappa")
        cfg.update({"diag_k_features": 0, "k_features": 1000, "kappa_k_features": 1000})
        res = RUNNERS["kappa"](cfg)
        check, status = res.header.index("check"), res.header.index("status")
        failed = [(row[check], row[status]) for row in res.rows if row[status].startswith("error:")]
        assert failed == [("diag", "error:InvalidInput")] * 3 and res.failures == 3

    @pytest.mark.parametrize("sub, overlay, args, key", [
        ("theorem1", {"n": -1}, [], "n"),
        ("theorem1", {"n": 2.5}, [], "n"),
        ("theorem1", {"box": [1]}, [], "box"),
        ("theorem1", {"radius": "x"}, [], "radius"),
        ("theorem1", {"seed": -1}, [], "seed"),
        ("theorem1", {"t_list": [0]}, [], "t_list"),
        ("theorem1", {"t_list": [-100]}, [], "t_list"),
        ("inverse-check", {"t_list": [1e200]}, [], "t_list"),
        ("theorem1", {"v_phi": [1, 0, 0]}, [], "v_phi"),
        ("gram-limit", {"features_seed": "x"}, [], "features_seed"),
        ("farfield", {"window": [1000.0, 100.0]}, [], "window"),
        ("farfield", {"target": {"u": [1.0, 2.0, 3.0]}}, [], "target"),
        ("farfield", {"delta": {"value": float("inf")}}, [], "delta"),
        ("mlp-compare", {"delta": {"value": float("nan")}}, [], "delta"),
        ("mlp-compare", {"eval_points": -1}, [], "eval_points"),
        ("inverse-check", {"n_list": [0]}, [], "n_list"),
        ("inverse-check", {"stencil_max_order": 67}, [], "stencil_max_order"),
        ("inverse-check", {"bias_sensitivity": {"probes": 0}}, [], "bias_sensitivity.probes"),
        ("theorem1", {}, ["--seed", "-1"], "seed"),
        ("theorem1", {}, ["--threads", "0"], "threads"),
        ("theorem1", {"d": 1, "v_phi": [1.0], "target": {"kind": "sinusoidal", "u": [1.3], "phase": 0.4}}, [],
         "include_orthogonal"),
    ], ids=["n-negative", "n-fractional", "box-one-bound", "radius-string", "seed-negative", "t-zero",
            "t-negative", "t-square-overflows", "v-phi-wrong-length", "features-seed-string", "window-reversed", "target-wrong-length",
            "delta-infinite", "delta-nan", "eval-points-negative", "n-list-zero", "stencil-order-past-int64", "probes-zero", "cli-seed-negative", "cli-threads-zero",
            "orthogonal-direction-in-one-dimension"])
    def test_value_breaking_its_rule_is_a_config_error(self, tmp_path, capsys, sub, overlay, args, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(overlay))
        out = tmp_path / "out.csv"
        assert main([sub, "--config", str(path), "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert re.match(rf"config error: {sub} {re.escape(key)}[ :]", err)
        assert not out.exists()

    def test_largest_stencil_order_checks_every_row(self):
        # binom(66, 33) is the largest binomial the int64 rows hold.
        cfg = overlay_config("inverse-check", {**SMALL["inverse-check"], "stencil_max_order": 66})
        res = RUNNERS["inverse-check"](cfg)
        idx = {h: i for i, h in enumerate(res.header)}
        (row,) = [r for r in res.rows if r[idx["check"]] == "pascal_shift"]
        assert (row[idx["status"]], row[idx["residual"]], row[idx["detail"]]) == ("ok", 0.0, "z<=66")

    def test_print_config(self, capsys):
        assert main(["kappa", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["name"] == "kappa-default"

    def test_rerun_same_file_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_directions": 3}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["farfield", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["farfield", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestStartup:
    def test_cli_import_loads_numpy_random_and_not_scipy_linalg(self):
        # numpy.random is loaded up front, so its import is not timed inside
        # the first sweep. scipy.linalg is not loaded at all, nor are the
        # numpy submodules its import pulls in.
        proc = run_fresh("import sys, ntkorigin.cli; print(' '.join(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "numpy.random" in loaded
        assert not loaded & {"scipy.linalg", "numpy.f2py", "numpy.testing"}


class TestWriteCsv:
    def test_none_serializes_empty(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(["a", "b", "c"], [[1, None, "text"]], path)
        assert path.read_text() == "a,b,c\n1,,text\n"

    def test_bool_serialization(self):
        assert render_csv(["f"], [[True], [False]]) == "f\ntrue\nfalse\n"


class TestSweepScience:
    def test_theorem1_row_cardinality(self):
        cfg = default_config("theorem1")
        res = RUNNERS["theorem1"](cfg)
        # 3 shifts x (8 random + shift direction + orthogonal) directions.
        assert len(res.rows) == 30

    @pytest.mark.parametrize("sub", ["theorem1", "farfield"])
    def test_cubic_profile_leaves_c4_empty(self, sub):
        # A degree-3 fit has no c4; the columns after it keep their places.
        res = RUNNERS[sub](small_config(sub, degmax=3))
        idx = {h: i for i, h in enumerate(res.header)}
        assert res.failures == 0
        for row in res.rows:
            assert len(row) == len(res.header)
            assert row[idx["c3"]] is not None and row[idx["c4"]] is None
            assert row[idx["classification"]] in ("constant", "linear", "quadratic", "higher")

    def test_sensitivity_rows_count_the_points_they_use(self):
        cfg = small_config("inverse-check")
        cfg["bias_sensitivity"]["points"] = [[0.3, -0.4], [0.1, 0.2], [-0.5, 0.6]]
        cfg["bias_sensitivity"]["probes"] = 4
        res = RUNNERS["inverse-check"](cfg)
        idx = {h: i for i, h in enumerate(res.header)}
        rows = [row for row in res.rows if row[idx["check"]].startswith(("beta1_", "beta2_"))]
        # Two sensitivity rows per t, and the scaling row.
        assert len(rows) == 5
        assert all(row[idx["n"]] == 3 for row in rows)

    def test_farfield_linear_target_classified_linear(self):
        cfg = default_config("farfield")
        cfg.update({"n_directions": 3,
                    "target": {"kind": "linear", "a": [0.7, -0.4], "b": 0.2}})
        res = RUNNERS["farfield"](cfg)
        idx = {h: i for i, h in enumerate(res.header)}
        for row in res.rows:
            assert row[idx["classification"]] == "linear"
            assert row[idx["ratio21"]] < 0.05

    def test_farfield_constant_target_stays_linear(self):
        # Constant labels do not flatten the far-field predictor: kernel values
        # grow with |x|, so the ray profile keeps a genuine linear term. What
        # does hold is the linearity baseline itself: no curvature survives.
        cfg = default_config("farfield")
        cfg.update({"n_directions": 3,
                    "target": {"kind": "linear", "a": [0.0, 0.0], "b": 1.3}})
        res = RUNNERS["farfield"](cfg)
        idx = {h: i for i, h in enumerate(res.header)}
        for row in res.rows:
            assert row[idx["classification"]] == "linear"
            assert row[idx["ratio21"]] < 0.05

    def test_gram_limit_single_origin_point(self):
        cfg = default_config("gram-limit")
        cfg.update({"points": [[0.0, 0.0]], "n": 1})
        res = RUNNERS["gram-limit"](cfg)
        idx = {h: i for i, h in enumerate(res.header)}
        errs = [row[idx["gram_limit_error"]] for row in res.rows if row[idx["t"]] != "fit"]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-7

    def test_inverse_check_degenerate_kappa_skipped(self):
        cfg = default_config("inverse-check")
        cfg.update({"n_list": [2], "kappa_list": [0.0, 1.0], "t_list": [10.0]})
        res = RUNNERS["inverse-check"](cfg)
        idx = {h: i for i, h in enumerate(res.header)}
        skipped = [r for r in res.rows if r[idx["status"]] == "skipped:degenerate"]
        assert len(skipped) == 4  # identity+alpha for both delta modes
        assert res.failures == 0

    @pytest.mark.parametrize("features_seed, expected_seed", [(0, 0), (None, 12), (5, 5)])
    def test_gram_limit_features_seed(self, features_seed, expected_seed):
        # A features_seed of 0 is a seed like any other; only a missing one
        # falls back to seed + 1.
        cfg = default_config("gram-limit")
        cfg.update({"seed": 11, "features_seed": features_seed, "k_features": 2000,
                    "kappa_mc_features": 1000, "t_list": [3.0]})
        res = RUNNERS["gram-limit"](cfg)
        idx = {h: i for i, h in enumerate(res.header)}
        phi = realization_from_config(cfg, np.random.default_rng(11))
        ts = shift_set(phi, Direction(cfg["v_phi"]), 3.0, target_from_config(cfg["target"]))
        expected = agnosticism_rate(ts, sample_features(2, 2000, expected_seed))
        assert res.rows[0][idx["agnosticism_rate"]] == expected

    def test_kappa_rows_hold_one_sample_length_vector_and_a_tile(self):
        # Directions alternate d=2 and d=3. Each row draws its features one
        # tile at a time into one K-length vector, which its standard error
        # reuses, so the peak is that vector and one d=3 tile of weights with
        # its mask; holding one row's sample (32 bytes a feature at d=3), or a
        # second K-length vector, would go above it. The rest is room for the
        # records and the CSV text.
        k = 200_000
        cfg = small_config("kappa", pair_dims=[], kappa_directions=3, kappa_k_features=k)
        peak, res = traced_peak(lambda: run_kappa(cfg))
        assert res.failures == 0
        assert peak <= 8 * k + tile_bytes(3 + 2) + 2 * SLACK

    def test_gram_limit_kappa_holds_one_sample_length_vector_and_a_tile(self):
        # The kappa_mc_features-row sample (24 bytes a row at d=2), or a
        # second K-length vector, would exceed the one vector of the estimate
        # and one tile.
        k = 400_000
        cfg = small_config("gram-limit", kappa_mc_features=k, t_list=[100.0])
        peak, res = traced_peak(lambda: RUNNERS["gram-limit"](cfg))
        assert res.failures == 0
        assert peak <= 8 * k + tile_bytes(2 + 2) + 2 * SLACK

    def test_gram_limit_draws_its_feature_sample_after_the_kappa_estimate(self):
        # The k_features sample (2.4 MB at d=2) and the agnosticism rate's
        # tiles fit under the kappa estimate's bound; together with the
        # estimate's K-length vector, the sample would not.
        k = 400_000
        cfg = small_config("gram-limit", kappa_mc_features=k, k_features=100_000, t_list=[100.0])
        peak, res = traced_peak(lambda: RUNNERS["gram-limit"](cfg))
        assert res.failures == 0
        assert peak <= 8 * k + tile_bytes(2 + 2) + 2 * SLACK
