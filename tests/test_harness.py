import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdsde import harness
from bdsde.cli import main
from bdsde.config import ExperimentConfig
from bdsde.errors import ConfigError
from bdsde.harness import (
    convergence_study,
    flow_order_study,
    property_suite,
    run,
    write_csv,
)
from bdsde.grids import build_time_grid, subsample_path
from bdsde.problems import REGISTRY, backward_path_for, grid_from
from bdsde.second_order import DpOptions, minimality_gap, solve_dp


def cfg_for(problem, backend, n_steps=16, **extra):
    cfg = ExperimentConfig.from_defaults()
    cfg.set("problem", "name", problem)
    cfg.set("problem", "backend", backend)
    cfg.set("grid", "n_steps", n_steps)
    for dotted, v in extra.items():
        sec, key = dotted.split(".")
        cfg.set(sec, key, v)
    return cfg


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n"
                     "[grid]\nn_steps = 4\nn_stepz = 8\n")
        with pytest.raises(ConfigError, match="n_stepz"):
            ExperimentConfig.from_file(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n[grids]\nn_steps = 4\n")
        with pytest.raises(ConfigError, match=r"\[grids\]"):
            ExperimentConfig.from_file(p)

    def test_missing_grid_diagnostic(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n")
        with pytest.raises(ConfigError, match=r"\[grid\] n_steps"):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("band", ["a_low = 0.3", "a_high = 2.5"])
    def test_half_set_volatility_band_rejected(self, tmp_path, band):
        # one bound would be paired with a default the oracle does not see
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = bsb_concave\nbackend = dp\n"
                     f"[grid]\nn_steps = 4\n[volgrid]\n{band}\n")
        with pytest.raises(ConfigError, match="a_low and a_high"):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("m", [0, -3])
    def test_w_ensemble_below_one_rejected(self, tmp_path, m):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n"
                     f"[grid]\nn_steps = 4\n[seeds]\nw_ensemble = {m}\n")
        with pytest.raises(ConfigError, match="w_ensemble"):
            ExperimentConfig.from_file(p)
        with pytest.raises(ConfigError, match="w_ensemble"):
            run(cfg_for("identity", "tree", n_steps=4, **{"seeds.w_ensemble": m}))

    @pytest.mark.parametrize("sec, key, value", [
        ("mc", "basis_degree", "-1"), ("mc", "workers", "0"), ("mc", "workers", "-2"),
        ("spatial", "x_steps", "0"), ("spatial", "x_steps", "-5"),
        ("spatial", "span_sigmas", "0"), ("spatial", "span_sigmas", "-1"),
        ("spatial", "span_sigmas", "nan"), ("spatial", "span_sigmas", "inf"),
        ("outputs", "precision", "0"), ("outputs", "precision", "-3"),
        ("tolerances", "y0_rel", "-1"), ("tolerances", "y0_rel", "nan"),
        ("tolerances", "y0_rel", "inf")])
    def test_out_of_range_value_rejected(self, tmp_path, sec, key, value):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n"
                     f"[grid]\nn_steps = 4\n[{sec}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\[{sec}\] {key}"):
            ExperimentConfig.from_file(p)
        with pytest.raises(ConfigError, match=rf"\[{sec}\] {key}"):
            run(cfg_for("identity", "tree", n_steps=4, **{f"{sec}.{key}": float(value)}))

    def test_missing_file_rejected(self, tmp_path):
        p = tmp_path / "absent.ini"
        with pytest.raises(ConfigError, match=f"config file not found: {p}"):
            ExperimentConfig.from_file(p)

    def test_unknown_override_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[grids\]"):
            ExperimentConfig.from_defaults(**{"grids.n_steps": 4})

    def test_unparsable_value_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n[grid]\nn_steps = abc\n")
        with pytest.raises(ConfigError, match=r"\[grid\] n_steps: cannot parse 'abc' as int"):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("horizon", ["1.0", "0.5"])
    def test_horizon_not_after_t0_rejected(self, tmp_path, horizon):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n"
                     f"[grid]\nn_steps = 4\nt0 = 1.0\nhorizon = {horizon}\n")
        with pytest.raises(ConfigError, match=r"\[grid\] horizon must exceed t0"):
            ExperimentConfig.from_file(p)

    def test_hash_stable_under_key_order(self, tmp_path):
        a = tmp_path / "a.ini"
        b = tmp_path / "b.ini"
        a.write_text("[problem]\nname = identity\nbackend = tree\n[grid]\nn_steps = 4\n")
        b.write_text("[grid]\nn_steps = 4\n[problem]\nbackend = tree\nname = identity\n")
        assert ExperimentConfig.from_file(a).config_hash == \
            ExperimentConfig.from_file(b).config_hash


class TestRun:
    def test_tree_linear_with_oracle(self):
        rec = run(cfg_for("classical_bdsde_linear", "tree", n_steps=64))
        assert rec.abs_error < 0.01
        assert rec.oracle == pytest.approx(np.exp(0.5))

    @pytest.mark.parametrize("m", [1, 3])
    def test_gap_min0_is_the_minimality_gap_of_its_own_solve(self, m):
        cfg = cfg_for("bsb_doss", "dp", n_steps=8,
                      **{"spatial.x_steps": 41, "seeds.w_ensemble": m})
        rec = run(cfg)
        pdef, grid = REGISTRY["bsb_doss"], grid_from(cfg)
        prob = pdef.equation(cfg)
        paths = [backward_path_for(pdef, grid, 7 + k) for k in range(m)]
        sol = solve_dp(prob, grid, paths, x0=pdef.x0, opts=DpOptions(x_steps=41))
        assert rec.quantities["gap_min0"] == minimality_gap(sol)
        assert rec.quantities["gap_min0"] > 0.0
        assert rec.quantities["k_terminal"] == 0.0

    def test_dp_singleton_reduction_quantities(self):
        rec = run(cfg_for("classical_bdsde_linear", "dp", n_steps=64))
        assert rec.quantities["k_terminal"] < 1e-9

    def test_backend_incompatibility(self):
        with pytest.raises(ConfigError, match="backends"):
            run(cfg_for("bsb_quadratic", "mc"))

    def test_tolerance_refused_without_oracle(self):
        cfg = cfg_for("bsb_mixed", "dp", **{"tolerances.y0_rel": 0.1,
                                            "spatial.x_steps": 60})
        with pytest.raises(ConfigError, match="oracle"):
            run(cfg)

    def test_reflected_backend(self):
        rec = run(cfg_for("reflected_stop_now", "reflected", n_steps=16))
        assert rec.quantities["y0"] == pytest.approx(1.0, abs=1e-12)
        assert rec.abs_error < 1e-12

    def test_fd_backend(self):
        rec = run(cfg_for("heat_quadratic", "fd", n_steps=64,
                          **{"spatial.x_steps": 64}))
        assert rec.abs_error < 0.03

    def test_fd_reads_y0_by_interpolation_at_x0(self, monkeypatch):
        # x0 = 1 is the middle node at even x_steps only; at odd x_steps the
        # two nearest nodes are a half cell away on either side
        levels, fd = [], harness.fd_random_pde

        def keeping(*args):
            levels.append(fd(*args))
            return levels[-1]
        monkeypatch.setattr(harness, "fd_random_pde", keeping)
        even, odd = (run(cfg_for("bsb_quadratic", "fd", n_steps=2000,
                                 **{"spatial.x_steps": x_steps})) for x_steps in (400, 401))
        xs, v0 = levels[0]
        assert even.quantities["y0"] == v0[int(np.argmin(np.abs(xs - 1.0)))]
        assert even.abs_error < 1e-8
        assert odd.abs_error < 1e-3

    @pytest.mark.parametrize("problem, backend, extra, solver, gap_calls", [
        ("linear_spde", "tree", {}, "solve_tree", 0),
        ("bsb_quadratic", "dp", {"spatial.x_steps": 40}, "solve_dp", 1),
        ("linear_spde", "mc", {"mc.n_paths": 2000}, "solve_regression", 0),
        ("reflected_put", "reflected", {}, "solve_reflected", 0),
        ("heat_quadratic", "fd", {"spatial.x_steps": 40}, "fd_random_pde", 0),
    ], ids=["linear_spde-tree", "bsb_quadratic-dp", "linear_spde-mc", "reflected_put-reflected",
            "heat_quadratic-fd"])
    def test_w_ensemble_statistics(self, monkeypatch, problem, backend, extra, solver,
                                   gap_calls):
        # per-path runs first, with the real solver: path k has seed w_seed + k
        y0s = [run(cfg_for(problem, backend, n_steps=16,
                           **{"seeds.w_seed": 7 + k}, **extra)).quantities["y0"]
               for k in range(3)]
        calls = {"gap": 0, "solve": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        monkeypatch.setattr(harness, "minimality_gap", counting("gap", minimality_gap))
        monkeypatch.setattr(harness, solver, counting("solve", getattr(harness, solver)))
        cfg = cfg_for(problem, backend, n_steps=16,
                      **{"seeds.w_seed": 7, "seeds.w_ensemble": 3}, **extra)
        rec = run(cfg)
        # one solve of all paths whose statistics are those of the per-path solves
        assert calls["solve"] == 1
        assert rec.quantities["y0"] == y0s[0]
        dev = np.asarray(y0s) - y0s[0]
        assert rec.quantities["y0_w_mean"] == float(y0s[0] + np.mean(dev))
        assert rec.quantities["y0_w_std"] == float(np.std(dev, ddof=1))
        if len(set(y0s)) == 1:  # g = 0 or fd: paths that agree give their y0 and no spread
            assert rec.quantities["y0_w_mean"] == y0s[0]
            assert rec.quantities["y0_w_std"] == 0.0
        # W_T - W_0 pinned (linear_spde) or no W in the data: a small spread
        assert rec.quantities["y0_w_std"] < 0.1
        # diagnostics are computed for the reported path only
        assert calls["gap"] == gap_calls

    @pytest.mark.parametrize("problem, backend", [
        (name, backend) for name, pdef in sorted(REGISTRY.items()) for backend in pdef.backends])
    def test_w_ensemble_rows_on_every_pair(self, problem, backend):
        cfg = cfg_for(problem, backend, n_steps=16,
                      **{"seeds.w_ensemble": 2, "spatial.x_steps": 40, "mc.n_paths": 500})
        buf = io.StringIO()
        write_csv([run(cfg)], buf)
        written = [line.split(",")[0] for line in buf.getvalue().splitlines()]
        assert {"y0", "y0_w_mean", "y0_w_std"} <= set(written)


class TestRegistry:
    def test_backends_fit_the_equation(self):
        # tree, mc and reflected solve the classical equation of the sole
        # finite volatility; fd solves the Hamiltonian's PDE, which has no g
        cfg = cfg_for("identity", "tree")
        x = np.linspace(-3.0, 3.0, 13)
        for name, pdef in REGISTRY.items():
            prob = pdef.equation(cfg)
            if {"tree", "mc", "reflected"} & set(pdef.backends):
                assert len(prob.finite_volatilities()) == 1, name
            if "fd" in pdef.backends:
                for t, y, z in ((0.0, -1.0, 0.5), (0.5, 0.3, -2.0), (1.0, 2.5, 1.0)):
                    g = prob.g(t, x, np.full_like(x, y), np.full_like(x, z))
                    assert np.all(np.asarray(g) == 0.0), name

    def test_each_equation_states_its_reading(self):
        # bsb_doss is Stratonovich-read and converted once, to its Ito-read
        # equation; linear_spde is solved at the midpoint
        cfg = cfg_for("identity", "tree")
        readings = {name: pdef.equation(cfg).reading for name, pdef in REGISTRY.items()}
        assert readings["bsb_doss"] == "ito"
        assert readings.pop("linear_spde") == "stratonovich"
        assert set(readings.values()) == {"ito"}

    def test_classical_backend_refuses_a_volatility_band(self):
        cfg = cfg_for("bsb_quadratic", "tree")
        pdef = REGISTRY["bsb_quadratic"]
        paths = [backward_path_for(pdef, grid_from(cfg), 7)]
        for backend in ("tree", "mc", "reflected"):
            with pytest.raises(ConfigError, match="one finite volatility"):
                harness._solve_paths(pdef, pdef.equation(cfg), cfg, backend, paths)

    # a band of one point is the volatility set {a_low}: the solve and its oracle both read it
    SINGLETON = {"volgrid.a_low": 0.5, "volgrid.a_high": 2.0, "volgrid.n_points": 1}

    def test_oracle_prices_the_solved_singleton_band(self):
        rec = run(cfg_for("bsb_quadratic", "dp", **self.SINGLETON,
                          **{"spatial.x_steps": 100, "tolerances.y0_rel": 1e-9}))
        assert rec.quantities["y0"] == 1.5
        assert rec.oracle == pytest.approx(1.5, rel=1e-12)
        assert rec.tolerance_ok is True

    def test_doss_oracle_reads_the_solved_band_path_and_start(self):
        cfg = cfg_for("bsb_doss", "dp", **self.SINGLETON, **{"grid.horizon": 1.5})
        pdef, grid = REGISTRY["bsb_doss"], grid_from(cfg)
        w = backward_path_for(pdef, grid, 3)
        for x0 in (pdef.x0, -0.7):
            assert pdef.oracle(pdef.equation(cfg), w, x0) == pytest.approx(
                np.exp(w.values[-1] / 2) * (x0**2 + 0.5 * 1.5), rel=1e-14)

    def test_heat_oracle_reads_the_start_and_the_horizon(self):
        cfg = cfg_for("heat_quadratic", "tree", **{"grid.t0": 0.25, "grid.horizon": 2.0})
        pdef, grid = REGISTRY["heat_quadratic"], grid_from(cfg)
        w = backward_path_for(pdef, grid, 7)
        assert pdef.oracle(pdef.equation(cfg), w, 1.3) == pytest.approx(1.3**2 + 1.75, rel=1e-15)


class TestCsvDeterminism:
    def rec_bytes(self, workers):
        rec = run(cfg_for("heat_quadratic", "mc", n_steps=8,
                          **{"mc.n_paths": 4000, "mc.workers": workers}))
        buf = io.StringIO()
        write_csv([rec], buf)
        return buf.getvalue()

    def test_byte_identical_across_worker_counts(self):
        assert self.rec_bytes(1) == self.rec_bytes(4)

    def test_rerun_byte_identical(self):
        assert self.rec_bytes(2) == self.rec_bytes(2)


class TestStudies:
    def test_linear_problem_first_order(self):
        res = convergence_study(cfg_for("classical_bdsde_linear", "tree", n_steps=16),
                                halvings=3)
        assert res.fitted_order == pytest.approx(1.0, abs=0.3)

    def test_identity_machine_precision(self):
        res = convergence_study(cfg_for("identity", "tree", n_steps=8), halvings=2)
        assert all(r.abs_error < 1e-12 for r in res.records)
        assert res.fitted_order is None

    def test_flow_integrator_second_order(self):
        res = flow_order_study(halvings=3, base_n=32)
        assert res.fitted_order == pytest.approx(2.0, abs=0.4)

    def test_flow_reference_is_the_straight_path_limit(self):
        # g does not depend on t, so the flow's limit depends on W only
        # through W_T - W_0: two straight paths agree to rounding, and the
        # study's own driver reaches them at a fine step
        r64, r256 = harness._flow_eta0(64, straight=True), harness._flow_eta0(256, straight=True)
        fine = harness._flow_eta0(4096)
        assert abs(r64 - r256) <= 1e-14
        assert abs(r64 - fine) <= 5e-12 and abs(r256 - fine) <= 5e-12
        assert flow_order_study(halvings=2).records[0].oracle == r64

    def test_mixed_convexity_dp_converges_to_fd(self):
        # no closed form: the fd backend at a fine step is the reference,
        # and the dp error halves with dt (x_steps growing with n)
        y_fd = run(cfg_for("bsb_mixed", "fd", n_steps=2000,
                           **{"spatial.x_steps": 400})).quantities["y0"]
        errs = [abs(run(cfg_for("bsb_mixed", "dp", n_steps=n,
                                **{"spatial.x_steps": xs})).quantities["y0"] - y_fd)
                for n, xs in ((16, 100), (32, 200), (64, 400))]
        assert errs[0] < 0.03
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_fd_study_keeps_the_stable_step_ratio(self):
        # dt quarters while x_steps doubles: level 0's dt / dx^2 at every level
        res = convergence_study(cfg_for("heat_quadratic", "fd", n_steps=50,
                                        **{"spatial.x_steps": 60}), halvings=3)
        assert [r.dt for r in res.records] == [0.02, 0.005, 0.00125]
        assert all(r.abs_error < 1e-2 for r in res.records)
        # the central difference is exact on x^2: the errors are truncation noise
        # (about 1e-10, not falling), and no order is fitted to them
        assert res.fitted_order is None
        assert res.no_order == "the error does not fall at every level"

    def test_study_refines_one_driver(self):
        # every level solves the restriction of one path on the finest grid, so
        # the pathwise oracle is one number for the whole study
        cfg = cfg_for("bsb_doss", "dp", n_steps=4, **{"spatial.x_steps": 20})
        res = convergence_study(cfg, halvings=3)
        pdef = REGISTRY["bsb_doss"]
        fine = backward_path_for(pdef, build_time_grid(0.0, 1.0, 16), 7)
        for k, rec in enumerate(res.records):
            w = subsample_path(fine, 2 ** (2 - k))
            sol = solve_dp(pdef.equation(cfg), w.grid, w, x0=pdef.x0,
                           opts=DpOptions(x_steps=20 * 2**k))
            assert rec.dt == w.grid.dt and rec.quantities["y0"] == sol.y0
        assert len({rec.oracle for rec in res.records}) == 1

    def test_study_prints_why_it_fits_no_order(self, tmp_path, capsys):
        p = tmp_path / "identity.ini"
        p.write_text("[problem]\nname = identity\nbackend = tree\n[grid]\nn_steps = 8\n")
        assert main(["study", "--config", str(p), "--out", str(tmp_path / "o.csv"),
                     "--halvings", "2"]) == 0
        assert "fitted order: none (an error is at rounding level (<= 1e-13))" in \
            capsys.readouterr().out

    def test_flow_study_starts_at_the_configured_step_count(self, tmp_path):
        p = tmp_path / "flow.ini"
        p.write_text("[problem]\nname = flow_roundtrip\nbackend = flow\n[grid]\nn_steps = 64\n")
        out = tmp_path / "flow.csv"
        assert main(["--quiet", "study", "--config", str(p), "--out", str(out),
                     "--halvings", "2"]) == 0
        with open(out, newline="") as fh:
            assert [float(row["dt"]) for row in csv.DictReader(fh)] == [1 / 64, 1 / 128]

    def test_requires_two_halvings(self):
        with pytest.raises(ConfigError):
            convergence_study(cfg_for("identity", "tree"), halvings=1)

    @pytest.mark.parametrize("halvings", [2.5, np.nan, "3"])
    def test_studies_refuse_a_halvings_that_is_not_an_integer(self, halvings):
        for study in (lambda: convergence_study(cfg_for("identity", "tree"), halvings=halvings),
                      lambda: flow_order_study(halvings=halvings)):
            with pytest.raises(ConfigError, match=f"halvings must be an integer, got {halvings!r}"):
                study()

    @pytest.mark.parametrize("halvings", [1, 0])
    def test_flow_study_requires_two_halvings(self, halvings, tmp_path):
        with pytest.raises(ConfigError, match=f"halvings must be >= 2, got {halvings}"):
            flow_order_study(halvings=halvings)
        p = tmp_path / "flow.ini"
        p.write_text("[problem]\nname = flow_roundtrip\nbackend = flow\n[grid]\nn_steps = 32\n")
        argv = ["--quiet", "study", "--config", str(p), "--out", str(tmp_path / "o.csv"),
                "--halvings", str(halvings)]
        assert main(argv) == 1 and not (tmp_path / "o.csv").exists()


class TestPropertySuites:
    @pytest.mark.parametrize("name", ["comparison", "minimality", "doss-identities",
                                      "skorokhod", "conjugate-order", "ito-product"])
    def test_suite_passes(self, name):
        res = property_suite(name, seed=5)
        assert res.passed, res.violations

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            property_suite("nope")


class TestCli:
    def write_cfg(self, tmp_path, body):
        p = tmp_path / "cfg.ini"
        p.write_text(body)
        return str(p)

    def test_run_roundtrip_and_exit_codes(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "[problem]\nname = classical_bdsde_linear\n"
                             "backend = tree\n[grid]\nn_steps = 32\n"
                             "[tolerances]\ny0_rel = 0.05\n")
        out = str(tmp_path / "out.csv")
        assert main(["--quiet", "run", "--config", cfg, "--out", out]) == 0
        with open(out) as fh:
            header = fh.readline().strip()
        assert header == "quantity,dt,value,oracle,abs_error,seed_w,seed_b"

    def test_tolerance_failure_exit_2(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "[problem]\nname = classical_bdsde_linear\n"
                             "backend = tree\n[grid]\nn_steps = 2\n"
                             "[tolerances]\ny0_rel = 0.0001\n")
        out = str(tmp_path / "out.csv")
        assert main(["--quiet", "run", "--config", cfg, "--out", out]) == 2

    def test_run_prints_y0_oracle_error_and_path(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "[problem]\nname = classical_bdsde_linear\n"
                             "backend = tree\n[grid]\nn_steps = 32\n")
        out = str(tmp_path / "out.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        line = capsys.readouterr().out
        assert line.startswith("classical_bdsde_linear [tree] y0 = ")
        assert "  oracle = " in line and "  abs_error = " in line
        assert line.endswith(f" -> {out}\n")

    def test_seed_overrides_w_seed(self, tmp_path):
        body = "[problem]\nname = linear_spde\nbackend = tree\n[grid]\nn_steps = 8\n"
        default = self.write_cfg(tmp_path, body)
        seeded = tmp_path / "seeded.ini"
        seeded.write_text(body + "[seeds]\nw_seed = 3\n")
        csvs = {}
        for name, argv in (("flag", ["--config", default, "--seed", "3"]),
                           ("config", ["--config", str(seeded)]),
                           ("default", ["--config", default])):
            out = tmp_path / f"{name}.csv"
            assert main(["--quiet", "run", *argv, "--out", str(out)]) == 0
            csvs[name] = out.read_bytes()
        assert csvs["flag"] == csvs["config"] != csvs["default"]

    def test_tolerance_failure_reported_on_stderr(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "[problem]\nname = classical_bdsde_linear\n"
                             "backend = tree\n[grid]\nn_steps = 2\n"
                             "[tolerances]\ny0_rel = 0.0001\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "tolerance check FAILED\n"

    def test_study_prints_its_fitted_order(self, tmp_path, capsys):
        # the linear tree study is first order, and --seed reaches the study too
        cfg = self.write_cfg(tmp_path, "[problem]\nname = classical_bdsde_linear\n"
                             "backend = tree\n[grid]\nn_steps = 16\n")
        out = tmp_path / "study.csv"
        assert main(["study", "--config", cfg, "--seed", "4", "--halvings", "3",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[-1] == f"-> {out}"
        assert lines[-2].startswith("fitted order: ") and \
            float(lines[-2].removeprefix("fitted order: ")) == pytest.approx(1.0, abs=0.1)
        with open(out, newline="") as fh:
            assert {row["seed_w"] for row in csv.DictReader(fh)} == {"4"}

    def test_props_failure_exits_2_with_its_instance(self, monkeypatch, capsys):
        failing = harness.PropertyResult("comparison", False, 3, [{"instance": 7}])
        monkeypatch.setitem(harness.PROPERTY_SUITES, "comparison", lambda seed: failing)
        assert main(["props", "comparison"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "comparison: FAIL (3 instances)\n"
        assert captured.err == '  minimal reproducing instance: [{"instance": 7}]\n'

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "[problem]\nname = identity\nbackend = tree\n")
        assert main(["--quiet", "run", "--config", cfg]) == 1
        assert "[grid] n_steps" in capsys.readouterr().err

    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        assert "bsb_quadratic" in out and "oracle" in out

    def test_props_subcommand(self):
        assert main(["--quiet", "props", "conjugate-order", "--seed", "3"]) == 0

    def test_no_scipy_module_loads(self, tmp_path):
        # a fresh interpreter: importing the package, a tree run and a lattice
        # run, whose kernel takes its normal cdf from _accel, load no scipy module
        tree = self.write_cfg(tmp_path, "[problem]\nname = identity\nbackend = tree\n"
                              "[grid]\nn_steps = 4\n")
        lattice = tmp_path / "lattice.ini"
        lattice.write_text("[problem]\nname = bsb_quadratic\nbackend = dp\n"
                           "[grid]\nn_steps = 2\n[spatial]\nx_steps = 20\n")
        script = (
            "import json, sys\n"
            "import bdsde, bdsde.cli\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "seen = [scipy()]\n"
            f"for cfg in ({tree!r}, {str(lattice)!r}):\n"
            "    assert bdsde.cli.main(['--quiet', 'run', '--config', cfg,\n"
            f"                           '--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
            "    seen.append(scipy())\n"
            "print(json.dumps(seen))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert json.loads(proc.stdout) == [[], [], []]


class TestOutputDirEnv:
    def test_default_output_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BDSDE_OUT_DIR", str(tmp_path))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[problem]\nname = identity\nbackend = tree\n"
                       "[grid]\nn_steps = 4\n")
        assert main(["--quiet", "run", "--config", str(cfg)]) == 0
        produced = list(tmp_path.glob("identity_*.csv"))
        assert len(produced) == 1
