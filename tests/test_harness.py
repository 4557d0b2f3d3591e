import io

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
from bdsde.problems import REGISTRY, backward_path_for, grid_from
from bdsde.second_order import minimality_gap


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

    def test_classical_backend_refuses_a_volatility_band(self):
        cfg = cfg_for("bsb_quadratic", "tree")
        paths = [backward_path_for(REGISTRY["bsb_quadratic"], grid_from(cfg), 7)]
        for backend in ("tree", "mc", "reflected"):
            with pytest.raises(ConfigError, match="one finite volatility"):
                harness._solve_paths(REGISTRY["bsb_quadratic"], cfg, backend, paths)


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

    def test_requires_two_halvings(self):
        with pytest.raises(ConfigError):
            convergence_study(cfg_for("identity", "tree"), halvings=1)


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


class TestOutputDirEnv:
    def test_default_output_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BDSDE_OUT_DIR", str(tmp_path))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[problem]\nname = identity\nbackend = tree\n"
                       "[grid]\nn_steps = 4\n")
        assert main(["--quiet", "run", "--config", str(cfg)]) == 0
        produced = list(tmp_path.glob("identity_*.csv"))
        assert len(produced) == 1
