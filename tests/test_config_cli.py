import os

import pytest

import stoclaw.solver as solver_mod
from stoclaw.cli import main
from stoclaw.config import ConfigError, ExperimentConfig
from stoclaw.harness import (convergence_study, path_seed, replay,
                             run_experiment)
from stoclaw.solver import StepFailureError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def small_config(**overrides):
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "linear-smoke.cfg"))
    cfg.set("run", "paths", 6)
    cfg.set("grid", "cells", 64)
    cfg.set("grid", "half_width", 2.0)
    cfg.set("run", "steps", 8)
    cfg.set("diagnostics", "identity_pairs", 20)
    cfg.set("diagnostics", "isometry_paths", 200)
    cfg.set("diagnostics", "checks", ("energy", "determinism"))
    for (sec, key), val in overrides.items():
        cfg.set(sec, key, val)
    return cfg


# ---------------------------------------------------------------------------
# Parsing and validation

def test_defaults_complete():
    cfg = ExperimentConfig.defaults()
    assert cfg.get("model", "phi") == "linear"


def test_unknown_section():
    with pytest.raises(ConfigError, match=r"unknown section \[turbulence\]"):
        ExperimentConfig.from_text("[turbulence]\nx = 1\n")


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigError, match="model.viscosity"):
        ExperimentConfig.from_text("[model]\nviscosity = 2\n")
    # the jump-position measure is reduced to its mass; manifests that
    # still name a position kind are rejected, not silently reinterpreted
    with pytest.raises(ConfigError, match="unknown key noise.position"):
        ExperimentConfig.from_text("[noise]\nposition = atom\n")
    # the smoothing scales are a fixed part of the check protocol
    with pytest.raises(ConfigError,
                       match="unknown key diagnostics.theta_values"):
        ExperimentConfig.from_text("[diagnostics]\ntheta_values = 1.0\n")


def test_bad_value_names_the_key():
    with pytest.raises(ConfigError, match="model.epsilon"):
        ExperimentConfig.from_text("[model]\nepsilon = sticky\n")


def test_enum_value_checked():
    with pytest.raises(ConfigError, match="model.phi"):
        ExperimentConfig.from_text("[model]\nphi = cubic\n")


def test_unknown_check_name():
    with pytest.raises(ConfigError, match="unknown check"):
        ExperimentConfig.from_text("[diagnostics]\nchecks = entropy\n")


def test_contraction_requires_v0():
    with pytest.raises(ConfigError, match="v0"):
        ExperimentConfig.from_text("[diagnostics]\nchecks = contraction\n")


def test_atom_list_parsing():
    cfg = ExperimentConfig.from_text(
        "[noise]\nsize_atoms = 1.0:2.0, -0.5:0.25\n")
    assert cfg.get("noise", "size_atoms") == ((1.0, 2.0), (-0.5, 0.25))
    with pytest.raises(ConfigError, match="value:mass"):
        ExperimentConfig.from_text("[noise]\nsize_atoms = 1.0;2.0\n")


def test_manifest_round_trip():
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    text = cfg.manifest_text()
    back = ExperimentConfig.from_text(text)
    assert back.values == cfg.values
    assert back.manifest_text() == text


def test_bundled_configs_parse_and_build():
    for name in ("linear-smoke", "stochastic-default", "maxprinciple",
                 "moments-linear", "contraction"):
        cfg = ExperimentConfig.from_file(
            os.path.join(CONFIG_DIR, name + ".cfg"))
        spec = cfg.build_spec()
        grid = cfg.build_grid()
        assert spec.horizon > 0
        assert grid.cells >= 4
        if spec.eta.is_zero is False and spec.levy.total_mass > 0:
            assert spec.lambda_star < 1.0


def test_seed_splitting_rule():
    assert path_seed(12, 0) == 12
    assert path_seed(12, 5) == 12 ^ 5
    seen = {path_seed(977, k) for k in range(64)}
    assert len(seen) == 64


# ---------------------------------------------------------------------------
# Harness behavior

def test_empty_checks_manifest_only(tmp_path):
    cfg = small_config()
    cfg.set("diagnostics", "checks", ())
    rep = run_experiment(cfg, out_dir=str(tmp_path))
    assert rep.checks == []
    assert (tmp_path / "manifest.txt").exists()
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "fields" / "u_path0000.csv").exists()
    # report has only the header
    assert len((tmp_path / "report.csv").read_text().strip().splitlines()) == 1


def test_run_twice_byte_identical(tmp_path):
    cfg = small_config()
    cfg.set("diagnostics", "checks", ("energy", "entropy_residual"))
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    for name in ("report.csv", "energy.csv", "manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_replay_reproduces_reports(tmp_path):
    cfg = small_config()
    cfg.set("diagnostics", "checks", ("energy", "entropy_residual"))
    run_experiment(cfg, out_dir=str(tmp_path / "orig"))
    replay(str(tmp_path / "orig" / "manifest.txt"),
           out_dir=str(tmp_path / "redo"))
    for name in ("report.csv", "energy.csv", "fields/u_path0000.csv",
                 "fields/stats_path0000.csv"):
        assert (tmp_path / "orig" / name).read_bytes() == \
            (tmp_path / "redo" / name).read_bytes()


def test_worker_count_invariance(tmp_path):
    cfg = small_config()
    cfg.set("diagnostics", "checks", ("energy", "entropy_residual"))
    run_experiment(cfg, out_dir=str(tmp_path / "w1"), workers=1)
    run_experiment(cfg, out_dir=str(tmp_path / "w2"), workers=2)
    assert (tmp_path / "w1" / "report.csv").read_bytes() == \
        (tmp_path / "w2" / "report.csv").read_bytes()


def small_default_config():
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("run", "paths", 3)
    cfg.set("run", "steps", 8)
    cfg.set("grid", "cells", 32)
    cfg.set("run", "steps_list", (4, 8, 16))
    cfg.set("run", "eps_list", (0.2, 0.1, 0.05))
    return cfg


def test_study_worker_count_invariance(tmp_path):
    cfg = small_default_config()
    for workers in (1, 2):
        convergence_study(cfg, out_dir=str(tmp_path / ("w%d" % workers)),
                          workers=workers)
    rates = (tmp_path / "w1" / "rates.csv").read_bytes()
    assert rates == (tmp_path / "w2" / "rates.csv").read_bytes()
    assert rates.count(b"\n") == 7  # header, three rows per lane


def test_moments_contraction_worker_count_invariance(tmp_path):
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "contraction.cfg"))
    cfg.set("run", "paths", 3)
    cfg.set("run", "steps", 8)
    cfg.set("grid", "cells", 32)
    cfg.set("diagnostics", "checks",
            ("max_principle", "moments", "contraction"))
    for workers in (1, 2):
        run_experiment(cfg, out_dir=str(tmp_path / ("w%d" % workers)),
                       workers=workers)
    report = (tmp_path / "w1" / "report.csv").read_bytes()
    assert report == (tmp_path / "w2" / "report.csv").read_bytes()
    for name in (b"max_principle", b"moment_p2", b"moment_p4",
                 b"contraction_growth"):
        assert name in report


def test_moments_with_zero_u0_pass(tmp_path):
    # u = 0 on every path: the growth fit binds at t = 0 and the closed-form
    # rate, which needs a spatially constant u0, is not compared
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "moments-linear.cfg"))
    cfg.set("model", "u0", "zero")
    cfg.set("run", "paths", 4)
    cfg.set("run", "steps", 8)
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.csv").read_text()
    assert report.count(",pass,") == 2


def test_contraction_zero_row_for_equal_data(tmp_path):
    # v0 = u0: both solutions coincide under every noise path
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "contraction.cfg"))
    cfg.set("run", "paths", 2)
    cfg.set("run", "steps", 4)
    cfg.set("grid", "cells", 32)
    for key in ("height", "center", "width"):
        cfg.set("diagnostics", "v0_" + key, cfg.get("model", "u0_" + key))
    report = run_experiment(cfg, out_dir=str(tmp_path))
    rows = {c.name: c for c in report.checks}
    assert rows["contraction_zero"].passed is True
    assert rows["contraction_zero"].value == 0.0
    assert rows["contraction_growth"].passed is True


def test_worker_step_failure_reaches_caller(tmp_path, monkeypatch):
    # the limits reach the pool workers through fork; the failure must come
    # back as StepFailureError with its history, not as a broken pool
    monkeypatch.setattr(solver_mod, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(solver_mod, "PICARD_MAX_ITER", 1)
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("run", "paths", 2)
    cfg.set("run", "steps", 4)
    cfg.set("grid", "cells", 32)
    cfg.set("diagnostics", "checks", ("energy",))
    with pytest.raises(StepFailureError, match="step 1 of 4") as err:
        run_experiment(cfg, out_dir=str(tmp_path / "run"), workers=2)
    assert len(err.value.history) >= 2
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--workers", "2", "--out", str(tmp_path / "cli")]) == 1


def test_study_worker_step_failure_reaches_caller(tmp_path, monkeypatch):
    # the study pool hands a worker's failure back the same way
    monkeypatch.setattr(solver_mod, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(solver_mod, "PICARD_MAX_ITER", 1)
    cfg = small_default_config()
    cfg.set("run", "paths", 2)
    with pytest.raises(StepFailureError, match="step 1 of 4") as err:
        convergence_study(cfg, out_dir=str(tmp_path / "study"), workers=2)
    assert len(err.value.history) >= 2
    assert main(["study", "--config", write_config(tmp_path, cfg),
                 "--workers", "2", "--out", str(tmp_path / "cli")]) == 1


def test_seed_override_changes_outputs(tmp_path):
    cfg = small_config()
    cfg.set("diagnostics", "checks", ("energy",))
    run_experiment(cfg, out_dir=str(tmp_path / "s0"))
    run_experiment(cfg, out_dir=str(tmp_path / "s1"), seed_override=999)
    assert (tmp_path / "s0" / "energy.csv").read_bytes() != \
        (tmp_path / "s1" / "energy.csv").read_bytes()


# ---------------------------------------------------------------------------
# CLI surface

def write_config(tmp_path, cfg):
    p = tmp_path / "exp.cfg"
    p.write_text(cfg.manifest_text())
    return str(p)


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[model]\nphi = cubic\n")
    assert main(["validate", "--config", str(p)]) == 2
    assert main(["run", "--config", str(p)]) == 2
    # parameters the noise measures reject are invalid input as well
    for text in ("[noise]\nposition_mass = -1\n",
                 "[noise]\nsize = alpha_stable\nalpha = 3.0\n",
                 "[noise]\nsize = uniform\nsize_lo = 2.0\n"):
        p.write_text(text)
        assert main(["validate", "--config", str(p)]) == 2
        assert "[noise]" in capsys.readouterr().err
    # run settings outside their range exit 2 and name the key
    for text, key in (("[run]\nsteps = 0\n", "run.steps"),
                      ("[run]\nsteps_list = 0, 4\n", "run.steps_list"),
                      ("[diagnostics]\nidentity_pairs = 0\n",
                       "diagnostics.identity_pairs"),
                      ("[diagnostics]\nmoment_orders = 3\n",
                       "diagnostics.moment_orders"),
                      ("[diagnostics]\nchecks = moments\nmoment_orders =\n",
                       "diagnostics.moment_orders"),
                      ("[diagnostics]\ncontraction_weight = 0\n",
                       "diagnostics.contraction_weight"),
                      ("[diagnostics]\ncontraction_weight = -1.5\n",
                       "diagnostics.contraction_weight"),
                      ("[diagnostics]\ncontraction_weight = inf\n",
                       "diagnostics.contraction_weight"),
                      ("[diagnostics]\ncontraction_weight = nan\n",
                       "diagnostics.contraction_weight"),
                      ("[diagnostics]\nisometry_paths = 1\n",
                       "diagnostics.isometry_paths"),
                      ("[diagnostics]\nmax_principle_cap = inf\n",
                       "diagnostics.max_principle_cap"),
                      ("[diagnostics]\nmax_principle_cap = -3\n",
                       "diagnostics.max_principle_cap"),
                      ("[diagnostics]\nmax_principle_cap = nan\n",
                       "diagnostics.max_principle_cap"),
                      ("[grid]\nbc = dirichlet\n", "grid.bc"),
                      ("[model]\nepsilon = nan\n", "epsilon"),
                      ("[model]\nepsilon = inf\n", "epsilon"),
                      ("[model]\nhorizon = nan\n", "horizon"),
                      ("[model]\nhorizon = inf\n", "horizon"),
                      ("[run]\neps_list = 0.1, 0.0\n", "run.eps_list"),
                      ("[run]\neps_list = 0.1, -0.05\n", "run.eps_list"),
                      ("[run]\neps_list = 0.1, nan\n", "run.eps_list"),
                      ("[run]\neps_list = inf, 0.1\n", "run.eps_list"),
                      ("[noise]\nsize = uniform\nsize_mass = -1\n",
                       "[noise] size_mass"),
                      ("[noise]\nsize = uniform\nsize_mass = nan\n",
                       "[noise] size_mass"),
                      ("[noise]\nsize = alpha_stable\nstrength = -1\n",
                       "[noise] strength"),
                      ("[noise]\nsize = alpha_stable\nstrength = inf\n",
                       "[noise] strength"),
                      ("[noise]\nsize_atoms = 1.0:nan\n",
                       "[noise] size_atoms"),
                      ("[noise]\nsize_atoms = inf:1.0\n",
                       "[noise] size_atoms"),
                      ("[model]\nu0 = constant\n[grid]\nhalf_width = nan\n"
                       "[run]\nsteps_list = 4\n", "half_width"),
                      ("[grid]\nhalf_width = inf\n[run]\nsteps_list = 4\n",
                       "half_width")):
        p.write_text(text)
        for verb in ("validate", "run", "study"):
            assert main([verb, "--config", str(p),
                         "--out", str(tmp_path / "bad")]) == 2
            assert key in capsys.readouterr().err
    # a pool needs at least one worker
    good = write_config(tmp_path, small_config())
    for workers in ("0", "-3"):
        for verb in ("run", "study"):
            assert main([verb, "--config", good, "--workers", workers,
                         "--out", str(tmp_path / "w")]) == 2
            assert "--workers must be >= 1" in capsys.readouterr().err


def test_cli_missing_file_exit_2():
    assert main(["run", "--config", "/nonexistent/x.cfg"]) == 2


def test_cli_validate_pass(tmp_path):
    cfg = small_config()
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0


def test_cli_run_pass_and_artifacts(tmp_path, capsys):
    cfg = small_config()
    code = main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    assert (tmp_path / "out" / "report.csv").exists()


def test_cli_inconclusive_exit_3(tmp_path):
    # isometry on a state-dependent amplitude is reported inconclusive
    cfg = small_config()
    cfg.set("noise", "sigma", "compact")
    cfg.set("noise", "sigma_scale", 0.5)
    cfg.set("diagnostics", "checks", ("isometry",))
    code = main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_cli_study_runs(tmp_path):
    cfg = small_config()
    cfg.set("run", "steps_list", (4, 8, 16))
    cfg.set("run", "eps_list", ())
    cfg.set("run", "paths", 4)
    code = main(["study", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "study")])
    assert code in (0, 3)  # few paths may leave the fit noise-dominated
    rates = (tmp_path / "study" / "rates.csv").read_text()
    assert "slope" in rates.splitlines()[0]


def test_linear_smoke_baseline(tmp_path):
    # bundled regression baseline: every selected check passes, one core,
    # under a minute
    import time
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "linear-smoke.cfg"))
    tic = time.time()
    rep = run_experiment(cfg, out_dir=str(tmp_path / "smoke"))
    elapsed = time.time() - tic
    assert not rep.any_failed and not rep.any_inconclusive
    assert elapsed < 60.0


def test_study_short_lists_inconclusive(tmp_path):
    cfg = small_config()
    cfg.set("run", "steps_list", (8, 16))
    cfg.set("run", "paths", 3)
    reports = convergence_study(cfg, out_dir=str(tmp_path / "short"))
    assert reports[0].status is None
    rows = (tmp_path / "short" / "rates.csv").read_text().splitlines()
    assert "inconclusive" in rows[1]


def test_cli_replay_verb(tmp_path):
    cfg = small_config()
    cfg.set("diagnostics", "checks", ("determinism",))
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "orig")]) == 0
    assert main(["replay", "--manifest",
                 str(tmp_path / "orig" / "manifest.txt"),
                 "--out", str(tmp_path / "redo")]) == 0
    assert (tmp_path / "orig" / "report.csv").read_bytes() == \
        (tmp_path / "redo" / "report.csv").read_bytes()
