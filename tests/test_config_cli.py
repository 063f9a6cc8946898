import ast
import csv
import importlib
import importlib.util
import math
import os
import pkgutil
import sys

import pytest

import stoclaw.harness as harness
import stoclaw.solver as solver_mod
from stoclaw.cli import main
from stoclaw.config import _SCHEMA, ConfigError, ExperimentConfig
from stoclaw.diagnostics import STATUS_TEXT, determinism_test
from stoclaw.harness import (convergence_study, path_seed, replay,
                             run_experiment)
from stoclaw.model import (InvalidSpecError, eta_family, flux_family,
                           init_family, phi_family)
from stoclaw.noise import compensated_increment, sample_jump_path
from stoclaw.solver import StepFailureError, solve_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")


def test_every_exported_name_resolves():
    # a deletion that leaves a stale name in some module's __all__ fails here
    import stoclaw
    modules = [importlib.import_module("stoclaw." + info.name)
               for info in pkgutil.iter_modules(stoclaw.__path__)]
    exported = [(mod, name) for mod in modules
                for name in getattr(mod, "__all__", ())]
    assert len(exported) > 50
    assert [(mod.__name__, name) for mod, name in exported
            if not hasattr(mod, name)] == []


def test_every_name_imported_across_modules_is_exported():
    # a public name one stoclaw module imports from another is in that
    # module's __all__, so the package never leans on an unexported name
    import stoclaw
    missing = []
    for info in pkgutil.iter_modules(stoclaw.__path__):
        with open(os.path.join(stoclaw.__path__[0], info.name + ".py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = importlib.import_module("stoclaw." + node.module)
                missing += [(info.name, node.module, a.name)
                            for a in node.names if not a.name.startswith("_")
                            and a.name not in getattr(source, "__all__", ())]
    assert missing == []


def find_in_package(allowed, matches, skip=()):
    """The (module, function) pairs of ``allowed`` that hold a node which
    ``matches``, and the (module, line) of every matching node outside
    them, over the package's modules but those in ``skip``."""
    import stoclaw
    found, outside = set(), []
    for info in pkgutil.iter_modules(stoclaw.__path__):
        if info.name in skip:
            continue
        with open(os.path.join(stoclaw.__path__[0], info.name + ".py")) as fh:
            tree = ast.parse(fh.read())
        inside = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and \
                    (info.name, fn.name) in allowed:
                inside.update((id(n), fn.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if matches(node):
                if id(node) in inside:
                    found.add((info.name, inside[id(node)]))
                else:
                    outside.append((info.name, node.lineno))
    return found, outside


def test_float_format_has_one_csv_writer():
    # every CSV artifact goes through harness.write_csv, and the manifest
    # renderer keeps its own format: no other code spells out "%.17g"
    allowed = {("harness", "write_csv"), ("config", "_render_value")}
    found, outside = find_in_package(
        allowed, lambda node: isinstance(node, ast.Constant)
        and isinstance(node.value, str) and "%.17g" in node.value)
    assert outside == []
    assert found == allowed


def test_report_rows_are_built_in_diagnostics():
    # every report row comes from the diagnostics aggregator that decides
    # its verdict; the sandwich and identity rows are still built in the
    # harness until both checks become unit tests (ROADMAP D23)
    allowed = {("harness", "_check_sandwich"),
               ("harness", "_check_identities")}

    def builds_a_row(node):
        callee = getattr(node, "func", None)
        return isinstance(node, ast.Call) and getattr(
            callee, "id", getattr(callee, "attr", None)) in (
            "CheckResult", "at_most")

    found, outside = find_in_package(allowed, builds_a_row,
                                     skip=("diagnostics",))
    assert outside == []
    assert found == allowed


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
    # Engquist-Osher is the only flux discretization
    with pytest.raises(ConfigError, match="unknown key model.flux_form"):
        ExperimentConfig.from_text("[model]\nflux_form = central\n")


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
    cfgs = [ExperimentConfig.from_file(os.path.join(CONFIG_DIR, name + ".cfg"))
            for name in ("linear-smoke", "stochastic-default", "maxprinciple",
                         "moments-linear", "contraction")]
    # the README's example config, so a key deleted from the schema but
    # left in the docs fails here
    with open(os.path.join(CONFIG_DIR, "..", "README.md")) as fh:
        readme = fh.read()
    cfgs.append(ExperimentConfig.from_text(
        readme.split("```ini\n", 1)[1].split("```", 1)[0]))
    for cfg in cfgs:
        spec = cfg.build_spec()
        grid = cfg.build_grid()
        assert spec.horizon > 0
        assert grid.cells >= 4
        if not spec.silent:
            assert spec.lambda_star < 1.0


def eta_part(spec, i):
    # a separable family is named "separable:<g>*<sigma>*<h>"
    return spec.eta.name.split(":")[1].split("*")[i]


# the schema keys that name a catalog family, and what each builds
FAMILY_KEYS = {
    ("model", "phi"): lambda spec, v0: spec.phi.name,
    ("model", "flux"): lambda spec, v0: spec.flux.name,
    ("model", "u0"): lambda spec, v0: spec.u0.name,
    ("noise", "eta"): lambda spec, v0: spec.eta.name.split(":")[0],
    ("noise", "g"): lambda spec, v0: eta_part(spec, 0),
    ("noise", "sigma"): lambda spec, v0: spec.eta.sigma_kind,
    ("noise", "h"): lambda spec, v0: eta_part(spec, 2),
    ("diagnostics", "v0"): lambda spec, v0: v0.name if v0 else "",
}


@pytest.mark.parametrize("dim", [1, 2])
def test_schema_names_match_the_model_catalog(dim):
    # every name the schema allows builds the family of that name
    for (section, key), built in FAMILY_KEYS.items():
        for name in _SCHEMA[section][key][2]:
            cfg = ExperimentConfig.defaults()
            cfg.set("model", "dim", dim)
            if section == "noise" and key != "eta":
                cfg.set("noise", "eta", "separable")
            cfg.set(section, key, name)
            assert built(cfg.build_spec(), cfg.build_v0()) == name
    # and every other name, the deleted ones included, is refused by the
    # catalog, so neither module keeps a name the other has dropped
    everything = {v for keys in _SCHEMA.values() for typ, _, allowed
                  in keys.values() if allowed and typ is str for v in allowed}
    everything |= {"box", "clip", "no-such-family"}

    def refused(key):
        return sorted(everything.difference(_SCHEMA[key[0]][key[1]][2]))

    builders = {
        ("model", "phi"): lambda n: phi_family(n),
        ("model", "flux"): lambda n: flux_family(n),
        ("model", "u0"): lambda n: init_family(n),
        ("noise", "eta"): lambda n: eta_family(n),
        ("noise", "g"): lambda n: eta_family("separable", g_kind=n),
        ("noise", "sigma"): lambda n: eta_family("separable", sigma_kind=n),
        ("noise", "h"): lambda n: eta_family("separable", h_kind=n),
    }
    # v0 is built by init_family, like u0
    assert set(builders) | {("diagnostics", "v0")} == set(FAMILY_KEYS)
    assert set(_SCHEMA["diagnostics"]["v0"][2]) == \
        set(_SCHEMA["model"]["u0"][2]) | {""}
    for key, build in builders.items():
        for name in refused(key):
            with pytest.raises(InvalidSpecError):
                build(name)


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
    assert rep == []
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


def test_single_path_worker_count_invariance(tmp_path, monkeypatch):
    # one path split into lane, determinism and snapshot jobs: every
    # artifact is identical whether the jobs run inline or in a pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "contraction.cfg"))
    cfg.set("model", "dim", 2)
    cfg.set("grid", "cells", 16)
    cfg.set("run", "steps", 8)
    cfg.set("run", "paths", 1)
    cfg.set("diagnostics", "checks",
            ("max_principle", "moments", "contraction", "determinism"))
    for workers in (1, 2, 3):
        run_experiment(cfg, out_dir=str(tmp_path / ("w%d" % workers)),
                       workers=workers)
    for name in ("report.csv", "fields/u_path0000.csv",
                 "fields/stats_path0000.csv"):
        first = (tmp_path / "w1" / name).read_bytes()
        for workers in (2, 3):
            assert first == (tmp_path / ("w%d" % workers) / name).read_bytes()
    assert b"determinism" in (tmp_path / "w1" / "report.csv").read_bytes()

    study = small_default_config()
    study.set("run", "paths", 1)
    for workers in (1, 2):
        convergence_study(study, out_dir=str(tmp_path / ("s%d" % workers)),
                          workers=workers)
    rates = (tmp_path / "s1" / "rates.csv").read_bytes()
    assert rates == (tmp_path / "s2" / "rates.csv").read_bytes()
    assert rates.count(b"\n") == 7


def test_snapshot_lemma_ratios_match_per_step_loop(tmp_path, monkeypatch):
    # the snapshot job's lemma_ratio column is, byte for byte, the one-step
    # estimate of every step of path 0 against u_n plus its increment
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = small_default_config()
    cfg.set("run", "paths", 2)
    cfg.set("model", "u0_height", 1.5)
    cfg.set("diagnostics", "checks", ("boundary_mass",))
    spec, grid = cfg.build_spec(), cfg.build_grid()
    n_steps = cfg.get("run", "steps")
    path = sample_jump_path(spec.levy, spec.horizon,
                            path_seed(cfg.get("run", "seed"), 0))
    assert path.count > 0
    traj = solve_path(spec, grid, n_steps, path)
    want = []
    for n in range(n_steps):
        inc = compensated_increment(path, spec, grid, traj.fields[n],
                                    n * traj.dt, (n + 1) * traj.dt)
        want.append("%.17g" % solver_mod._lemma_check(
            traj.fields[n + 1], traj.fields[n] + inc, spec, grid))
    for workers in (1, 2):
        out = tmp_path / ("w%d" % workers)
        run_experiment(cfg, out_dir=str(out), workers=workers)
        with open(out / "fields" / "stats_path0000.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["lemma_ratio"] for r in rows] == want


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, cpus, expect", [
    (8, 2, [2]),      # capped at the usable CPUs, not the job count
    (3, 4, [3]),
    (8, 8, [6]),      # capped at the job count
    (4, 1, []),       # one usable CPU: inline, no pool
])
def test_pool_size_is_capped_by_jobs_and_cpus(monkeypatch, workers, cpus,
                                              expect):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    cfg = small_config()
    jobs = [(path_seed(cfg.get("run", "seed"), 0), ("max_principle",))] * 6
    out = harness._run_paths(cfg, jobs, workers)
    assert _InlinePool.sizes == expect
    assert len(out) == 6 and all(r == out[0] for r in out)


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


def read_signed_report(path):
    """report.csv rows by check, after asserting the report contract: an
    inconclusive row prints a nan margin, any other row passes exactly when
    its margin is >= 0."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        if r["status"] == "inconclusive":
            assert r["margin"] == "nan", r
        else:
            assert (r["status"] == "pass") is (float(r["margin"]) >= 0.0), r
    return {r["check"]: r for r in rows}


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["linear-smoke", "stochastic-default",
                                  "maxprinciple", "moments-linear",
                                  "contraction"])
def test_row_passes_exactly_when_its_margin_is_nonnegative(tmp_path, name):
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, name + ".cfg"))
    cfg.set("run", "paths", 2)
    cfg.set("run", "steps", 4)
    cfg.set("diagnostics", "identity_pairs", 20)
    cfg.set("diagnostics", "isometry_paths", 200)
    # every config's coefficients through the assumption rows as well
    checks = cfg.get("diagnostics", "checks")
    cfg.set("diagnostics", "checks", checks + tuple(
        c for c in ("assumptions", "determinism") if c not in checks))
    run_experiment(cfg, out_dir=str(tmp_path))
    rows = read_signed_report(tmp_path / "report.csv")
    assert "assumption_a1_modulus_trend" in rows


def test_failing_fit_rows_have_negative_margins(tmp_path):
    # the checks-2d benchmark workload at reference seed 2 fails both moment
    # rows and the contraction growth row: their fits disagree under dt
    # halving by more than the tolerance, so the slack is negative
    workloads = load_workloads()
    cfg = ExperimentConfig.from_text(workloads.config_text(
        ROOT, workloads.WORKLOADS["checks-2d"], 2))
    run_experiment(cfg, out_dir=str(tmp_path))
    rows = read_signed_report(tmp_path / "report.csv")
    for name in ("moment_p2", "moment_p4", "contraction_growth"):
        assert rows[name]["status"] == "fail"
        assert float(rows[name]["margin"]) < 0.0


@pytest.mark.parametrize("sigma_scale", [2.0, 1.0])
def test_a3_fails_with_negative_margin_from_lambda_star_one(tmp_path,
                                                             sigma_scale):
    # linear sigma under unit atoms: lambda_star = sigma_scale. The sampled
    # A3 ratio is 1, inside its 1 + 1e-8 bound, so the strict
    # lambda_star < 1 binds; lambda_star = 1 must fail too
    cfg = ExperimentConfig.from_text(
        "[noise]\neta = separable\nsigma = linear\nsigma_scale = %r\n"
        "position_mass = 1\nsize_atoms = 1.0:1.0\n"
        "[run]\npaths = 2\nsteps = 4\n"
        "[diagnostics]\nchecks = assumptions\n" % sigma_scale)
    assert cfg.build_spec().lambda_star == sigma_scale
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 1
    a3 = read_signed_report(tmp_path / "out" / "report.csv")["assumption_a3"]
    assert a3["status"] == "fail" and float(a3["margin"]) < 0.0
    assert float(a3["value"]) <= 1.0 + 1e-8


def test_nonfinite_energy_total_fails_with_negative_margin(tmp_path,
                                                           monkeypatch):
    real = harness.discrete_energy_report

    def blown_up(traj, kirchhoff_fn):
        terms = real(traj, kirchhoff_fn)
        terms["u_norm_sq"][-1] = math.inf
        return terms

    monkeypatch.setattr(harness, "discrete_energy_report", blown_up)
    cfg = small_config()
    cfg.set("run", "paths", 2)
    report = run_experiment(cfg, out_dir=str(tmp_path))
    (row,) = [c for c in report if c.name == "energy_bound"]
    assert row.value == math.inf and row.margin == -math.inf
    assert row.passed is False
    assert read_signed_report(tmp_path / "report.csv")[
        "energy_bound"]["status"] == "fail"


def test_failed_determinism_row_has_negative_margin():
    for same, margin in ((True, 0.0), (False, -1.0)):
        row = determinism_test(same)
        assert row.passed is same and row.margin == row.bound - row.value
        assert row.margin == margin


def test_isometry_with_vanishing_amplitude_is_silent(tmp_path):
    # sigma_scale = 0 makes eta vanish identically; at this seed the bare
    # h sums stray beyond their 3-sigma band, which must not fail the row
    cfg = ExperimentConfig.from_text(
        "[noise]\neta = separable\nsigma = const\nsigma_scale = 0\n"
        "[run]\nseed = 32\n[diagnostics]\nchecks = isometry\n"
        "isometry_paths = 30\n")
    (row,) = run_experiment(cfg, out_dir=str(tmp_path))
    assert row.passed is True and row.margin == 0.0
    assert row.statement.startswith("silent noise")


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
    rows = {c.name: c for c in report}
    assert rows["contraction_zero"].passed is True
    assert rows["contraction_zero"].value == 0.0
    # judged against 1e-8 ||u0||_1, which is the bound it reports
    assert rows["contraction_zero"].margin == rows["contraction_zero"].bound
    assert rows["contraction_zero"].bound > 0.0
    assert rows["contraction_growth"].passed is True


def test_worker_step_failure_reaches_caller(tmp_path, monkeypatch):
    # the limits reach the pool workers through fork; the failure must come
    # back as StepFailureError with its history, not as a broken pool
    monkeypatch.setattr(solver_mod, "NEWTON_MAX_ITER", 1)
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
    # one path, determinism only: the failure starts in the determinism or
    # snapshot job, both of which run in the pool
    cfg.set("run", "paths", 1)
    cfg.set("diagnostics", "checks", ("determinism",))
    with pytest.raises(StepFailureError, match="step 1 of 4") as err:
        run_experiment(cfg, out_dir=str(tmp_path / "det"), workers=2)
    assert len(err.value.history) >= 2
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--workers", "2", "--out", str(tmp_path / "det_cli")]) == 1


def test_study_worker_step_failure_reaches_caller(tmp_path, monkeypatch):
    # the study pool hands a worker's failure back the same way
    monkeypatch.setattr(solver_mod, "NEWTON_MAX_ITER", 1)
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
    cfg.set("run", "seed", 999)
    run_experiment(cfg, out_dir=str(tmp_path / "s1"))
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
        for verb, out in (("validate", []),
                          ("run", ["--out", str(tmp_path / "bad")]),
                          ("study", ["--out", str(tmp_path / "bad")])):
            assert main([verb, "--config", str(p)] + out) == 2
            assert key in capsys.readouterr().err
    # a pool needs at least one worker
    good = write_config(tmp_path, small_config())
    for workers in ("0", "-3"):
        for verb in ("run", "study"):
            assert main([verb, "--config", good, "--workers", workers,
                         "--out", str(tmp_path / "w")]) == 2
            assert "--workers must be >= 1" in capsys.readouterr().err
    # a flag the verb does not read is an argparse error, not ignored
    for argv in (["replay", "--manifest", good, "--seed", "3"],
                 ["validate", "--config", good, "--workers", "2"],
                 ["validate", "--config", good, "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_missing_file_exit_2():
    assert main(["run", "--config", "/nonexistent/x.cfg"]) == 2


def assert_one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err, err
    assert err.count("\n") == 1, err


def test_cli_negative_seed_exit_2_before_any_artifact(tmp_path, capsys):
    # --seed goes through the config's own range checks
    p = write_config(tmp_path, small_default_config())
    out = tmp_path / "out"
    for verb, flags in (("validate", []), ("run", ["--out", str(out)]),
                        ("study", ["--out", str(out)])):
        assert main([verb, "--config", p, "--seed", "-1"] + flags) == 2
        assert_one_error_line(capsys, "run.seed must be >= 0")
        assert not out.exists()


def test_cli_study_without_lists_exit_2_before_any_artifact(tmp_path,
                                                             capsys):
    cfg = small_config()
    cfg.set("run", "steps_list", ())
    cfg.set("run", "eps_list", ())
    out = tmp_path / "out"
    assert main(["study", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert_one_error_line(capsys, "run.steps_list or run.eps_list")
    assert not out.exists()


def test_cli_unreadable_input_path_exit_2(tmp_path, capsys):
    # a directory where a config or manifest file is expected, and a file
    # that is not valid UTF-8
    out = tmp_path / "out"
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe" + small_config().manifest_text().encode())
    for bad in (str(tmp_path), str(binary)):
        for argv in (["validate", "--config", bad],
                     ["run", "--config", bad, "--out", str(out)],
                     ["study", "--config", bad, "--out", str(out)],
                     ["replay", "--manifest", bad, "--out", str(out)]):
            assert main(argv) == 2, argv
            assert_one_error_line(capsys, "cannot read %s" % bad)
            assert not out.exists()


def test_cli_out_names_a_file_exit_2(tmp_path, capsys):
    # --out naming an existing plain file: one error line, nothing written
    p = write_config(tmp_path, small_default_config())
    out = tmp_path / "out.txt"
    out.write_text("keep\n")
    before = sorted(os.listdir(tmp_path))
    for verb in ("run", "study"):
        assert main([verb, "--config", p, "--out", str(out)]) == 2, verb
        assert_one_error_line(capsys, "cannot create output directory %s"
                              % out)
        assert out.read_text() == "keep\n"
        assert sorted(os.listdir(tmp_path)) == before


def test_cli_initial_data_in_margin_exit_2(tmp_path, capsys):
    # initial data reaching the truncation margin are invalid input: every
    # verb exits 2 with one error line, at any worker count, and so does
    # the replay of a manifest of the same config
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("grid", "half_width", 1.0)
    cfg.set("run", "paths", 2)
    contraction = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "contraction.cfg"))
    contraction.set("run", "paths", 2)
    contraction.set("diagnostics", "v0_center", 2.5)  # u0 alone fits
    for name, c in (("default", cfg), ("v0", contraction)):
        p = write_config(tmp_path, c)
        manifest = tmp_path / (name + "_manifest.txt")
        manifest.write_text(c.manifest_text())
        argvs = [["validate", "--config", p]]
        for workers in ("1", "2"):
            out = str(tmp_path / ("%s_%s" % (name, workers)))
            argvs += [[verb, "--config", p, "--workers", workers,
                       "--out", out + verb] for verb in ("run", "study")]
            argvs.append(["replay", "--manifest", str(manifest),
                          "--workers", workers, "--out", out + "replay"])
        for argv in argvs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "reaches the margin" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("flux_scale", -1.0, "burgers scale must be positive"),
    ("u0_width", 2.9, "reaches the margin")], ids=["flux", "u0"])
def test_cli_invalid_problem_exit_2_before_any_artifact(tmp_path, capsys,
                                                        key, value, message):
    # a coefficient the catalog refuses, or a u0 reaching the truncation
    # margin of [-3, 3): every verb exits 2 with one error line before it
    # writes a manifest or anything else
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("model", key, value)
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for verb, flags in (("validate", []), ("run", ["--out", str(out)]),
                        ("study", ["--out", str(out)])):
        assert main([verb, "--config", p] + flags) == 2, verb
        assert_one_error_line(capsys, message)
        assert not out.exists(), verb


@pytest.mark.parametrize("section, key, value", [
    ("diagnostics", "checks", ("energy", "determinism", "energy")),
    ("diagnostics", "moment_orders", (2, 2)),
    ("run", "steps_list", (8, 8, 16)),
    ("run", "steps_list", (16, 8)),
    ("run", "eps_list", (0.1, 0.1, 0.05)),
    ("run", "eps_list", (0.05, 0.1))],
    ids=["checks-repeated", "moment-orders-repeated", "steps-repeated",
         "steps-decreasing", "eps-repeated", "eps-increasing"])
def test_cli_repeated_or_unordered_list_exit_2_before_any_artifact(
        tmp_path, capsys, section, key, value):
    # a repeated check or moment order would report its rows twice, and
    # the rate lanes need strictly refining ladders: steps up, eps down
    cfg = small_default_config()
    cfg.set(section, key, value)
    p = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for verb, flags in (("validate", []), ("run", ["--out", str(out)]),
                        ("study", ["--out", str(out)])):
        assert main([verb, "--config", p] + flags) == 2, verb
        assert_one_error_line(capsys, "%s.%s" % (section, key))
        assert not out.exists(), verb


def test_cli_validate_pass(tmp_path):
    cfg = small_config()
    assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0


# x-dependent eta makes the modulus trend bind, and Stefan's jump in
# sqrt(phi') keeps the trend from decreasing: A1-A5 pass, the trend fails
MODULUS_TREND_FAILS = ("[model]\nphi = stefan\n[noise]\neta = separable\n"
                       "g = bump\ng_height = 0.5\nsigma = compact\n")


@pytest.mark.parametrize("name, code", [
    ("linear-smoke", 0), ("stochastic-default", 0), ("maxprinciple", 0),
    ("moments-linear", 0), ("contraction", 0), ("modulus-trend", 1)])
def test_validate_prints_the_assumption_rows_of_run(tmp_path, capsys, name,
                                                    code):
    if name == "modulus-trend":
        cfg = ExperimentConfig.from_text(MODULUS_TREND_FAILS)
    else:
        cfg = ExperimentConfig.from_file(
            os.path.join(CONFIG_DIR, name + ".cfg"))
    cfg.set("run", "paths", 1)
    cfg.set("diagnostics", "checks", ("assumptions",))
    p = write_config(tmp_path, cfg)
    assert main(["validate", "--config", p]) == code
    validated = capsys.readouterr().out.splitlines()
    assert main(["run", "--config", p, "--out", str(tmp_path / "o")]) == code
    ran = capsys.readouterr().out.splitlines()
    assert validated == [line for line in ran if " assumption_" in line]
    assert len(validated) == 5


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
    assert all(c.margin is not None and c.margin >= 0.0
               for c in rep)
    assert elapsed < 60.0


def test_study_short_lists_inconclusive(tmp_path):
    cfg = small_config()
    cfg.set("run", "steps_list", (8, 16))
    cfg.set("run", "paths", 3)
    reports = convergence_study(cfg, out_dir=str(tmp_path / "short"))
    assert reports[0].margin is None and reports[0].passed is None
    rows = (tmp_path / "short" / "rates.csv").read_text().splitlines()
    assert "inconclusive" in rows[1]


@pytest.mark.parametrize("steps_list, eps_list, statuses", [
    # noiseless linear diffusion at 32 cells: the Cauchy slope reads 1.61,
    # below the deterministic window, and the viscosity ratios stay < 0.9
    ((4, 8, 16), (0.2, 0.1, 0.05), ["fail", "pass"]),
    ((4, 8), (0.2, 0.1), ["inconclusive", "inconclusive"])])
def test_study_lane_status_is_the_sign_of_its_margin(tmp_path, steps_list,
                                                     eps_list, statuses):
    cfg = ExperimentConfig.from_text("[grid]\ncells = 32\n[run]\npaths = 2\n"
                                     "steps = 8\n")
    cfg.set("run", "steps_list", steps_list)
    cfg.set("run", "eps_list", eps_list)
    reports = convergence_study(cfg, out_dir=str(tmp_path))
    cauchy, viscosity = reports
    if statuses[0] != "inconclusive":
        assert cauchy.margin == min(cauchy.slope - 1.7, 2.3 - cauchy.slope)
        assert viscosity.margin == 0.9 - max(viscosity.ratios)
    with open(tmp_path / "rates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for rep, status in zip(reports, statuses):
        assert rep.passed is (None if rep.margin is None
                              else rep.margin >= 0.0)
        assert STATUS_TEXT[rep.passed] == status
        assert {r["status"] for r in rows if r["lane"] == rep.lane} == {status}


# noise that vanishes identically: by its amplitude, its jumps, or its
# sigma, on the data of stochastic-default
SILENT_NOISE = {"g_height": 0.0, "position_mass": 0.0, "sigma_scale": 0.0}


def silent_default_config(key):
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("grid", "cells", 48)
    cfg.set("run", "paths", 3)
    cfg.set("run", "steps", 8)
    cfg.set("run", "steps_list", (8, 16, 32))
    cfg.set("run", "eps_list", ())
    if key == "eta":
        cfg.set("noise", "eta", "zero")
    else:
        cfg.set("noise", key, SILENT_NOISE[key])
    return cfg


def test_silent_noise_studies_on_the_deterministic_lane(tmp_path, capsys):
    # every silent config writes the rates of eta = zero, which the
    # deterministic lane judges, and passes
    rates = {}
    for key in ["eta"] + sorted(SILENT_NOISE):
        out = tmp_path / key
        p = write_config(tmp_path, silent_default_config(key))
        assert main(["study", "--config", p, "--out", str(out)]) == 0, key
        assert capsys.readouterr().out.split()[:2] == ["PASS",
                                                      "deterministic"]
        rates[key] = (out / "rates.csv").read_bytes()
    assert rates["eta"].splitlines()[1].startswith(b"deterministic,")
    assert {rates[key] for key in SILENT_NOISE} == {rates["eta"]}


def test_silent_noise_study_solves_one_path_per_lane(tmp_path, monkeypatch):
    # every path of a silent study solves the same ladders: both lanes
    # plan the first path alone
    calls = []
    real = harness._path_reductions

    def counted(cfg, seed, selected):
        calls.append((seed, tuple(selected)))
        return real(cfg, seed, selected)

    monkeypatch.setattr(harness, "_path_reductions", counted)
    cfg = silent_default_config("eta")
    cfg.set("run", "paths", 8)
    cfg.set("run", "eps_list", (0.2, 0.1, 0.05))
    convergence_study(cfg, out_dir=str(tmp_path), workers=1)
    seed = path_seed(cfg.get("run", "seed"), 0)
    assert calls == [(seed, ("cauchy",)), (seed, ("viscosity",))]


@pytest.mark.parametrize("key", sorted(SILENT_NOISE))
def test_silent_noise_max_principle_is_deterministic(tmp_path, key):
    # M = M1 = 0 leaves the bound ||u0||_inf, judged, not inconclusive
    cfg = silent_default_config(key)
    cfg.set("diagnostics", "checks", ("max_principle",))
    report = run_experiment(cfg, out_dir=str(tmp_path))
    (row,) = report
    assert row.passed is True
    assert row.bound == 0.5 * (1.0 + 1e-6)
    assert row.value <= 0.5


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
