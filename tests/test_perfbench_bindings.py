"""The benchmark tracer wraps stoclaw functions by module attribute name and
reads fields of the records they return; installing it here, and pushing
one small solve through it, catches a renamed or deleted binding or field
in seconds."""

import importlib.util
import os

import numpy as np

import stoclaw as sc

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                       "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    from stoclaw import diagnostics, entropy, harness

    before = (diagnostics.martingale_term, harness.entropy_residual,
              entropy.batch_simpson)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert diagnostics.martingale_term is not before[0]
    finally:
        tracer.uninstall()
    assert (diagnostics.martingale_term, harness.entropy_residual,
            entropy.batch_simpson) == before


def test_tracer_counts_one_small_solve():
    # the tracer reads StepStats, Trajectory.spec/grid/fields and replaces
    # the zeta and nu closures of an EntropyTriple
    tracing = load_tracing()
    from stoclaw import harness

    levy = sc.LevyIntensity(4.0, sc.SizeMeasure("atoms", atoms=((1.0, 1.0),)))
    spec = sc.ProblemSpec(
        phi=sc.phi_family("stefan"), flux=sc.flux_family("burgers"),
        eta=sc.eta_family("separable", sigma_kind="compact",
                          sigma_scale=0.8),
        u0=sc.init_family("bump", height=0.5), levy=levy, epsilon=0.05,
        horizon=0.5)
    grid = sc.Grid(dim=1, half_width=3.0, cells=16)
    path = sc.sample_jump_path(levy, spec.horizon, 3)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traj = harness.solve_path(spec, grid, 4, path)
        triple = harness.make_beta_theta(0.1, phi=spec.phi, flux=spec.flux)
        triple.zeta(traj.fields[-1])
        triple.nu(traj.fields[-1])
        harness.kirchhoff(spec.phi)(traj.fields[-1])
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["solver.solve_path.calls"] == 1
    assert metrics["solver.distinct_solve_ratio"] == 1.0
    assert metrics["solver.implicit_step.calls"] == 4
    assert metrics["noise.compensated_increment.calls"] == 4
    assert metrics["solver.newton_iters_per_step"] == np.mean(
        [st.newton_iterations for st in traj.stats]) > 0
    assert metrics["solver.picard_fallbacks"] == 0
    assert metrics["entropy.kirchhoff.evals"] == 1
    assert metrics["entropy.zeta.evals"] == 1
    assert metrics["entropy.nu.evals"] == 1
