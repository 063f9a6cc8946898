import dataclasses
import os
import pickle

import numpy as np
import pytest

import stoclaw as sc
import stoclaw.solver as solver_mod
from stoclaw.config import ExperimentConfig
from stoclaw.noise import JumpPath, LevyIntensity, SizeMeasure
from stoclaw.solver import (StepFailureError, cell_integral, grad_sq, l2_sq,
                            lemma_ratios, mass_outside, norm_l2)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def silent_levy():
    return LevyIntensity(0.0, SizeMeasure("atoms", atoms=((1.0, 0.0),)))


def atom_levy(mass=2.0):
    return LevyIntensity(mass, SizeMeasure("atoms", atoms=((1.0, 1.0),)))


def make_spec(phi="zero", flux="zero", eps=0.0, eta=None, levy=None,
              u0=None, horizon=0.5, phi_scale=1.0, flux_scale=1.0):
    return sc.ProblemSpec(
        phi=sc.phi_family(phi, phi_scale),
        flux=sc.flux_family(flux, flux_scale),
        eta=eta if eta is not None else sc.eta_family("zero"),
        u0=u0 if u0 is not None else sc.init_family("bump", height=0.5,
                                                    width=1.0),
        levy=levy if levy is not None else silent_levy(),
        epsilon=eps, horizon=horizon)


def empty_path(levy, horizon=0.5):
    return JumpPath(np.empty(0), np.empty(0), horizon, levy)


# ---------------------------------------------------------------------------
# Single steps

def test_identity_step():
    spec = make_spec()
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    u = sc.discretize_initial(spec, grid)
    out, _, _ = sc.implicit_step(spec, grid, u, np.zeros_like(u), 0.1)
    np.testing.assert_array_equal(out, u)


def test_constant_state_fixed_point():
    spec = make_spec(phi="stefan", flux="burgers", eps=0.5)
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    u = np.full(grid.shape, 0.37)
    out, _, _ = sc.implicit_step(spec, grid, u, np.zeros_like(u), 0.05)
    np.testing.assert_allclose(out, u, atol=1e-12)


def test_linear_step_matches_periodic_oracle():
    eps, dt, m = 1.0, 0.1, 96
    spec = make_spec(eps=eps)
    grid = sc.Grid(dim=1, half_width=2.0, cells=m)
    h2 = grid.h ** 2
    mat = np.zeros((m, m))
    for i in range(m):
        mat[i, i] = 1.0 + 2.0 * dt * eps / h2
        mat[i, (i + 1) % m] = -dt * eps / h2
        mat[i, (i - 1) % m] = -dt * eps / h2
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.uniform(-1, 1, m)
        ours, _, _ = sc.implicit_step(spec, grid, u, np.zeros(m), dt)
        oracle = np.linalg.solve(mat, u)
        assert norm_l2(ours - oracle, grid) <= 1e-12


def test_step_residual_within_tolerance():
    spec = make_spec(phi="stefan", flux="burgers", eps=0.05)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    u = sc.discretize_initial(spec, grid)
    _, stats, _ = sc.implicit_step(spec, grid, u, np.zeros_like(u), 0.02)
    assert stats.residual <= 1e-10 * (1.0 + norm_l2(u, grid))


def test_lemma_estimate_checked_when_applicable():
    # no flux, so dt c_f^2 <= eps / 2 holds and the one-step elliptic
    # estimate claims ratio <= 2 (3 + 2 c_phi^2 + c_phi / dt) on every step
    levy = atom_levy()
    eta = sc.eta_family("separable", g_kind="const", g_height=0.5,
                        sigma_kind="compact", sigma_scale=0.5, sigma_cap=1.0)
    spec = make_spec(phi="porous", eps=0.1, eta=eta, levy=levy,
                     u0=sc.init_family("bump", height=1.5, width=1.0))
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    path = sc.sample_jump_path(levy, 0.5, 5)
    assert path.count > 0
    traj = sc.solve_path(spec, grid, 10, path)
    assert spec.flux.c_f == 0.0
    c_phi = spec.phi.c_phi
    bound = 2.0 * (3.0 + 2.0 * c_phi ** 2 + c_phi / traj.dt)
    ratios = lemma_ratios(traj)
    assert len(ratios) == 10
    assert all(0.0 < r <= bound for r in ratios)


def test_step_failure_carries_history(monkeypatch):
    monkeypatch.setattr(solver_mod, "NEWTON_MAX_ITER", 1)
    spec = make_spec(phi="stefan", flux="burgers", eps=0.01,
                     u0=sc.init_family("bump", height=2.0, width=1.0))
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    u = sc.discretize_initial(spec, grid)
    with pytest.raises(StepFailureError) as err:
        sc.implicit_step(spec, grid, u, np.zeros_like(u), 0.4)
    assert len(err.value.history) >= 2
    copy = pickle.loads(pickle.dumps(err.value))
    assert str(copy) == str(err.value) and copy.history == err.value.history


def test_step_failure_propagates_step_index(monkeypatch):
    monkeypatch.setattr(solver_mod, "NEWTON_MAX_ITER", 1)
    spec = make_spec(phi="stefan", flux="burgers", eps=0.01,
                     u0=sc.init_family("bump", height=2.0, width=1.0),
                     horizon=2.0)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    with pytest.raises(StepFailureError, match="step 1 of 4"):
        sc.solve_path(spec, grid, 4, empty_path(silent_levy(), 2.0))


# ---------------------------------------------------------------------------
# Stencil

def roll_laplacian(v, grid):
    # per-axis accumulation from zeros, neighbours by np.roll
    out = np.zeros_like(v)
    for ax in range(grid.dim):
        out += (np.roll(v, -1, axis=ax) + np.roll(v, +1, axis=ax)
                - 2.0 * v) / grid.h ** 2
    return out


def roll_operator_terms(u, spec, grid):
    """lap phi(u), lap u and the Engquist-Osher div f(u), each flux half
    evaluated on the rolled neighbours of u."""
    div = np.zeros_like(u)
    f = spec.flux
    for ax in range(grid.dim):
        up, um = np.roll(u, -1, axis=ax), np.roll(u, +1, axis=ax)
        div += (f.fplus(u) + f.fminus(up) - f.fplus(um)
                - f.fminus(u)) / grid.h
    lap_phi = roll_laplacian(np.asarray(spec.phi.phi(u), dtype=float), grid)
    return lap_phi, roll_laplacian(u, grid), div


@pytest.mark.parametrize("dim,cells", [(1, 96), (2, 32)])
@pytest.mark.parametrize("flux", ["zero", "linear", "burgers"])
@pytest.mark.parametrize("phi", ["zero", "linear", "stefan", "porous"])
def test_stencil_matches_roll_oracle_bitwise(phi, flux, dim, cells):
    # the step operator from one stencil pass equals the per-neighbour
    # evaluation bit for bit, across the kinks
    spec = make_spec(phi=phi, flux=flux, eps=0.07, phi_scale=1.3,
                     flux_scale=-0.8 if flux == "linear" else 0.8)
    grid = sc.Grid(dim=dim, half_width=2.0, cells=cells)
    u = 1.5 * np.random.default_rng(17).normal(size=grid.shape)
    lap_phi, lap_u, div = roll_operator_terms(u, spec, grid)
    op = solver_mod._step_operator(u, spec, grid)
    assert op.shape == grid.shape
    assert np.array_equal(op, lap_phi + spec.epsilon * lap_u + div)


def counting_spec(calls):
    # porous phi and Burgers flux whose every evaluation is counted by name
    spec = make_spec(phi="porous", flux="burgers", eps=0.05,
                     u0=sc.init_family("bump", height=1.5, width=1.0))

    def counted(name, fn):
        def wrapper(u):
            calls[name] = calls.get(name, 0) + 1
            return fn(u)
        return wrapper

    phi = dataclasses.replace(
        spec.phi, phi=counted("phi", spec.phi.phi),
        dphi=counted("dphi", spec.phi.dphi))
    flux = dataclasses.replace(spec.flux, **{
        name: counted(name, getattr(spec.flux, name))
        for name in ("fplus", "fminus", "dfplus", "dfminus")})
    return dataclasses.replace(spec, phi=phi, flux=flux)


@pytest.mark.parametrize("dim,cells", [(1, 96), (2, 32)])
def test_step_evaluates_each_coefficient_once_per_field(dim, cells,
                                                        monkeypatch):
    # one phi and one f+/f- per residual evaluation, one dphi and one
    # df+/df- per Jacobian, whatever the dimension, one factorization per
    # Jacobian: no neighbour or axis is evaluated apart, and chord steps
    # reuse the factors
    calls = {}
    spec = counting_spec(calls)
    grid = sc.Grid(dim=dim, half_width=2.0, cells=cells)
    for name in ("_step_operator", "_operator_jacobian",
                 "_factor_newton_matrix"):
        fn = getattr(solver_mod, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver_mod, name, counted)
    u = sc.discretize_initial(spec, grid)
    calls.clear()
    _, stats, _ = sc.implicit_step(spec, grid, u, np.zeros_like(u), 0.05)
    residuals, jacobians = calls["_step_operator"], calls["_operator_jacobian"]
    assert calls["_factor_newton_matrix"] == jacobians == stats.jacobians
    assert jacobians <= stats.newton_iterations
    assert jacobians >= 2 and residuals > jacobians
    assert calls["phi"] == residuals
    assert calls["fplus"] == calls["fminus"] == residuals
    assert calls["dphi"] == jacobians
    assert calls["dfplus"] == calls["dfminus"] == jacobians


def bundled_case(name, dim, cells, seed):
    # a bundled config's data at the given dimension and grid, with one of
    # its jump paths
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, name + ".cfg"))
    cfg.set("model", "dim", dim)
    cfg.set("grid", "cells", cells)
    spec = cfg.build_spec()
    return (spec, cfg.build_grid(), cfg.get("run", "steps"),
            sc.sample_jump_path(spec.levy, spec.horizon, seed))


def porous_case(dim, cells):
    # porous phi at dt = 0.5: chord steps from u_n slow down, so the
    # Jacobian is refreshed within a step
    spec = make_spec(phi="porous", flux="burgers", eps=0.05,
                     u0=sc.init_family("bump", height=1.5, width=1.0),
                     horizon=1.0)
    return (spec, sc.Grid(dim=dim, half_width=2.0, cells=cells), 2,
            empty_path(silent_levy(), 1.0))


@pytest.mark.parametrize("case,refresh", [
    (lambda: bundled_case("stochastic-default", 1, 96, 4), False),
    (lambda: bundled_case("contraction", 2, 32, 4), False),
    (lambda: porous_case(1, 96), True),
    (lambda: porous_case(2, 32), True),
], ids=["stochastic-default-1d", "contraction-2d", "porous-refresh-1d",
        "porous-refresh-2d"])
def test_accepted_steps_meet_the_residual_tolerance(case, refresh):
    # F(u) recomputed from the step operator and the rebuilt right-hand
    # side: every step the chord iteration accepts is within
    # 1e-10 (1 + ||u_n||), on factors carried from the previous step,
    # fresh or refreshed, across the jumps of the bundled paths
    spec, grid, n_steps, path = case()
    assert refresh or path.count > 0
    traj = sc.solve_path(spec, grid, n_steps, path)
    dt, u = traj.dt, traj.fields
    gx = None if spec.silent else spec.eta.g(grid.coords())
    for n, st in enumerate(traj.stats):
        x_rhs = u[n] + sc.compensated_increment(
            path, spec, grid, u[n], n * dt, (n + 1) * dt, gx=gx)
        res = u[n + 1] - dt * solver_mod._step_operator(u[n + 1], spec,
                                                        grid) - x_rhs
        assert norm_l2(res, grid) <= 1e-10 * (1.0 + norm_l2(u[n], grid))
        assert 0 <= st.jacobians <= st.newton_iterations < \
            solver_mod.NEWTON_MAX_ITER
    assert traj.stats[0].jacobians >= 1
    assert not refresh or max(st.jacobians for st in traj.stats) > 1
    assert refresh or sum(st.jacobians for st in traj.stats) < n_steps


@pytest.mark.parametrize("name,dim,cells", [
    ("linear-smoke", 1, 192), ("maxprinciple", 1, 96),
    ("moments-linear", 1, 32), ("contraction", 1, 96),
    ("stochastic-default", 1, 96), ("contraction", 2, 32),
], ids=["linear-smoke", "maxprinciple", "moments-linear", "contraction",
        "stochastic-default", "checks-2d"])
def test_trajectory_keeps_the_increments_it_drew(name, dim, cells):
    # increments[n] is bitwise the compensated increment at u_n, and
    # u_{n+1} solves the step against u_n + increments[n]
    spec, grid, n_steps, path = bundled_case(name, dim, cells, 4)
    assert path.count > 0
    traj = sc.solve_path(spec, grid, n_steps, path)
    u, dt = traj.fields, traj.dt
    assert traj.increments.shape == (n_steps,) + grid.shape
    for n in range(n_steps):
        inc = sc.compensated_increment(path, spec, grid, u[n], n * dt,
                                       (n + 1) * dt)
        assert np.array_equal(traj.increments[n], inc)
        res = (u[n + 1] - dt * solver_mod._step_operator(u[n + 1], spec, grid)
               - (u[n] + traj.increments[n]))
        assert norm_l2(res, grid) <= 1e-10 * (1.0 + norm_l2(u[n], grid))
    assert np.any(traj.increments != 0.0)


def test_2d_path_reuses_factors_across_steps():
    # the carried factors serve most steps: at most one factorization per
    # ten steps over six contraction paths at 32^2 with 0 to 3 jumps each
    factorizations = steps = 0
    for seed in range(6):
        spec, grid, n_steps, path = bundled_case("contraction", 2, 32, seed)
        traj = sc.solve_path(spec, grid, n_steps, path)
        factorizations += sum(st.jacobians for st in traj.stats)
        steps += n_steps
    assert factorizations <= 0.1 * steps


@pytest.mark.parametrize("u_scale,dt_scale", [(1.0, 100.0), (3.0, 1.0)],
                         ids=["dt", "state"])
def test_stale_factors_are_refreshed(u_scale, dt_scale):
    # factors made at 100 dt, or at a state far from u_n, fail the chord
    # test: the step refactors and still meets its residual tolerance
    spec = make_spec(phi="porous", flux="burgers", eps=0.05,
                     u0=sc.init_family("bump", height=0.5, width=1.0))
    grid = sc.Grid(dim=2, half_width=2.0, cells=32)
    u = sc.discretize_initial(spec, grid)
    dt = 0.02
    _, _, solve = sc.implicit_step(spec, grid, u_scale * u, np.zeros_like(u),
                                   dt_scale * dt)
    out, st, fresh = sc.implicit_step(spec, grid, u, np.zeros_like(u), dt,
                                      solve)
    assert st.jacobians >= 1 and fresh is not solve
    res = out - dt * solver_mod._step_operator(out, spec, grid) - u
    assert norm_l2(res, grid) <= 1e-10 * (1.0 + norm_l2(u, grid))


# ---------------------------------------------------------------------------
# Newton matrix

def away_from_kinks(rng, shape):
    # |u| in [0.05, 0.95] or [1.05, 2]: off the stefan kinks at +-1 and the
    # upwind kink at 0, where a central difference of the residual is exact
    # up to round-off
    mag = np.where(rng.uniform(size=shape) < 0.5,
                   rng.uniform(0.05, 0.95, shape), rng.uniform(1.05, 2.0, shape))
    return np.where(rng.uniform(size=shape) < 0.5, -mag, mag)


def dense_newton_matrix(diag, coefs, grid, dt):
    # I - dt J from the stencil coefficients, neighbours wrapping
    idx = np.arange(diag.size).reshape(grid.shape)
    mat = np.eye(diag.size) - dt * np.diag(diag)
    for ax, (plus, minus) in enumerate(coefs):
        mat[idx.ravel(), np.roll(idx, -1, axis=ax).ravel()] -= dt * plus
        mat[idx.ravel(), np.roll(idx, +1, axis=ax).ravel()] -= dt * minus
    return mat


@pytest.mark.parametrize("dim,cells", [(1, 48), (2, 32)],
                         ids=["1-48-periodic", "2-32-periodic"])
def test_newton_matrix_matches_finite_difference(dim, cells):
    spec = make_spec(phi="stefan", flux="burgers", eps=0.05)
    grid = sc.Grid(dim=dim, half_width=2.0, cells=cells)
    dt = 0.01
    u = away_from_kinks(np.random.default_rng(3), grid.shape).ravel()
    diag, coefs = solver_mod._operator_jacobian(u.reshape(grid.shape), spec,
                                                grid)
    mat = dense_newton_matrix(diag, coefs, grid, dt)

    def residual(v):
        v = v.reshape(grid.shape)
        return (v - dt * solver_mod._step_operator(v, spec, grid)).ravel()

    step = 1e-5
    fd = np.empty_like(mat)
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = step
        fd[:, j] = (residual(u + e) - residual(u - e)) / (2.0 * step)
    np.testing.assert_allclose(mat, fd, rtol=0.0,
                               atol=1e-8 * np.max(np.abs(mat)))


@pytest.mark.parametrize("dim,cells", [(1, 96), (1, 97), (2, 32), (2, 33)],
                         ids=["periodic-96", "periodic-97", "periodic-32",
                              "periodic-33"])
def test_banded_newton_solve_matches_dense(dim, cells):
    # one band solve of a nonlinear, nonsymmetric Newton matrix on the
    # folded ordering (odd and even fold) against a dense solve with every
    # wrap-around entry in place, in 1D and 2D
    spec = make_spec(phi="stefan", flux="burgers", eps=0.05)
    grid = sc.Grid(dim=dim, half_width=2.0, cells=cells)
    half_bandwidth = solver_mod._stencil(grid)[1][0]
    assert half_bandwidth == (2 if dim == 1 else 2 * cells)
    rng = np.random.default_rng(13)
    u = away_from_kinks(rng, grid.shape)
    dt = 0.02
    diag, coefs = solver_mod._operator_jacobian(u, spec, grid)
    mat = dense_newton_matrix(diag, coefs, grid, dt)
    # cell 0 and its -1 neighbour along each axis couple across the torus
    for j in ((cells - 1) * cells ** ax for ax in range(dim)):
        assert mat[0, j] != 0.0 and mat[j, 0] != 0.0
    assert not np.allclose(mat, mat.T)
    solve = solver_mod._factor_newton_matrix(diag, coefs, grid, dt)
    for rhs in rng.uniform(-1, 1, (2, grid.cells ** dim)):  # factors reused
        ours = solve(rhs)
        oracle = np.linalg.solve(mat, rhs)
        assert np.max(np.abs(ours - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_singular_newton_matrix_fails_the_step(monkeypatch):
    # I - dt J = 0: the band factorization reports the zero pivot
    for dim in (1, 2):
        grid = sc.Grid(dim=dim, half_width=2.0, cells=8)
        zeros = np.zeros(8 ** dim)
        with pytest.raises(np.linalg.LinAlgError):
            solver_mod._factor_newton_matrix(
                np.ones(8 ** dim), [(zeros, zeros)] * dim, grid, 1.0)

    def singular(*args):
        raise np.linalg.LinAlgError("singular")

    # no second solver: the first singular matrix fails the step, with the
    # initial residual in the history and the step index from solve_path
    monkeypatch.setattr(solver_mod, "_factor_newton_matrix", singular)
    for dim, cells in ((1, 32), (2, 16)):
        spec = make_spec(phi="porous", eps=0.1)
        grid = sc.Grid(dim=dim, half_width=2.0, cells=cells)
        u = sc.discretize_initial(spec, grid)
        res0 = norm_l2(u - 0.01 * solver_mod._step_operator(u, spec, grid)
                       - u, grid)
        assert res0 > 1e-10 * (1.0 + norm_l2(u, grid))
        with pytest.raises(StepFailureError, match="singular") as err:
            sc.implicit_step(spec, grid, u, np.zeros_like(u), 0.01)
        assert err.value.history == [res0]
        with pytest.raises(StepFailureError, match="step 1 of 3"):
            sc.solve_path(spec, grid, 3, empty_path(silent_levy()))


def test_line_search_stall_fails_the_step(monkeypatch):
    # a zero Newton direction never decreases the residual: every Armijo
    # halving down to ARMIJO_FLOOR is rejected and the step fails
    monkeypatch.setattr(solver_mod, "_factor_newton_matrix",
                        lambda diag, coefs, grid, dt: np.zeros_like)
    spec = make_spec(phi="porous", eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    u = sc.discretize_initial(spec, grid)
    with pytest.raises(StepFailureError, match="line search stalled") as err:
        sc.implicit_step(spec, grid, u, np.zeros_like(u), 0.01)
    assert len(err.value.history) == 1 and err.value.history[0] > 0.0


# ---------------------------------------------------------------------------
# Whole paths

def test_mass_conservation_periodic():
    spec = make_spec(phi="porous", eps=0.2)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    traj = sc.solve_path(spec, grid, 16, empty_path(silent_levy()))
    masses = [float(np.sum(traj.fields[k])) * grid.cell_volume
              for k in range(17)]
    np.testing.assert_allclose(masses, masses[0], atol=1e-12)


def test_self_refinement_convergence():
    # smooth viscous profile: errors against a 10x finer reference shrink
    # roughly first order in dt on a fixed grid
    spec = make_spec(phi="linear", phi_scale=0.2, flux="burgers", eps=0.1,
                     flux_scale=0.5)
    grid = sc.Grid(dim=1, half_width=2.0, cells=128)
    path = empty_path(silent_levy())
    ref = sc.solve_path(spec, grid, 160, path)
    errs = []
    for n in (8, 16, 32):
        traj = sc.solve_path(spec, grid, n, path)
        errs.append(norm_l2(traj.fields[-1] - ref.fields[-1], grid))
    errs = np.asarray(errs)
    assert np.all(errs[1:] <= 0.65 * errs[:-1])


def test_bitwise_determinism():
    levy = atom_levy()
    eta = sc.eta_family("separable", g_kind="const", g_height=0.5,
                        sigma_kind="compact", sigma_scale=0.5, sigma_cap=1.0)
    spec = make_spec(phi="stefan", flux="burgers", eps=0.05, eta=eta,
                     levy=levy)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    path = sc.sample_jump_path(levy, 0.5, 33)
    t1 = sc.solve_path(spec, grid, 16, path)
    sc.solve_path(spec, grid, 16, sc.sample_jump_path(levy, 0.5, 34))
    t2 = sc.solve_path(spec, grid, 16, path)
    assert np.array_equal(t1.fields, t2.fields)
    assert [s.residual for s in t1.stats] == [s.residual for s in t2.stats]
    # the factors leave no state behind: a hand-threaded march from no
    # factors reproduces the path bitwise
    u, solve = t1.fields[0], None
    for n in range(16):
        inc = sc.compensated_increment(path, spec, grid, u, n * t1.dt,
                                       (n + 1) * t1.dt)
        u, st, solve = sc.implicit_step(spec, grid, u, inc, t1.dt, solve)
        assert np.array_equal(u, t1.fields[n + 1]) and st == t1.stats[n]


def test_comparison_monotonicity_smoke():
    # ordered initial states stay ordered for the monotone form
    spec = make_spec(phi="stefan", flux="burgers", eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    lo = sc.discretize_initial(
        spec.with_u0(sc.init_family("bump", height=0.3, width=1.0)), grid)
    hi = sc.discretize_initial(
        spec.with_u0(sc.init_family("bump", height=0.6, width=1.2)), grid)
    path = empty_path(silent_levy())
    t_lo = sc.solve_path(spec, grid, 16, path, u0_field=lo)
    t_hi = sc.solve_path(spec, grid, 16, path, u0_field=hi)
    assert np.all(t_lo.fields <= t_hi.fields + 1e-8)


def test_2d_solver_smoke():
    spec = make_spec(phi="porous", flux="burgers", eps=0.05,
                     u0=sc.init_family("bump", height=0.5, width=0.8),
                     horizon=0.25)
    grid = sc.Grid(dim=2, half_width=2.0, cells=64)
    traj = sc.solve_path(spec, grid, 8, empty_path(silent_levy(), 0.25))
    assert traj.fields.shape == (9, 64, 64)
    assert max(s.residual for s in traj.stats) <= 1e-9
    masses = [float(np.sum(traj.fields[k])) * grid.cell_volume for k in (0, 8)]
    np.testing.assert_allclose(masses[0], masses[1], atol=1e-10)


def barenblatt(x, tau):
    """Barenblatt profile of u_tau = lap(u^3) in d = x.shape[-1] dimensions,
    tau^-alpha (0.8 - k |x|^2 tau^(-2 alpha / d))_+^(1/2) with alpha =
    d / (2d + 2) and k = alpha / (3d) (Vazquez, The Porous Medium Equation,
    ch. 4). It stays below 1 for tau >= 1, where the porous phi is u^3 / 3,
    so B(x, t / 3) solves u_t = lap phi(u)."""
    d = x.shape[-1]
    alpha = d / (2.0 * d + 2.0)
    k = alpha / (3.0 * d)
    r2 = np.sum(x * x, axis=-1)
    return tau ** -alpha * np.sqrt(np.maximum(
        0.8 - k * r2 * tau ** (-2.0 * alpha / d), 0.0))


def barenblatt_orders(dim, ladder):
    """Observed L1 orders of the degenerate step on the Barenblatt solution:
    porous phi, no flux, no noise, eps = 0 on [-6, 6)^dim, from B(x, 1)
    over t in [0, 3] against B(x, 2), one run per (cells, steps) of
    ``ladder``. Asserts that every run conserves mass."""
    spec = make_spec(phi="porous", horizon=3.0)
    path = empty_path(silent_levy(), 3.0)
    errs = []
    for cells, steps in ladder:
        grid = sc.Grid(dim=dim, half_width=6.0, cells=cells)
        x = grid.coords()
        traj = sc.solve_path(spec, grid, steps, path,
                             u0_field=barenblatt(x, 1.0))
        masses = cell_integral(traj.fields, grid)
        np.testing.assert_allclose(masses, masses[0], rtol=0.0, atol=1e-12)
        errs.append(cell_integral(np.abs(traj.fields[-1]
                                         - barenblatt(x, 2.0)), grid))
    return np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))


# dt proportional to h: 12 steps on the coarsest grid, doubling with cells
BARENBLATT_LADDERS = {1: [(48 * 2 ** j, 12 * 2 ** j) for j in range(5)],
                      2: [(24, 12), (48, 24)]}


@pytest.mark.parametrize("dim", [1, 2])
def test_barenblatt_l1_order(dim):
    # the first exact oracle inside phi's degenerate active region: a
    # monotone scheme converges in L1 at least at Kuznetsov's h^(1/2)
    orders = barenblatt_orders(dim, BARENBLATT_LADDERS[dim])
    assert np.all(orders >= 0.5), orders


# ---------------------------------------------------------------------------
# Energy bookkeeping

def test_energy_zero_data():
    spec = make_spec(phi="linear", eps=0.1,
                     u0=sc.init_family("zero"))
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    traj = sc.solve_path(spec, grid, 8, empty_path(silent_levy()))
    rep = sc.discrete_energy_report(traj, sc.kirchhoff(spec.phi))
    assert sorted(rep) == ["grad_g_sq", "grad_phi_sq", "grad_u_sq",
                           "increment_sq", "u_norm_sq"]
    for name, terms in rep.items():
        assert terms.shape == ((9,) if name in ("u_norm_sq", "grad_g_sq")
                               else (8,))
        np.testing.assert_array_equal(terms, 0.0)


def test_energy_noiseless_monotone():
    spec = make_spec(phi="stefan", flux="burgers", eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    traj = sc.solve_path(spec, grid, 16, empty_path(silent_levy()))
    rep = sc.discrete_energy_report(traj, sc.kirchhoff(spec.phi))
    assert np.all(np.diff(rep["u_norm_sq"]) <= 1e-12)
    assert np.all(rep["grad_g_sq"] >= 0.0)


def test_viscous_energy_bound_uniform_in_epsilon():
    # sup_n ||u_n||^2 + eps dt sum ||grad u_n||^2 + dt sum ||grad G(u_n)||^2
    # stays bounded as eps is reduced
    levy = atom_levy()
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="compact", sigma_scale=0.8, sigma_cap=1.0)
    totals = []
    for eps in (0.1, 0.05, 0.025):
        spec = make_spec(phi="stefan", flux="burgers", eps=eps, eta=eta,
                         levy=levy)
        grid = sc.Grid(dim=1, half_width=2.0, cells=64)
        acc = 0.0
        for seed in range(10):
            path = sc.sample_jump_path(levy, 0.5, seed)
            traj = sc.solve_path(spec, grid, 16, path)
            rep = sc.discrete_energy_report(traj, sc.kirchhoff(spec.phi))
            acc += (float(np.max(rep["u_norm_sq"]))
                    + eps * traj.dt * float(np.sum(rep["grad_u_sq"]))
                    + traj.dt * float(np.sum(rep["grad_g_sq"][1:])))
        totals.append(acc / 10.0)
    assert max(totals) <= 2.0 * min(totals) + 1e-9


def test_initial_condition_time_average():
    # (1/tau) int_0^tau int |u - u0| psi shrinks as tau -> 0 (noiseless)
    spec = make_spec(phi="porous", flux="burgers", eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=128)
    traj = sc.solve_path(spec, grid, 64, empty_path(silent_levy()))
    u0 = traj.fields[0]
    psi = np.maximum(1.0 - (grid.coords()[..., 0] / 1.5) ** 2, 0.0) ** 2
    vals = []
    for frac in (16, 32, 64):
        tau = spec.horizon / frac
        steps = max(1, int(round(tau / traj.dt)))
        acc = 0.0
        for k in range(1, steps + 1):
            acc += traj.dt * float(
                np.sum(np.abs(traj.fields[k] - u0) * psi)) * grid.cell_volume
        vals.append(acc / tau)
    assert vals[2] < vals[1] < vals[0]


def test_grad_sq_matches_summation_by_parts():
    rng = np.random.default_rng(0)
    grid = sc.Grid(dim=1, half_width=1.0, cells=32)
    u = rng.uniform(-1, 1, 32)
    lhs = -float(np.sum(roll_laplacian(u, grid) * u)) * grid.cell_volume
    np.testing.assert_allclose(lhs, grad_sq(u, grid), atol=1e-12)


@pytest.mark.parametrize("dim, cells", [(1, 96), (2, 32)])
def test_stacked_reductions_match_per_field(dim, cells):
    # a whole-trajectory reduction gives each field's per-field loop value,
    # summed cell by cell as before the stack form, bit for bit
    grid = sc.Grid(dim=dim, half_width=3.0, cells=cells)
    stack = np.random.default_rng(11).normal(size=(9,) + grid.shape)
    vol = grid.cell_volume
    shell = np.max(np.abs(grid.coords()), axis=-1) > \
        grid.half_width - grid.margin

    def grad_loop(u):
        total = 0.0
        for ax in range(dim):
            d = (np.roll(u, -1, axis=ax) - u) / grid.h
            total += float(np.sum(d * d)) * vol
        return total

    for reduce, loop in (
            (l2_sq, lambda u: float(np.sum(u * u)) * vol),
            (grad_sq, grad_loop),
            (lambda u, g: cell_integral(np.abs(u) ** 4, g),
             lambda u: float(np.sum(np.abs(u) ** 4)) * vol),
            (mass_outside, lambda u: float(np.sum(np.abs(u[shell]))) * vol)):
        want = [loop(u) for u in stack]
        np.testing.assert_array_equal(reduce(stack, grid), want)
        np.testing.assert_array_equal([reduce(u, grid) for u in stack], want)
    # the run's boundary_mass value: the largest field's, as a float
    assert float(np.max(mass_outside(stack, grid))) == max(
        float(np.sum(np.abs(u[shell]))) * vol for u in stack)
