import math
import os

import numpy as np
import pytest

import stoclaw as sc
from stoclaw import diagnostics as dg
from stoclaw.config import ExperimentConfig
from stoclaw.harness import path_seed
from stoclaw.noise import JumpPath, LevyIntensity, SizeMeasure
from stoclaw.solver import l2_sq


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def silent_levy():
    return LevyIntensity(0.0, SizeMeasure("atoms", atoms=((1.0, 0.0),)))


def atom_levy(mass=2.0, v=1.0):
    return LevyIntensity(mass, SizeMeasure("atoms", atoms=((v, 1.0),)))


def make_spec(phi="linear", flux="zero", eps=0.1, eta=None, levy=None,
              u0=None, horizon=0.5, phi_scale=1.0):
    return sc.ProblemSpec(
        phi=sc.phi_family(phi, phi_scale), flux=sc.flux_family(flux),
        eta=eta if eta is not None else sc.eta_family("zero"),
        u0=u0 if u0 is not None else sc.init_family("bump", height=0.5,
                                                    width=1.0),
        levy=levy if levy is not None else silent_levy(),
        epsilon=eps, horizon=horizon)


def empty_path(levy, horizon=0.5):
    return JumpPath(np.empty(0), np.empty(0), horizon, levy)


def sampled_paths(spec, seeds):
    return [sc.sample_jump_path(spec.levy, spec.horizon, s) for s in seeds]


# ---------------------------------------------------------------------------
# Test functions and weights

def test_bump_derivatives_match_finite_differences():
    psi = dg.bump_test_function(np.array([0.3]), 0.8, 0.4)
    x = np.linspace(-0.45, 1.05, 31)[:, None]
    t, eps = 0.12, 1e-5
    np.testing.assert_allclose(
        psi.dt(t, x), (psi(t + eps, x) - psi(t - eps, x)) / (2 * eps),
        atol=1e-8)
    np.testing.assert_allclose(
        psi.grad(t, x)[..., 0],
        (psi(t, x + eps) - psi(t, x - eps)) / (2 * eps), atol=1e-8)
    np.testing.assert_allclose(
        psi.lap(t, x),
        (psi(t, x + eps) - 2 * psi(t, x) + psi(t, x - eps)) / eps ** 2,
        atol=2e-5)


def test_bump_2d_laplacian():
    psi = dg.bump_test_function(np.array([0.1, -0.2]), 0.9, 0.4)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, (20, 2))
    t, eps = 0.05, 1e-5
    num = np.zeros(20)
    for ax in range(2):
        shift = np.zeros(2)
        shift[ax] = eps
        num += (psi(t, pts + shift) - 2 * psi(t, pts)
                + psi(t, pts - shift)) / eps ** 2
    np.testing.assert_allclose(psi.lap(t, pts), num, atol=5e-5)


def test_catalog_properties():
    cat = dg.test_function_catalog(2.0, 0.5)
    assert len(cat) == 5
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    coords = grid.coords()
    for psi in cat:
        vals = psi(0.0, coords)
        assert np.all(vals >= 0.0)
        # compact support inside [0, T) x interior
        assert np.all(psi(0.5, coords) == 0.0)
        assert vals[0] == 0.0 and vals[-1] == 0.0


def test_separable_tables_match_per_time_values():
    # psi and its derivatives at an array of times are the per-time values,
    # bit for bit, past the time cutoff included
    grid2 = sc.Grid(dim=2, half_width=1.0, cells=8)
    cases = [
        (dg.bump_test_function(np.array([0.3]), 0.8, 0.4),
         np.linspace(-0.45, 1.05, 31)[:, None]),
        (dg.bump_test_function(np.array([0.1, -0.2]), 0.9, 0.4),
         grid2.coords()),
        (dg.uniform_test_function(0.4), grid2.coords()),
    ]
    times = np.linspace(0.0, 0.6, 13)
    for psi, x in cases:
        for fn in (psi, psi.dt, psi.grad, psi.lap):
            table = fn(times, x)
            assert table.shape == times.shape + fn(0.1, x).shape
            for k, t in enumerate(times):
                assert np.array_equal(table[k], fn(float(t), x))


def test_weight_tail_identity_and_monotonicity():
    grid = sc.Grid(dim=1, half_width=8.0, cells=256)
    coords = grid.coords()
    r = np.abs(coords[..., 0])
    w2 = dg.WeightPhiN(2.0, 1)(coords)
    a = dg.WeightPhiN(2.0, 1).exponent
    tail = r > 2.0
    np.testing.assert_allclose(w2[tail] * r[tail] ** a, 2.0 ** a, rtol=1e-13)
    assert np.all((w2 > 0) & (w2 <= 1.0))
    # weights increase toward 1 with n
    prev = w2
    for n in (3.0, 5.0, 9.0):
        cur = dg.WeightPhiN(n, 1)(coords)
        assert np.all(cur >= prev - 1e-15)
        prev = cur


# ---------------------------------------------------------------------------
# Entropy residual

def test_residual_constant_state_near_zero():
    spec = make_spec(u0=sc.init_family("constant", height=0.7))
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    path = empty_path(silent_levy())
    traj = sc.solve_path(spec, grid, 32, path)
    triple = sc.make_beta_theta(0.1, phi=spec.phi, flux=spec.flux)
    for psi in dg.test_function_catalog(2.0, 0.5)[:2]:
        r = dg.entropy_residual(traj, path, triple, psi,
                                sc.kirchhoff(spec.phi))
        assert abs(r) <= 5e-3  # time-quadrature noise only


def test_residual_zero_for_disjoint_test_function():
    # psi vanishes identically on the trajectory's support window
    spec = make_spec()
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    path = empty_path(silent_levy())
    traj = sc.solve_path(spec, grid, 8, path)
    triple = sc.make_beta_theta(0.1, phi=spec.phi, flux=spec.flux)
    far = dg.bump_test_function(np.array([3.5]), 0.4, 0.4)
    assert dg.entropy_residual(traj, path, triple, far,
                               sc.kirchhoff(spec.phi)) == 0.0


def test_residual_heat_dissipation_reconciles_with_energy():
    # quadratic entropy, phi = 0, eps > 0, psi uniform: the residual equals
    # the implicit-Euler dissipation computed from the energy identity with
    # the same trapezoid weights
    spec = make_spec(phi="zero", eps=0.2)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    path = empty_path(silent_levy())
    n = 16
    traj = sc.solve_path(spec, grid, n, path)
    triple = sc.make_quadratic(phi=spec.phi, flux=spec.flux)
    psi = dg.uniform_test_function(t_cut=0.45)
    r = dg.entropy_residual(traj, path, triple, psi, sc.kirchhoff(spec.phi))
    assert r >= -1e-12

    # bookkeeping oracle: beta(u) = u^2/2 balances the viscous dissipation
    # and the step defect; integrate a'(t) E(t) with the same knots
    dt = traj.dt
    w = np.full(n + 1, dt)
    w[0] = w[-1] = dt / 2
    a = lambda t: max(0.0, 1.0 - t / 0.45) ** 2
    da = lambda t: -2.0 * max(0.0, 1.0 - t / 0.45) / 0.45
    acc = sum(w[k] * da(k * dt) * 0.5 * l2_sq(traj.fields[k], grid)
              for k in range(n + 1))
    acc += 0.5 * l2_sq(traj.fields[0], grid) * a(0.0)
    np.testing.assert_allclose(r, acc, atol=1e-12)


def test_residual_theta_stability():
    # residuals at theta and theta/2 differ by at most C theta
    levy = atom_levy()
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="compact", sigma_scale=0.8, sigma_cap=1.0)
    spec = make_spec(phi="stefan", flux="burgers", eps=0.05, eta=eta,
                     levy=levy)
    grid = sc.Grid(dim=1, half_width=3.0, cells=96)
    path = sc.sample_jump_path(levy, 0.5, 4)
    traj = sc.solve_path(spec, grid, 16, path)
    psi = dg.test_function_catalog(3.0, 0.5)[0]
    G = sc.kirchhoff(spec.phi)
    c_star = 0.0
    for theta in (0.4, 0.2, 0.1):
        r1 = dg.entropy_residual(
            traj, path,
            sc.make_beta_theta(theta, phi=spec.phi, flux=spec.flux), psi, G)
        r2 = dg.entropy_residual(
            traj, path,
            sc.make_beta_theta(theta / 2, phi=spec.phi, flux=spec.flux), psi,
            G)
        c_star = max(c_star, abs(r1 - r2) / theta)
    assert c_star <= 5.0


def test_tolerance_formula():
    spec = make_spec(eps=0.05)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    tol = dg.entropy_tolerance(spec, grid, 0.01, coeff=0.2)
    np.testing.assert_allclose(tol, 0.2 * (0.05 + grid.h + 0.01))


def test_calibration_runs_without_noise_intensity():
    # a zero-mass intensity is silent noise, and so is a zero amplitude
    # under jumps that do arrive; calibration refuses any other noise
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    quiet = sc.eta_family("separable", g_height=0.0)
    for spec in (make_spec(), make_spec(eta=quiet, levy=atom_levy())):
        coeff = dg.calibrate_entropy_tolerance([(spec, grid, 4)])
        assert np.isfinite(coeff) and coeff >= 0.05
    noisy = make_spec(eta=sc.eta_family("separable"), levy=atom_levy())
    with pytest.raises(ValueError, match="silent"):
        dg.calibrate_entropy_tolerance([(noisy, grid, 4)])


# The per-knot residual the stack contractions replaced, kept as the
# reference: one pass per knot for the time, laplacian, flux and face terms,
# and one window per step for the noise term's events.

def _oracle_martingale_term(path, spec, grid, traj, triple, psi):
    if spec.silent:
        return 0.0
    coords = grid.coords()
    gx = spec.eta.g(coords)
    vol = grid.cell_volume
    dt = traj.dt
    rate = path.intensity.h_moment(spec.eta.h_power)
    jumps = comp = 0.0
    for n in range(traj.n_steps):
        u = traj.fields[n]
        amp_u = gx * spec.eta.sigma(u)
        sl = path.window(n * dt, (n + 1) * dt)
        for t_j, v_j in zip(path.times[sl], path.sizes[sl]):
            amp = amp_u * float(spec.eta.h(v_j))
            jumps += float(np.sum((triple.beta(u + amp) - triple.beta(u))
                                  * psi(t_j, coords))) * vol
        psi_bar = 0.5 * (psi(n * dt, coords) + psi((n + 1) * dt, coords))
        comp += float(np.sum(amp_u * triple.dbeta(u) * psi_bar))
    return jumps - dt * rate * comp * vol


def _oracle_face_dissipation(g_u, u, triple, psi, t, grid):
    total = 0.0
    h = grid.h
    vol = grid.cell_volume
    psi_c = psi(t, grid.coords())
    d2_c = triple.d2beta(u)
    for ax in range(grid.dim):
        g_n = np.roll(g_u, -1, axis=ax)
        psi_n = np.roll(psi_c, -1, axis=ax)
        d2_n = np.roll(d2_c, -1, axis=ax)
        diff = (g_n - g_u) / h
        total += float(np.sum(diff * diff * 0.5 * (psi_c + psi_n)
                              * 0.5 * (d2_c + d2_n))) * vol
    return total


def _oracle_entropy_residual(traj, path, triple, psi, kirchhoff_fn):
    spec, grid = traj.spec, traj.grid
    coords = grid.coords()
    vol = grid.cell_volume
    dt = traj.dt
    n = traj.n_steps
    w_t = np.full(n + 1, dt)
    w_t[0] = w_t[-1] = 0.5 * dt
    t_time = t_lap = t_flux = t_diss = 0.0
    for k in range(n + 1):
        u = traj.fields[k]
        tk = traj.times[k]
        t_time += w_t[k] * float(np.sum(triple.beta(u)
                                        * psi.dt(tk, coords))) * vol
        if triple.nu is not None:
            t_lap += w_t[k] * float(np.sum(triple.nu(u)
                                           * psi.lap(tk, coords))) * vol
        if triple.zeta is not None:
            t_flux -= w_t[k] * float(np.sum(np.sum(
                triple.zeta(u)[..., None] * psi.grad(tk, coords),
                axis=-1))) * vol
        g_u = np.asarray(kirchhoff_fn(u), dtype=float)
        t_diss += w_t[k] * _oracle_face_dissipation(g_u, u, triple, psi, tk,
                                                    grid)
    t_noise = _oracle_martingale_term(path, spec, grid, traj, triple, psi)
    t_init = float(np.sum(triple.beta(traj.fields[0])
                          * psi(0.0, coords))) * vol
    return t_time + t_lap + t_flux + t_noise - t_diss + t_init


def _assert_residuals_match_oracle(spec, grid, traj, path):
    G = sc.kirchhoff(spec.phi)
    psis = dg.test_function_catalog(grid.half_width, spec.horizon)
    for theta in dg.THETA_VALUES:
        triple = sc.make_beta_theta(theta, phi=spec.phi, flux=spec.flux)
        for psi in psis:
            assert abs(sc.martingale_term(path, spec, grid, traj, triple, psi)
                       - _oracle_martingale_term(path, spec, grid, traj,
                                                 triple, psi)) <= 1e-12
            assert abs(dg.entropy_residual(traj, path, triple, psi, G)
                       - _oracle_entropy_residual(traj, path, triple, psi,
                                                  G)) <= 1e-12


# Stefan's G is flat where the bundled u lives, so its dissipation term is
# 0; the porous cases give every face term weight.
@pytest.mark.parametrize("dim, cells, steps, n_paths, phi",
                         [(1, 96, 32, 3, "stefan"), (2, 16, 8, 1, "porous")])
def test_residual_matches_per_knot_oracle(dim, cells, steps, n_paths, phi):
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("model", "dim", dim)
    cfg.set("model", "phi", phi)
    cfg.set("grid", "cells", cells)
    spec, grid = cfg.build_spec(), cfg.build_grid()
    events = 0
    for k in range(n_paths):
        path = sc.sample_jump_path(
            spec.levy, spec.horizon, path_seed(cfg.get("run", "seed"), k))
        events += path.count
        traj = sc.solve_path(spec, grid, steps, path)
        _assert_residuals_match_oracle(spec, grid, traj, path)
    assert events > 0


def test_residual_matches_oracle_with_events_on_knots():
    # dt = 1/9: the event at 7 dt divides back to just under knot 7 but
    # belongs to window 7; the event at N dt lies in no window
    levy = atom_levy(mass=1.0, v=0.7)
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="compact", sigma_scale=0.8, sigma_cap=1.0)
    spec = make_spec(phi="porous", flux="burgers", eps=0.05, eta=eta,
                     levy=levy, horizon=1.0)
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    n_steps = 9
    dt = spec.horizon / n_steps
    t_knot = 7 * dt
    assert int(t_knot / dt) == 6
    path = JumpPath(np.array([0.3, t_knot, n_steps * dt]),
                    np.array([0.7, 0.7, 0.7]), 1.0, levy)
    traj = sc.solve_path(spec, grid, n_steps, path)
    _assert_residuals_match_oracle(spec, grid, traj, path)


# ---------------------------------------------------------------------------
# Monte-Carlo means and rate tests

def test_path_mean_stderr_is_zero_at_one_path():
    mean, se = dg.path_mean_stderr([[0.5, 2.0, 3.0]])
    np.testing.assert_array_equal(mean, [0.5, 2.0, 3.0])
    np.testing.assert_array_equal(se, 0.0)


@pytest.mark.parametrize("n_paths", [2, 7, 8, 200])
def test_path_mean_stderr_matches_axis0_moments(n_paths):
    rows = np.random.default_rng(n_paths).lognormal(size=(n_paths, 5))
    mean, se = dg.path_mean_stderr(list(rows))
    np.testing.assert_array_equal(mean, np.mean(rows, axis=0))
    np.testing.assert_array_equal(
        se, np.std(rows, axis=0, ddof=1) / math.sqrt(n_paths))


def test_cauchy_deterministic_lane_second_order():
    spec = make_spec(phi="linear", phi_scale=0.3, eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    steps = [8, 16, 32, 64]
    per_path = [dg.cauchy_path_errors(spec, grid, path, steps)
                for path in sampled_paths(spec, [0])]
    rep = dg.cauchy_rate_test(spec, steps, per_path)
    assert rep.lane == "deterministic"
    assert rep.passed is True
    assert 1.7 <= rep.slope <= 2.3
    assert rep.margin == min(rep.slope - 1.7, 2.3 - rep.slope)


def test_cauchy_single_parameter_inconclusive():
    spec = make_spec(phi="linear", eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    per_path = [dg.cauchy_path_errors(spec, grid, path, [8])
                for path in sampled_paths(spec, [0])]
    rep = dg.cauchy_rate_test(spec, [8], per_path)
    assert rep.margin is None and rep.passed is None


def test_viscosity_single_epsilon_inconclusive():
    spec = make_spec(phi="linear", eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    per_path = [dg.viscosity_path_errors(spec, grid, path, [0.1], 8)
                for path in sampled_paths(spec, [0])]
    rep = dg.viscosity_convergence_test([0.1], per_path)
    assert rep.margin is None and rep.passed is None


def test_viscosity_absorbing_zero():
    # u0 = 0 with eta(x, 0, z) = 0: every viscosity difference is exactly 0
    levy = atom_levy()
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="linear", sigma_scale=0.5)
    spec = make_spec(phi="linear", eps=0.2, eta=eta, levy=levy,
                     u0=sc.init_family("zero"))
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    per_path = [dg.viscosity_path_errors(spec, grid, path, [0.2, 0.1], 8)
                for path in sampled_paths(spec, [0, 1])]
    rep = dg.viscosity_convergence_test([0.2, 0.1], per_path)
    np.testing.assert_array_equal(rep.errors_sq, 0.0)


def test_moment_absorbing_zero():
    levy = atom_levy()
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="linear", sigma_scale=0.5)
    spec = make_spec(phi="linear", eps=0.1, eta=eta, levy=levy,
                     u0=sc.init_family("zero"))
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    per_path = [dg.moment_path_rows(spec, grid, path, 2, 8)
                for path in sampled_paths(spec, [0, 1, 2])]
    rep = dg.moment_bound_test(spec, 2, per_path)
    np.testing.assert_array_equal(rep.mean, 0.0)
    assert rep.fit == 0.0 and rep.knot == 0


def test_moment_noiseless_nonincreasing():
    spec = make_spec(phi="porous", eps=0.1)
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    per_path = [dg.moment_path_rows(spec, grid, path, 2, 16)
                for path in sampled_paths(spec, [0])]
    rep = dg.moment_bound_test(spec, 2, per_path)
    assert np.all(np.diff(rep.mean) <= 1e-12)
    assert rep.fit <= 1e-9  # K = 0 is admissible


def test_moment_oracle_requires_linear_family():
    spec = make_spec()
    with pytest.raises(ValueError):
        dg.linear_moment_rate(spec, 2, 0.01)


def linear_moment_spec(u0):
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="linear", sigma_scale=0.5)
    return make_spec(eta=eta, levy=atom_levy(), u0=u0)


@pytest.mark.parametrize("u0", [sc.init_family("bump", height=1.0),
                                sc.init_family("zero")], ids=["bump", "zero"])
def test_moment_oracle_requires_constant_u0(u0):
    # a compactly supported u0 (a bump, or zero) is not spatially constant:
    # its cells interact through the diffusion, so the scalar recursion
    # behind the closed-form rate does not hold
    assert dg.linear_moment_rate(
        linear_moment_spec(sc.init_family("constant")), 2, 0.01) > 0.0
    with pytest.raises(ValueError, match="constant u0"):
        dg.linear_moment_rate(linear_moment_spec(u0), 2, 0.01)


def test_moment_oracle_skipped_at_knot_zero():
    # a constant u0 of height 0 stays 0: the fit binds at t = 0, where the
    # oracle band would be 0/0, so the oracle is not compared
    spec = linear_moment_spec(sc.init_family("constant", height=0.0))
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    per_path = [dg.moment_path_rows(spec, grid, path, 2, 4)
                for path in sampled_paths(spec, [0, 1, 2])]
    rep = dg.moment_bound_test(spec, 2, per_path,
                               oracle_rate=dg.linear_moment_rate(spec, 2, 0.1))
    assert rep.knot == 0 and rep.slack >= 0.0
    assert rep.oracle_band is None and rep.oracle_slack == math.inf


# ---------------------------------------------------------------------------
# Contraction

def contraction_spec():
    levy = atom_levy(mass=4.0)
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="compact", sigma_scale=0.8, sigma_cap=1.0)
    return make_spec(phi="stefan", flux="burgers", eps=0.05, eta=eta,
                     levy=levy)


def test_contraction_identical_data_exact_zero():
    spec = contraction_spec()
    grid = sc.Grid(dim=1, half_width=3.0, cells=48)
    per_path = [dg.contraction_path_distances(spec, grid, path, spec.u0,
                                              1.5, 8)
                for path in sampled_paths(spec, [0, 1])]
    rep = dg.contraction_test(spec, per_path)
    assert float(np.max(rep.mean)) == 0.0
    assert rep.fit == 0.0 and rep.fit_half == 0.0 and rep.slack >= 0.0


def test_contraction_deterministic_l1_nonincreasing():
    # monotone flux, no noise: plain L1 contraction
    spec = make_spec(phi="zero", flux="burgers", eps=0.05)
    grid = sc.Grid(dim=1, half_width=3.0, cells=96)
    v0 = sc.init_family("bump", height=0.4, center=0.3, width=0.8)
    per_path = [dg.contraction_path_distances(spec, grid, path, v0, 50.0,
                                              16)
                for path in sampled_paths(spec, [0])]
    rep = dg.contraction_test(spec, per_path)
    assert np.all(np.diff(rep.mean) <= 1e-10)
    assert rep.fit <= 1e-8


def test_contraction_weight_monotone_toward_unweighted():
    spec = contraction_spec()
    grid = sc.Grid(dim=1, half_width=3.0, cells=48)
    v0 = sc.init_family("bump", height=0.4, center=0.3, width=0.8)
    u = sc.discretize_initial(spec, grid)
    v = sc.discretize_initial(spec.with_u0(v0), grid)
    coords = grid.coords()
    unweighted = float(np.sum(np.abs(u - v))) * grid.cell_volume
    prev = 0.0
    for n in (1.0, 1.5, 2.5, 4.0):
        w = dg.WeightPhiN(n, 1)(coords)
        d = float(np.sum(np.abs(u - v) * w)) * grid.cell_volume
        assert d >= prev - 1e-15
        assert d <= unweighted + 1e-15
        prev = d
    np.testing.assert_allclose(prev, unweighted, rtol=1e-9)


# ---------------------------------------------------------------------------
# Sup bound

def test_max_principle_noiseless():
    spec = make_spec(phi="stefan", flux="burgers", eps=0.05,
                     u0=sc.init_family("bump", height=0.5, width=1.0))
    grid = sc.Grid(dim=1, half_width=2.0, cells=64)
    traj = sc.solve_path(spec, grid, 16, empty_path(silent_levy()))
    assert float(np.max(np.abs(traj.fields))) <= 0.5 + 1e-10


def test_max_principle_bound_value():
    levy = atom_levy()
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="bump", sigma_scale=0.5, sigma_cap=1.0)
    spec = make_spec(phi="stefan", flux="burgers", eps=0.05, eta=eta,
                     levy=levy,
                     u0=sc.init_family("bump", height=5.0, width=1.0))
    rep = dg.max_principle_test(spec, [4.9, 5.0 + 1e-7])
    # ||u0||_inf = 5 dominates M + M1 = 1.5
    assert rep.bound == pytest.approx(5.0)
    assert rep.worst == 5.0 + 1e-7 and rep.slack >= 0.0
    # sigma's own cap is M
    small = spec.with_u0(sc.init_family("bump", height=0.2, width=1.0))
    assert dg.max_principle_test(small, [0.1]).bound == pytest.approx(1.5)
    # silent noise: M = M1 = 0 leaves the deterministic bound ||u0||_inf
    silent = make_spec(u0=sc.init_family("bump", height=0.5, width=1.0))
    rep = dg.max_principle_test(silent, [0.1, 0.51])
    assert rep.bound == 0.5
    assert rep.slack == pytest.approx(0.5e-6 - 0.01)


def test_max_principle_requires_bounded_noise():
    # neither amplitude vanishes for large |u|, so no sup bound applies
    for sigma_kind in ("linear", "const"):
        eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                            sigma_kind=sigma_kind, sigma_scale=0.5)
        spec = make_spec(eta=eta, levy=atom_levy())
        assert spec.m1 is None
        with pytest.raises(ValueError):
            dg.max_principle_test(spec, [0.0])


# ---------------------------------------------------------------------------
# Reports

def test_report_rows_and_csv(tmp_path):
    rep = dg.DiagnosticsReport()
    rep.add(dg.CheckResult("a", 1.0, 2.0, 1.0, "first"))
    rep.add(dg.CheckResult("b", 3.0, 2.0, -1.0, "second"))
    rep.add(dg.CheckResult("c", 0.0, 0.0, None, "third"))
    rep.add(dg.CheckResult("d", 0.0, 0.0, math.nan, "fourth"))
    # the status is the sign of the margin; a NaN margin fails
    assert [c.passed for c in rep.checks] == [True, False, None, False]
    out = tmp_path / "report.csv"
    rep.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,value,bound,margin,status,statement"
    assert len(lines) == 5
    assert lines[3] == "c,0,0,nan,inconclusive,third"
    assert lines[4] == "d,0,0,nan,fail,fourth"
