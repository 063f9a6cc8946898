import numpy as np
import pytest
from scipy.integrate import quad

import stoclaw as sc
from stoclaw.diagnostics import bump_test_function
from stoclaw.noise import JumpPath, LevyIntensity, SizeMeasure


def atom_intensity(pos_mass=1.0, atoms=((1.0, 3.0),)):
    return LevyIntensity(pos_mass, SizeMeasure("atoms", atoms=atoms))


def separable_spec(sigma_kind="const", sigma_scale=1.0, g_kind="bump",
                   g_height=1.0, levy=None, flux="zero", h_kind="identity"):
    eta = sc.eta_family("separable", g_kind=g_kind, g_height=g_height,
                        g_width=1.0, sigma_kind=sigma_kind,
                        sigma_scale=sigma_scale, h_kind=h_kind)
    return sc.ProblemSpec(
        phi=sc.phi_family("linear", 0.5), flux=sc.flux_family(flux),
        eta=eta, u0=sc.init_family("bump"),
        levy=levy if levy is not None else atom_intensity(),
        epsilon=0.1, horizon=1.0)


# ---------------------------------------------------------------------------
# Sampling

def test_position_mass_must_be_finite_nonnegative():
    size = SizeMeasure("atoms", atoms=((1.0, 1.0),))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="position mass"):
            LevyIntensity(bad, size)


def test_zero_mass_gives_empty_path():
    levy = LevyIntensity(0.0, SizeMeasure("atoms", atoms=((1.0, 0.0),)))
    path = sc.sample_jump_path(levy, 1.0, 7)
    assert path.count == 0


def test_poisson_count_oracle():
    # atom measure with total mass 3 on T = 1: mean count 3 within the
    # Monte-Carlo 3 sigma band
    levy = atom_intensity()
    n = 100_000
    counts = np.fromiter(
        (sc.sample_jump_path(levy, 1.0, seed).count for seed in range(n)),
        dtype=float, count=n)
    band = 3.0 * np.sqrt(3.0 / n)
    assert abs(counts.mean() - 3.0) <= band
    assert np.all(counts >= 0)


def test_same_seed_bitwise_identical():
    levy = atom_intensity(atoms=((1.0, 2.0), (-0.5, 1.0)))
    p1 = sc.sample_jump_path(levy, 2.0, 1234)
    p2 = sc.sample_jump_path(levy, 2.0, 1234)
    assert np.array_equal(p1.times, p2.times)
    assert np.array_equal(p1.sizes, p2.sizes)


def test_different_seeds_differ():
    levy = atom_intensity()
    p1 = sc.sample_jump_path(levy, 1.0, 0)
    p2 = sc.sample_jump_path(levy, 1.0, 1)
    assert p1.count != p2.count or not np.array_equal(p1.times, p2.times)


def test_times_sorted_and_in_range():
    levy = atom_intensity(pos_mass=5.0)
    path = sc.sample_jump_path(levy, 0.7, 42)
    assert np.all(np.diff(path.times) >= 0)
    assert np.all((path.times >= 0) & (path.times < 0.7))


def test_alpha_stable_truncation():
    size = SizeMeasure("alpha_stable", alpha=0.8, z_min=0.05, v_max=2.0,
                       strength=0.3)
    levy = LevyIntensity(1.0, size)
    path = sc.sample_jump_path(levy, 1.0, 3)
    assert np.all(np.abs(path.sizes) >= 0.05)
    assert np.all(np.abs(path.sizes) <= 2.0)
    # closed-form mass of the truncated window
    a, c, z = 0.8, 0.3, 0.05
    np.testing.assert_allclose(size.total_mass,
                               2 * c * (z ** -a - 2.0 ** -a) / a, rtol=1e-12)
    with pytest.raises(Exception):
        SizeMeasure("alpha_stable", alpha=0.8, z_min=0.05, v_max=np.inf)


def test_size_measure_moments_match_quadrature():
    atoms = ((1.0, 3.0), (-0.5, 1.5), (0.25, 0.5))
    point = SizeMeasure("atoms", atoms=atoms)
    uniform = SizeMeasure("uniform", lo=0.5, hi=1.5, mass=2.0)
    a, c, z, vmax = 0.8, 0.3, 0.05, 2.0
    stable = SizeMeasure("alpha_stable", alpha=a, z_min=z, v_max=vmax,
                         strength=c)
    for j in range(5):
        np.testing.assert_allclose(point.moment(j),
                                   sum(m * v ** j for v, m in atoms),
                                   rtol=1e-14)
        np.testing.assert_allclose(
            uniform.moment(j),
            2.0 * quad(lambda v: v ** j, 0.5, 1.5, epsabs=1e-12)[0],
            rtol=1e-10, atol=1e-10)
        # each side of the power law, with v = e^s to smooth the v = z_min end
        side = c * quad(lambda s: np.exp((j - a) * s), np.log(z),
                        np.log(vmax), epsabs=1e-11)[0]
        np.testing.assert_allclose(stable.moment(j), side + (-1) ** j * side,
                                   rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(stable.moment(0), stable.total_mass,
                               rtol=1e-14)


def test_size_measure_sup_matches_dense_probe():
    # the closed-form sup |h| over the support against a dense probe of
    # each support, for h = v (power 1) and h = 1 (power 0)
    measures = [
        SizeMeasure("atoms", atoms=((1.0, 3.0),)),
        SizeMeasure("atoms", atoms=((1.0, 3.0), (-2.5, 1.5), (0.25, 0.0))),
        SizeMeasure("uniform", lo=0.5, hi=1.5, mass=2.0),
        SizeMeasure("uniform", lo=-3.0, hi=-0.5, mass=1.0),
        SizeMeasure("uniform", lo=0.0, hi=0.75, mass=1.0),
        SizeMeasure("alpha_stable", alpha=0.8, z_min=0.05, v_max=2.0,
                    strength=0.3),
        SizeMeasure("alpha_stable", alpha=1.5, z_min=0.1, v_max=0.6),
    ]
    for size in measures:
        if size.kind == "atoms":
            probe = np.array([v for v, _ in size.atoms])
        elif size.kind == "uniform":
            probe = np.linspace(size.lo, size.hi, 4097)
        else:
            half = np.linspace(size.z_min, size.v_max, 4097)
            probe = np.concatenate([-half, half])
        for p, h in ((1, lambda v: v), (0, np.ones_like)):
            assert size.sup_abs(p) == float(np.max(np.abs(h(probe))))


# ---------------------------------------------------------------------------
# Compensated increments

def test_zero_eta_increment():
    spec = separable_spec()
    spec = sc.ProblemSpec(phi=spec.phi, flux=spec.flux,
                          eta=sc.eta_family("zero"), u0=spec.u0,
                          levy=spec.levy, epsilon=0.1, horizon=1.0)
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    u = np.ones(32)
    inc = sc.compensated_increment(sc.sample_jump_path(spec.levy, 1.0, 0),
                                   spec, grid, u, 0.0, 0.5)
    assert np.all(inc == 0.0)


def test_pure_compensator_without_jumps():
    spec = separable_spec()
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    levy = spec.levy
    empty = JumpPath(np.empty(0), np.empty(0), 1.0, levy)
    u = np.zeros(32)
    dt = 0.25
    inc = sc.compensated_increment(empty, spec, grid, u, 0.0, dt)
    gx = spec.eta.g(grid.coords())
    # eta = g(x) h(z): increment is exactly -dt g(x) int h dm
    expect = -dt * gx * levy.position_mass * 3.0  # atom at v=1, mass 3
    np.testing.assert_allclose(inc, expect, atol=1e-14)


def test_alpha_stable_const_h_compensator_exact():
    # h = 1: the compensator rate is lambda(O) times the total size mass
    size = SizeMeasure("alpha_stable", alpha=0.8, z_min=0.05, v_max=2.0,
                       strength=0.3)
    levy = LevyIntensity(1.5, size)
    spec = separable_spec(g_kind="const", levy=levy, h_kind="const")
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    empty = JumpPath(np.empty(0), np.empty(0), 1.0, levy)
    inc = sc.compensated_increment(empty, spec, grid, np.zeros(16), 0.0, 0.25)
    np.testing.assert_allclose(inc, -0.25 * 1.5 * size.total_mass,
                               rtol=1e-14)
    np.testing.assert_allclose(levy.h_moment(spec.eta.h_power),
                               1.5 * size.total_mass, rtol=1e-14)


def test_single_jump_event_sum_oracle():
    spec = separable_spec()
    grid = sc.Grid(dim=1, half_width=2.0, cells=32)
    levy = spec.levy
    path = JumpPath(np.array([0.1]), np.array([0.7]), 1.0, levy)
    u = np.zeros(32)
    dt = 0.5
    inc = sc.compensated_increment(path, spec, grid, u, 0.0, dt)
    gx = spec.eta.g(grid.coords())
    oracle = gx * (0.7 - dt * levy.position_mass * 3.0)
    np.testing.assert_allclose(inc, oracle, atol=1e-14)


def test_window_selection():
    levy = atom_intensity()
    path = JumpPath(np.array([0.1, 0.4, 0.8]), np.array([1.0, 1.0, 1.0]),
                    1.0, levy)
    assert path.window(0.0, 0.5) == slice(0, 2)
    assert path.window(0.4, 0.8) == slice(1, 2)
    assert path.window(0.8, 1.0) == slice(2, 3)


def test_compensation_mean_zero_monte_carlo():
    # sample mean of the compensated increment t 0 -> T converges to 0
    spec = separable_spec()
    grid = sc.Grid(dim=1, half_width=2.0, cells=8)
    gx = spec.eta.g(grid.coords())
    total = np.zeros(grid.shape)
    n = 10_000
    sq = np.zeros(grid.shape)
    for seed in range(n):
        path = sc.sample_jump_path(spec.levy, 1.0, seed)
        inc = sc.compensated_increment(path, spec, grid, np.zeros(grid.shape),
                                       0.0, 1.0)
        total += inc
        sq += inc * inc
    mean = total / n
    var = sq / n - mean ** 2
    band = 3.0 * np.sqrt(var / n)
    assert np.all(np.abs(mean) <= band + 1e-12)


def test_ito_levy_isometry():
    # Var of the full-horizon compensated sum ~ T g(x)^2 int h^2 dm
    spec = separable_spec()
    grid = sc.Grid(dim=1, half_width=2.0, cells=8)
    gx = spec.eta.g(grid.coords())
    n = 10_000
    samples = np.zeros((n,) + grid.shape)
    for seed in range(n):
        path = sc.sample_jump_path(spec.levy, 1.0, seed)
        samples[seed] = sc.compensated_increment(
            path, spec, grid, np.zeros(grid.shape), 0.0, 1.0)
    var_emp = samples.var(axis=0, ddof=1)
    var_pred = 1.0 * gx ** 2 * 3.0  # T [=1] g^2 * mass * h(1)^2
    centered_sq = (samples - samples.mean(axis=0)) ** 2
    band = 3.0 * centered_sq.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(var_emp - var_pred) <= band + 1e-12)


# ---------------------------------------------------------------------------
# Entropy-inequality stochastic integral

def make_uniform_psi():
    from stoclaw.diagnostics import uniform_test_function
    return uniform_test_function(0.9)


def test_martingale_zero_eta():
    spec = separable_spec()
    spec0 = sc.ProblemSpec(phi=spec.phi, flux=spec.flux,
                           eta=sc.eta_family("zero"), u0=spec.u0,
                           levy=spec.levy, epsilon=0.1, horizon=1.0)
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    path = sc.sample_jump_path(spec0.levy, 1.0, 5)
    traj = sc.solve_path(spec0, grid, 4, path)
    triple = sc.make_quadratic(phi=spec0.phi, flux=spec0.flux)
    assert sc.martingale_term(path, spec0, grid, traj, triple,
                              make_uniform_psi()) == 0.0


def test_martingale_single_jump_closed_form():
    # quadratic entropy, psi = 1 on the support: the jump contribution is
    # sum_cells eta (u + eta / 2)
    levy = atom_intensity(pos_mass=1.0, atoms=((0.7, 1.0),))
    spec = separable_spec(levy=levy)
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    t_jump = 0.26
    path = JumpPath(np.array([t_jump]), np.array([0.7]), 1.0, levy)
    traj = sc.solve_path(spec, grid, 4, path)
    triple = sc.make_quadratic(phi=spec.phi, flux=spec.flux)

    from stoclaw.diagnostics import uniform_test_function
    psi = uniform_test_function(1000.0)  # flat over the horizon
    got = sc.martingale_term(path, spec, grid, traj, triple, psi)

    gx = spec.eta.g(grid.coords())
    u_pre = traj.fields[1]  # t_jump lies in the second window
    amp = gx * 0.7
    jump_oracle = float(np.sum(amp * (u_pre + amp / 2.0)
                               * psi(t_jump, grid.coords()))) \
        * grid.cell_volume
    # linear compensator dt sum amp beta'(u) psibar, beta'(u) = u; single
    # size atom at v = 0.7 with mass 1
    comp = 0.0
    dt = traj.dt
    for n in range(4):
        u = traj.fields[n]
        a_bar = 0.5 * (psi(n * dt, grid.coords())
                       + psi((n + 1) * dt, grid.coords()))
        comp += dt * float(np.sum(amp * u * a_bar)) * grid.cell_volume
    np.testing.assert_allclose(got, jump_oracle - comp, atol=1e-10)


def test_event_on_knot_lands_in_one_step():
    # dt = 1/9 is not a binary fraction: t = 7 dt divides back to just
    # under 7, yet the solver's window [7 dt, 8 dt) holds the event, so the
    # martingale term must read the state of step 7 as well
    levy = atom_intensity(pos_mass=1.0, atoms=((0.7, 1.0),))
    spec = separable_spec(levy=levy)
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    n_steps, k = 9, 7
    dt = spec.horizon / n_steps
    t_knot = k * dt
    assert int(t_knot / dt) == k - 1
    path = JumpPath(np.array([t_knot]), np.array([0.7]), 1.0, levy)
    empty = JumpPath(np.empty(0), np.empty(0), 1.0, levy)
    traj = sc.solve_path(spec, grid, n_steps, path)
    gx = spec.eta.g(grid.coords())
    for n in (k - 1, k):
        compensator = sc.compensated_increment(
            empty, spec, grid, traj.fields[n], n * dt, (n + 1) * dt)
        jump = traj.increments[n] - compensator
        np.testing.assert_allclose(jump, gx * 0.7 if n == k else 0.0,
                                   atol=1e-14)

    triple = sc.make_quadratic(phi=spec.phi, flux=spec.flux)
    psi = make_uniform_psi()
    on_knot = sc.martingale_term(path, spec, grid, traj, triple, psi)
    inside = JumpPath(np.array([np.nextafter(t_knot, 1.0)]), np.array([0.7]),
                      1.0, levy)
    assert int(inside.times[0] / dt) == k
    np.testing.assert_allclose(
        on_knot, sc.martingale_term(inside, spec, grid, traj, triple, psi),
        rtol=1e-12)


def test_martingale_empty_path_sign():
    levy = atom_intensity(pos_mass=1.0, atoms=((1.0, 2.0),))
    spec = separable_spec(levy=levy)
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    empty = JumpPath(np.empty(0), np.empty(0), 1.0, levy)
    traj = sc.solve_path(spec, grid, 4, empty)
    triple = sc.make_quadratic(phi=spec.phi, flux=spec.flux)
    psi = make_uniform_psi()
    val = sc.martingale_term(empty, spec, grid, traj, triple, psi)
    # pure compensator: sign opposite to the (positive) integrand here
    assert val < 0.0


def _two_loop_noise_term(path, spec, grid, traj, triple, psi, nodes,
                         weights):
    # the compensated jump integral and the Ito correction as two separate
    # loops over size nodes: jump sum - dt m(dz)[beta(u + eta) - beta(u)]
    # + dt m(dz)[beta(u + eta) - beta(u) - eta beta'(u)]
    coords = grid.coords()
    gx = spec.eta.g(coords)
    vol = grid.cell_volume
    dt = traj.dt
    lam = path.intensity.position_mass
    jump = comp = ito = 0.0
    for n in range(traj.n_steps):
        u = traj.fields[n]
        amp_u = gx * spec.eta.sigma(u)
        sl = path.window(n * dt, (n + 1) * dt)
        for t_j, v_j in zip(path.times[sl], path.sizes[sl]):
            amp = amp_u * float(spec.eta.h(v_j))
            jump += float(np.sum((triple.beta(u + amp) - triple.beta(u))
                                 * psi(t_j, coords))) * vol
        psi_bar = 0.5 * (psi(n * dt, coords) + psi((n + 1) * dt, coords))
        for v_q, w_q in zip(nodes, weights):
            amp = amp_u * float(spec.eta.h(v_q))
            inc = triple.beta(u + amp) - triple.beta(u)
            comp += dt * lam * w_q * float(np.sum(inc * psi_bar)) * vol
            ito += dt * lam * w_q * float(
                np.sum((inc - amp * triple.dbeta(u)) * psi_bar)) * vol
    return jump - comp + ito


def test_noise_term_matches_two_loop_form():
    s, w = np.polynomial.legendre.leggauss(64)
    cases = [
        (SizeMeasure("atoms", atoms=((0.7, 1.0), (-0.4, 2.0))),
         np.array([0.7, -0.4]), np.array([1.0, 2.0])),
        # GL64 integrates h(v) = v exactly against the uniform density
        (SizeMeasure("uniform", lo=0.2, hi=1.2, mass=3.0),
         0.7 + 0.5 * s, 3.0 * 0.5 * w),
    ]
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    psi = bump_test_function(np.array([0.2]), 1.2, 0.9)
    for size, nodes, weights in cases:
        levy = LevyIntensity(2.0, size)
        spec = separable_spec(sigma_kind="linear", sigma_scale=0.8,
                              levy=levy)
        path = sc.sample_jump_path(levy, 1.0, 11)
        assert path.count > 0
        traj = sc.solve_path(spec, grid, 8, path)
        for theta in (1.0, 0.1, 0.01):
            triple = sc.make_beta_theta(theta, phi=spec.phi, flux=spec.flux)
            got = sc.martingale_term(path, spec, grid, traj, triple, psi)
            ref = _two_loop_noise_term(path, spec, grid, traj, triple, psi,
                                       nodes, weights)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# Coupling and replay

def test_coupling_contract_same_events_across_dt():
    levy = atom_intensity(pos_mass=2.0)
    spec = separable_spec(levy=levy)
    grid = sc.Grid(dim=1, half_width=2.0, cells=16)
    path = sc.sample_jump_path(levy, 1.0, 21)
    t1 = sc.solve_path(spec, grid, 4, path)
    t2 = sc.solve_path(spec, grid, 8, path)
    # both solves consumed the identical event set
    total1 = np.sum(t1.increments, axis=0)
    total2 = np.sum(t2.increments, axis=0)
    # jump parts agree up to the state-dependence of sigma (const here)
    np.testing.assert_allclose(total1, total2, atol=1e-12)

