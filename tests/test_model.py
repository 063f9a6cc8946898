import os

import numpy as np
import pytest

import stoclaw as sc
from stoclaw.config import ExperimentConfig
from stoclaw.diagnostics import _modulus_trend
from stoclaw.harness import assumption_rows
from stoclaw.model import DomainTooSmallError, InvalidSpecError, PhiFamily
from stoclaw.noise import LevyIntensity, SizeMeasure

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def silent_levy():
    return LevyIntensity(0.0, SizeMeasure("atoms", atoms=((1.0, 0.0),)))


def atom_levy(mass=2.0, v=1.0):
    return LevyIntensity(mass, SizeMeasure("atoms", atoms=((v, 1.0),)))


def make_spec(phi="linear", flux="zero", eta=None, u0=None, levy=None,
              epsilon=0.1, **kw):
    return sc.ProblemSpec(
        phi=sc.phi_family(phi) if isinstance(phi, str) else phi,
        flux=sc.flux_family(flux) if isinstance(flux, str) else flux,
        eta=eta if eta is not None else sc.eta_family("zero"),
        u0=u0 if u0 is not None else sc.init_family("bump"),
        levy=levy if levy is not None else silent_levy(),
        epsilon=epsilon, horizon=0.5, **kw)


# the box the validator draws x from
UNIT_GRID = sc.Grid(dim=1, half_width=1.0, cells=8)
# the dyadic mesh of the modulus trend
R_MESH = 2.0 ** -np.arange(0, 11, dtype=float)


def validate(spec, grid, samples, seed):
    """The assumption rows by assumption: A1, A2, A3, A5 and the trend."""
    rows = sc.validate_assumptions(spec, grid, samples, seed=seed)
    return {r.name[len("assumption_"):].upper(): r for r in rows}


# ---------------------------------------------------------------------------
# Families

def test_phi_families_basic():
    for name, u, expect in [("linear", 2.0, 2.0),
                            ("stefan", 1.5, 0.5), ("stefan", -0.4, 0.0),
                            ("porous", 0.5, 0.5 ** 3 / 3.0),
                            ("porous", 2.0, 2.0 - 2.0 / 3.0)]:
        fam = sc.phi_family(name)
        np.testing.assert_allclose(fam.phi(np.array(u)), expect, atol=1e-14)


def test_phi_monotone_sampled():
    rng = np.random.default_rng(0)
    a = rng.uniform(-10, 10, 500)
    b = rng.uniform(-10, 10, 500)
    for name in ("linear", "stefan", "porous", "zero"):
        fam = sc.phi_family(name)
        assert np.all((fam.phi(a) - fam.phi(b)) * (a - b) >= -1e-14)


def test_flux_engquist_osher_split_consistency():
    rng = np.random.default_rng(1)
    u = rng.uniform(-3, 3, 200)
    for name in ("linear", "burgers"):
        c = sc.flux_family(name)
        np.testing.assert_allclose(c.fplus(u) + c.fminus(u), c.f(u),
                                   atol=1e-12)
        assert np.all(c.dfplus(u) >= -1e-14)
        assert np.all(c.dfminus(u) <= 1e-14)


def test_unknown_families_raise():
    with pytest.raises(InvalidSpecError):
        sc.phi_family("cubic")
    with pytest.raises(InvalidSpecError):
        sc.flux_family("quartic")
    with pytest.raises(InvalidSpecError):
        sc.eta_family("multiplicative")
    with pytest.raises(InvalidSpecError):
        sc.init_family("wavelet")


def test_grid_invariants():
    g = sc.Grid(dim=1, half_width=2.0, cells=64)
    assert g.h == pytest.approx(0.0625)
    x = g.axis_centers()
    assert x[0] == pytest.approx(-2.0 + g.h / 2)
    assert x[-1] == pytest.approx(2.0 - g.h / 2)
    with pytest.raises(InvalidSpecError):
        sc.Grid(dim=3, half_width=1.0, cells=8)


# ---------------------------------------------------------------------------
# Assumption validation

def test_linear_case_all_pass_with_unit_ratio():
    spec = make_spec()
    rows = validate(spec, UNIT_GRID, 1000, seed=3)
    assert list(rows) == ["A1", "A2", "A3", "A5", "A1_MODULUS_TREND"]
    assert all(r.margin >= 0.0 for r in rows.values())
    assert rows["A1"].value == pytest.approx(1.0, abs=1e-9)


def test_phi_offset_fails_a1():
    bad = PhiFamily("offset", phi=lambda u: np.asarray(u) + 1.0,
                    dphi=lambda u: np.ones_like(np.asarray(u)), c_phi=1.0)
    spec = make_spec(phi=bad)
    row = validate(spec, UNIT_GRID, 100, seed=0)["A1"]
    # phi(0) != 0 reads an infinite ratio with a -inf margin
    assert row.value == np.inf and row.margin == -np.inf
    assert row.passed is False


def test_stefan_modulus_against_sampling_oracle():
    spec = make_spec(phi="stefan")
    assert validate(spec, UNIT_GRID, 500, seed=1)["A1"].margin >= 0.0
    # brute-force oracle: the jump of sqrt(phi') keeps the modulus at 1
    omega, ratio, slack = _modulus_trend(spec.phi, R_MESH)
    np.testing.assert_allclose(omega, 1.0, atol=1e-12)
    expected_ratio = 1.0 / R_MESH ** (2.0 / 3.0)
    np.testing.assert_allclose(ratio, expected_ratio, atol=1e-10)
    assert slack < 0.0


def test_porous_modulus_decreases():
    spec = make_spec(phi="porous")
    # omega(r) = r for the clipped cubic family
    omega, ratio, slack = _modulus_trend(spec.phi, R_MESH)
    np.testing.assert_allclose(omega, R_MESH, rtol=1e-8)
    assert slack >= 0.0
    # the trend row reports that ratio; it binds only for x-dependent eta
    trend = validate(spec, UNIT_GRID, 500, seed=1)["A1_MODULUS_TREND"]
    assert trend.value == ratio[-1]
    assert trend.bound == np.inf and trend.margin == np.inf


def test_validator_deterministic():
    spec = make_spec(phi="stefan", flux="burgers")
    r1 = sc.validate_assumptions(spec, UNIT_GRID, 700, seed=9)
    r2 = sc.validate_assumptions(spec, UNIT_GRID, 700, seed=9)
    for e1, e2 in zip(r1, r2):
        assert e1.value == e2.value


def test_a3_flags_large_lambda_star():
    eta = sc.eta_family("separable", g_kind="const", g_height=1.0,
                        sigma_kind="linear", sigma_scale=1.5)
    spec = make_spec(eta=eta, levy=atom_levy())
    assert validate(spec, UNIT_GRID, 500, seed=2)["A3"].margin < 0.0


def test_a3_a5_pass_for_compact_noise():
    eta = sc.eta_family("separable", g_kind="bump", g_height=0.8, g_width=1.5,
                        sigma_kind="compact", sigma_scale=0.9, sigma_cap=1.0)
    spec = make_spec(eta=eta, levy=atom_levy())
    rows = validate(spec, sc.Grid(dim=1, half_width=2.0, cells=32), 2000,
                    seed=4)
    assert rows["A3"].margin >= 0.0
    assert rows["A5"].margin >= 0.0
    assert spec.lambda_star < 1.0
    # eta depends on x, so the modulus trend binds, with its own bound
    assert rows["A1_MODULUS_TREND"].bound < np.inf


def test_a5_envelope_reads_the_size_of_g():
    # stochastic-default with g = -1: the envelope |g| (1 + |u|) |h| is the
    # one of g = +1, so the A5 row is the same, and it passes
    rows = {}
    for height in (1.0, -1.0):
        cfg = ExperimentConfig.from_file(
            os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
        cfg.set("noise", "g_height", height)
        (rows[height],) = [r for r in assumption_rows(
            cfg, cfg.build_spec(), cfg.build_grid())
            if r.name == "assumption_a5"]
    assert rows[-1.0] == rows[1.0]
    assert rows[-1.0].passed is True and rows[-1.0].value <= 1.0


def test_nonfinite_coefficient_identified():
    bad = PhiFamily(
        "singular",
        phi=lambda u: np.where(np.abs(u) > 5, np.inf, np.asarray(u, float)),
        dphi=lambda u: np.ones_like(np.asarray(u, float)), c_phi=1.0)
    spec = make_spec(phi=bad)
    with pytest.raises(InvalidSpecError, match="phi"):
        sc.validate_assumptions(spec, UNIT_GRID, 500, seed=5)


# ---------------------------------------------------------------------------
# Initial data

def test_discretize_zero():
    spec = make_spec(u0=sc.init_family("zero"))
    grid = sc.Grid(dim=1, half_width=4.0, cells=64)
    u = sc.discretize_initial(spec, grid)
    assert np.all(u == 0.0)


def test_discretize_bump_peak_at_center_cell():
    spec = make_spec(u0=sc.init_family("bump", height=1.0, width=1.0))
    grid = sc.Grid(dim=1, half_width=4.0, cells=129)  # odd: center cell at 0
    u = sc.discretize_initial(spec, grid)
    assert u.max() == pytest.approx(1.0)
    assert int(np.argmax(u)) == 64


def test_discretize_domain_too_small():
    spec = make_spec(u0=sc.init_family("bump", height=1.0, width=1.0))
    grid = sc.Grid(dim=1, half_width=0.5, cells=16)
    with pytest.raises(DomainTooSmallError):
        sc.discretize_initial(spec, grid)


def test_l2_norm_first_order_in_h():
    # Lipschitz bump: discrete L2 converges to the exact norm at O(h)
    spec = make_spec(u0=sc.init_family("bump", height=1.0, width=1.0))
    x = np.linspace(-1, 1, 200001)
    exact_sq = np.trapezoid(np.maximum(1 - x ** 2, 0.0) ** 4, x)
    errs = []
    for m in (32, 64, 128, 256):
        grid = sc.Grid(dim=1, half_width=4.0, cells=m)
        u = sc.discretize_initial(spec, grid)
        disc = np.sum(u ** 2) * grid.h
        errs.append(abs(disc - exact_sq))
    errs = np.array(errs)
    assert np.all(errs[1:] <= 0.6 * errs[:-1] + 1e-12)


def test_2d_initial_data():
    spec = make_spec(u0=sc.init_family("bump", height=1.0, width=1.0))
    grid = sc.Grid(dim=2, half_width=4.0, cells=33)
    u = sc.discretize_initial(spec, grid)
    assert u.shape == (33, 33)
    assert u.max() == pytest.approx(1.0)
