import os

import numpy as np
import pytest
from scipy.integrate import quad

import stoclaw as sc
from stoclaw import entropy
from stoclaw.config import ExperimentConfig
from stoclaw.entropy import (BETA_M1, BETA_M2, base_beta, base_d2beta,
                             base_dbeta, identity_check_batch)
from stoclaw.harness import _path_reductions, path_seed

LIN = sc.phi_family("linear")
LIN_HALF = sc.phi_family("linear", 0.5)
STEFAN = sc.phi_family("stefan")
POROUS = sc.phi_family("porous")
BURGERS = sc.flux_family("burgers", dim=1)
ZERO_FLUX = sc.flux_family("zero", dim=1)
PHI_NAMES = ("zero", "linear", "stefan", "porous")
FLUX_NAMES = ("zero", "linear", "burgers")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


# ---------------------------------------------------------------------------
# Base profile and the scaled family

def test_base_profile_constants():
    # closed forms of the polynomial spline
    np.testing.assert_allclose(base_beta(1.0), 11.0 / 16.0, atol=1e-15)
    np.testing.assert_allclose(base_dbeta(1.0), 1.0, atol=1e-14)
    np.testing.assert_allclose(base_d2beta(0.0), BETA_M2, atol=1e-15)
    assert BETA_M1 == pytest.approx(1.0 - 11.0 / 16.0)


def test_base_profile_shape():
    r = np.linspace(-4, 4, 4001)
    assert np.all(base_d2beta(r) >= 0.0)
    np.testing.assert_allclose(base_beta(r), base_beta(-r), atol=0)
    assert np.all(np.abs(base_dbeta(r)) <= 1.0 + 1e-15)
    outside = np.abs(r) > 1.0
    np.testing.assert_allclose(base_dbeta(r[outside]), np.sign(r[outside]))


def test_beta_theta_zero_and_scaling():
    t = sc.make_beta_theta(0.25)
    assert t.beta(0.0) == 0.0
    # at r = 2 theta the profile is already linear: beta = r - theta(1 - B(1))
    r = 0.5
    np.testing.assert_allclose(t.beta(r), r - 0.25 * (1.0 - 11.0 / 16.0),
                               atol=1e-15)
    assert t.d2beta(1.5 * 0.25) == 0.0


@pytest.mark.parametrize("theta", [1.0, 0.1, 0.01])
def test_beta_theta_sandwich(theta):
    t = sc.make_beta_theta(theta)
    r = np.linspace(-3, 3, 10001)
    vals = t.beta(r)
    assert np.all(np.abs(r) - BETA_M1 * theta <= vals + 1e-12)
    assert np.all(vals <= np.abs(r) + 1e-12)
    d2 = np.abs(t.d2beta(r))
    allowed = np.where(np.abs(r) <= theta, BETA_M2 / theta, 0.0)
    assert np.all(d2 <= allowed + 1e-12)


def test_beta_theta_invalid():
    with pytest.raises(ValueError):
        sc.make_beta_theta(0.0)


# ---------------------------------------------------------------------------
# Kirchhoff transform

def test_kirchhoff_linear_identity():
    G = sc.kirchhoff(LIN)
    np.testing.assert_allclose(G(2.0), 2.0, atol=1e-10)
    np.testing.assert_allclose(G(np.array([-1.5, 0.0, 0.3])),
                               [-1.5, 0.0, 0.3], atol=1e-10)


def test_kirchhoff_stefan_closed_form():
    G = sc.kirchhoff(STEFAN)
    u = np.array([-2.0, -1.0, -0.5, 0.0, 1.2, 3.0])
    expect = np.sign(u) * np.maximum(np.abs(u) - 1.0, 0.0)
    np.testing.assert_allclose(G(u), expect, atol=1e-9)


def test_kirchhoff_porous_trapezoid_oracle():
    # cubic clipped family against a 10^6-panel trapezoid oracle
    G = sc.kirchhoff(POROUS)
    for u in (-1.7, -0.4, 0.9, 2.3):
        s = np.linspace(0.0, u, 1_000_001)
        oracle = np.trapezoid(np.sqrt(np.minimum(s * s, 1.0)), s)
        np.testing.assert_allclose(G(u), oracle, atol=1e-8)


def test_kirchhoff_is_nonexpansive():
    rng = np.random.default_rng(5)
    a = rng.uniform(-5, 5, 64)
    b = rng.uniform(-5, 5, 64)
    for phi in (STEFAN, POROUS, LIN_HALF):
        G = sc.kirchhoff(phi)
        lhs = np.abs(G(a) - G(b))
        assert np.all(lhs <= np.sqrt(phi.c_phi) * np.abs(a - b) + 1e-9)


def _closed_kirchhoff(name, s, u):
    # int_0^u sqrt(phi') for each catalog family at scale s
    a = np.abs(u)
    shape = {"zero": 0.0 * a, "linear": a,
             "stefan": np.maximum(a - 1.0, 0.0),
             "porous": 0.5 * np.minimum(a, 1.0) ** 2 + np.maximum(a - 1.0, 0.0)}
    return np.sqrt(s) * np.sign(u) * shape[name]


def _quad_primitive(g, r, kinks):
    # independent reference for int_0^r g, split at every kink inside
    lo, hi = min(0.0, r), max(0.0, r)
    pts = [k for k in kinks if lo < k < hi]
    val = quad(g, lo, hi, points=pts or None, epsabs=1e-13, epsrel=1e-13,
               limit=200)[0]
    return val if r >= 0.0 else -val


def _sample_points(theta, *kinks):
    return np.unique(np.concatenate(
        [np.linspace(-3.0, 3.0, 61), kinks, [-theta, theta]]))


@pytest.mark.parametrize("name", PHI_NAMES)
def test_kirchhoff_exact_on_catalog(name):
    phi = sc.phi_family(name, 0.7)
    r = _sample_points(1.0, *phi.kinks)
    np.testing.assert_allclose(sc.kirchhoff(phi)(r),
                               _closed_kirchhoff(name, 0.7, r),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("phi_name", PHI_NAMES)
@pytest.mark.parametrize("flux_name", FLUX_NAMES)
def test_flux_primitives_exact_on_catalog(phi_name, flux_name):
    # nu and zeta against closed forms for linear (and zero) coefficients,
    # elsewhere against scipy's quad split at every kink
    phi = sc.phi_family(phi_name, 0.7)
    flux = sc.flux_family(flux_name, dim=1, scale=1.3)
    df = flux.components[0].df
    for theta in (1.0, 0.1, 0.01):
        t = sc.make_beta_theta(theta, phi=phi, flux=flux)
        r = _sample_points(theta, *phi.kinks, *flux.kinks)
        if phi_name in ("zero", "linear"):
            nu_ref = phi.dphi(0.0) * t.beta(r)
        else:
            nu_ref = [_quad_primitive(lambda s: t.dbeta(s) * phi.dphi(s), x,
                                      phi.kinks + (-theta, theta)) for x in r]
        if flux_name in ("zero", "linear"):
            zeta_ref = df(0.0) * t.beta(r)
        else:
            zeta_ref = [_quad_primitive(lambda s: t.dbeta(s) * df(s), x,
                                        flux.kinks + (-theta, theta))
                        for x in r]
        np.testing.assert_allclose(t.nu(r), nu_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(t.zeta(r)[:, 0], zeta_ref, rtol=0,
                                   atol=1e-13)


# ---------------------------------------------------------------------------
# Entropy flux differences

def test_phi_beta_reduces_to_beta_for_linear_phi():
    t = sc.make_beta_theta(0.3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.uniform(-4, 4, 2)
        np.testing.assert_allclose(sc.phi_beta(a, b, t, LIN),
                                   t.beta(a - b), atol=1e-9)


def test_phi_beta_diagonal_vanishes():
    t = sc.make_beta_theta(0.2)
    rng = np.random.default_rng(2)
    for a in rng.uniform(-5, 5, 10):
        assert sc.phi_beta(a, a, t, POROUS) == 0.0


def test_kruzkov_flux_values_and_symmetry():
    val = sc.kruzkov_F(2.0, 0.0, BURGERS)
    np.testing.assert_allclose(val, [2.0], atol=1e-14)
    rng = np.random.default_rng(3)
    a = rng.uniform(-4, 4, 32)
    b = rng.uniform(-4, 4, 32)
    np.testing.assert_allclose(sc.kruzkov_F(a, b, BURGERS),
                               sc.kruzkov_F(b, a, BURGERS), atol=0)
    # componentwise Lipschitz bound on the sampled box
    bound = BURGERS.c_f * np.abs(a - b)
    assert np.all(np.abs(sc.kruzkov_F(a, b, BURGERS)[..., 0]) <= bound + 1e-12)


def test_f_beta_matches_phi_beta_machinery():
    t = sc.make_beta_theta(0.3)
    lin_flux = sc.flux_family("linear", dim=1, scale=0.5)
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = rng.uniform(-3, 3, 2)
        got = sc.F_beta(a, b, t, lin_flux)
        np.testing.assert_allclose(got, [0.5 * t.beta(a - b)], atol=1e-9)


# ---------------------------------------------------------------------------
# Interaction form identities

def test_ibeta_diagonal_zero():
    t = sc.make_beta_theta(0.1)
    assert sc.I_beta(0.7, 0.7, t, POROUS) == 0.0


@pytest.mark.parametrize("phi", [STEFAN, POROUS, LIN])
def test_ibeta_symmetry_random_pairs(phi):
    t = sc.make_beta_theta(0.2)
    rng = np.random.default_rng(6)
    for _ in range(6):
        a, b = rng.uniform(-5, 5, 2)
        np.testing.assert_allclose(sc.I_beta(a, b, t, phi),
                                   sc.I_beta(b, a, t, phi), atol=1e-7)


def test_identity2_vanishes_for_constant_dphi():
    t = sc.make_beta_theta(0.15)
    rng = np.random.default_rng(7)
    for _ in range(6):
        a, b = rng.uniform(-4, 4, 2)
        res = sc.ibeta_identities(a, b, t, LIN)
        np.testing.assert_allclose(res["identity2_lhs"], 0.0, atol=1e-7)
        np.testing.assert_allclose(res["identity2_ref"], 0.0, atol=1e-7)


def test_identities_scalar_path():
    t = sc.make_beta_theta(0.1)
    rng = np.random.default_rng(8)
    for phi in (STEFAN, POROUS):
        a, b = rng.uniform(-5, 5, 2)
        res = sc.ibeta_identities(a, b, t, phi)
        assert abs(res["i_ab"] - res["i_ba"]) < 1e-7
        assert abs(res["i_ab"] - res["identity1_ref"]) < 1e-7
        assert abs(res["identity2_lhs"] - res["identity2_ref"]) < 1e-7
        assert res["identity2_ref"] >= -1e-10


def test_batch_checker_agrees_with_scalar():
    rng = np.random.default_rng(9)
    a = rng.uniform(-5, 5, 10)
    b = rng.uniform(-5, 5, 10)
    t = sc.make_beta_theta(0.1)
    for phi in (STEFAN, POROUS, LIN):
        batch = identity_check_batch(a, b, t, phi)
        for i in range(a.size):
            scalar = sc.ibeta_identities(a[i], b[i], t, phi)
            for key in ("i_ab", "i_ba", "identity1_ref", "phi_beta_ab",
                        "phi_beta_ba", "identity2_ref"):
                np.testing.assert_allclose(batch[key][i], scalar[key],
                                           atol=5e-8)


def test_identity2_modulus_bound_stable_under_refinement():
    # 2 I + both flux differences <= C |b - a| omega(theta)^2 with a single
    # fitted C stable as theta shrinks; porous has omega(r) ~ r exactly
    rng = np.random.default_rng(10)
    a = rng.uniform(-4, 4, 60)
    b = rng.uniform(-4, 4, 60)
    fitted = []
    for theta in (0.4, 0.2, 0.1):
        t = sc.make_beta_theta(theta)
        res = identity_check_batch(a, b, t, POROUS)
        omega_sq = theta ** 2  # modulus of sqrt(phi') for the cubic family
        denom = np.abs(b - a) * omega_sq
        mask = denom > 1e-12
        fitted.append(float(np.max(res["identity2_lhs"][mask] / denom[mask])))
    c_star = max(fitted)
    assert c_star < 10.0
    # stability: every theta produces a comparable constant
    assert max(fitted) <= 2.0 * max(min(fitted), 1e-6) + 1.0


def test_phi_beta_close_to_kruzkov_difference():
    # |phi_beta(a, b) - |phi(a) - phi(b)|| <= C theta on random pairs
    rng = np.random.default_rng(11)
    pairs = rng.uniform(-4, 4, (40, 2))
    for theta in (0.2, 0.05):
        t = sc.make_beta_theta(theta)
        worst = 0.0
        for a, b in pairs:
            diff = abs(sc.phi_beta(a, b, t, STEFAN)
                       - abs(STEFAN.phi(a) - STEFAN.phi(b)))
            worst = max(worst, diff)
        assert worst <= 2.5 * theta


def test_quadratic_triple():
    t = sc.make_quadratic(phi=LIN_HALF, flux=BURGERS)
    r = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(t.beta(r), 0.5 * r ** 2, atol=0)
    np.testing.assert_allclose(t.dbeta(r), r, atol=0)
    # nu' = beta' phi' -> nu(r) = 0.25 r^2 for phi = 0.5 u
    np.testing.assert_allclose(t.nu(r), 0.25 * r ** 2, atol=1e-9)


def test_zeta_nu_primitive_anchoring():
    t = sc.make_beta_theta(0.1, phi=POROUS, flux=BURGERS)
    assert abs(t.nu(0.0)) < 1e-12
    np.testing.assert_allclose(t.zeta(0.0), [0.0], atol=1e-12)
    # outside the smoothing window the primitives follow phi and f exactly
    r = 2.0
    np.testing.assert_allclose(t.nu(r) - t.nu(0.5),
                               POROUS.phi(r) - POROUS.phi(0.5), atol=1e-9)
    f = BURGERS.components[0].f
    np.testing.assert_allclose(t.zeta(r)[0] - t.zeta(0.5)[0],
                               f(r) - f(0.5), atol=1e-9)


def test_batch_identities_exact_on_porous():
    # the exact rule leaves only rounding in every identity deviation
    rng = np.random.default_rng(12)
    a = rng.uniform(-5, 5, 200)
    b = rng.uniform(-5, 5, 200)
    for theta in (1.0, 0.1, 0.01):
        res = identity_check_batch(a, b, sc.make_beta_theta(theta), POROUS)
        assert np.max(np.abs(res["i_ab"] - res["i_ba"])) <= 1e-12
        assert np.max(np.abs(res["i_ab"] - res["identity1_ref"])) <= 1e-12
        assert np.max(np.abs(res["identity2_lhs"]
                             - res["identity2_ref"])) <= 1e-12


def test_hot_paths_use_no_adaptive_quadrature(monkeypatch):
    # per-path reductions and the identity check run on the exact rule only;
    # the adaptive routines are the scalar reference kit's
    def forbidden(*args, **kwargs):
        raise AssertionError("adaptive quadrature called from a hot path")

    monkeypatch.setattr(entropy, "batch_simpson", forbidden)
    monkeypatch.setattr(entropy, "adaptive_simpson", forbidden)
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("grid", "cells", 32)
    cfg.set("run", "steps", 8)
    out = _path_reductions(cfg, path_seed(cfg.get("run", "seed"), 0),
                           ("energy", "entropy_residual"))
    assert np.isfinite(out["residual_min"])
    assert np.all(np.isfinite(out["energy"]["grad_g_sq"]))
    rng = np.random.default_rng(13)
    res = identity_check_batch(rng.uniform(-5, 5, 20), rng.uniform(-5, 5, 20),
                               sc.make_beta_theta(0.1), POROUS)
    assert all(np.all(np.isfinite(v)) for v in res.values())
