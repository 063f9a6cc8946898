import ast
import glob
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
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "stoclaw")


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


def _quad(g, lo, hi, points):
    # independent reference for the signed int_lo^hi g: scipy's quad, split
    # at every point inside
    a, b = min(lo, hi), max(lo, hi)
    pts = [p for p in points if a < p < b]
    val = quad(g, a, b, points=pts or None, epsabs=1e-13, epsrel=1e-13,
               limit=200)[0]
    return val if hi >= lo else -val


def _quad_identities(a, b, t, phi):
    # every key of identity_check_batch for one pair, by nested quad with
    # the kinks of phi' and the edges of the smoothing window as points
    w = t.d2_support
    kinks = tuple(phi.kinks)
    edges = kinks + tuple(k + d for k in kinks for d in (-w, w))
    root = lambda s: np.sqrt(max(float(phi.dphi(s)), 0.0))

    def nested(a, b):
        # int_a^b [int_mu^a beta''(mu - s) root(s) ds] root(mu) dmu
        def outer(mu):
            hi = min(max(a, mu - w), mu + w)
            inner = _quad(lambda s: t.d2beta(mu - s) * root(s), mu, hi, kinks)
            return inner * root(mu)
        return _quad(outer, a, b, edges + (a - w, a + w))

    def flux_difference(a, b):
        # int_b^a beta'(s - b) phi'(s) ds
        return _quad(lambda s: t.dbeta(s - b) * phi.dphi(s), b, a,
                     kinks + (b - w, b + w))

    def square(weight):
        # the double integral of beta''(s - mu) weight(mu, s) over [a, b]^2,
        # twice its half s > mu (both weights are symmetric, beta'' is even)
        lo, hi = min(a, b), max(a, b)

        def outer(mu):
            return _quad(lambda s: t.d2beta(s - mu) * weight(mu, s),
                         mu, min(hi, mu + w), kinks)
        return 2.0 * _quad(outer, lo, hi, edges + (hi - w,))

    i_ab, i_ba = nested(a, b), nested(b, a)
    p_ab, p_ba = flux_difference(a, b), flux_difference(b, a)
    return {
        "i_ab": i_ab, "i_ba": i_ba,
        "identity1_ref": -0.5 * square(lambda m, s: root(m) * root(s)),
        "phi_beta_ab": p_ab, "phi_beta_ba": p_ba,
        "identity2_lhs": 2.0 * i_ab + p_ab + p_ba,
        "identity2_ref": 0.5 * square(lambda m, s: (root(m) - root(s)) ** 2),
    }


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
            nu_ref = [_quad(lambda s: t.dbeta(s) * phi.dphi(s), 0.0, x,
                            phi.kinks + (-theta, theta)) for x in r]
        if flux_name in ("zero", "linear"):
            zeta_ref = df(0.0) * t.beta(r)
        else:
            zeta_ref = [_quad(lambda s: t.dbeta(s) * df(s), 0.0, x,
                              flux.kinks + (-theta, theta)) for x in r]
        np.testing.assert_allclose(t.nu(r), nu_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(t.zeta(r)[:, 0], zeta_ref, rtol=0,
                                   atol=1e-13)


# ---------------------------------------------------------------------------
# The batched identity checker

def test_phi_beta_reduces_to_beta_for_linear_phi():
    t = sc.make_beta_theta(0.3)
    a, b = np.random.default_rng(1).uniform(-4, 4, (20, 2)).T
    res = identity_check_batch(a, b, t, LIN)
    np.testing.assert_allclose(res["phi_beta_ab"], t.beta(a - b), atol=1e-12)


def test_phi_beta_diagonal_vanishes():
    t = sc.make_beta_theta(0.2)
    a = np.random.default_rng(2).uniform(-5, 5, 10)
    res = identity_check_batch(a, a, t, POROUS)
    assert np.all(res["phi_beta_ab"] == 0.0)
    assert np.all(res["phi_beta_ba"] == 0.0)


def test_ibeta_diagonal_zero():
    t = sc.make_beta_theta(0.1)
    res = identity_check_batch([0.7], [0.7], t, POROUS)
    assert all(np.all(v == 0.0) for v in res.values())


@pytest.mark.parametrize("phi", [STEFAN, POROUS, LIN])
def test_ibeta_symmetry_random_pairs(phi):
    t = sc.make_beta_theta(0.2)
    a, b = np.random.default_rng(6).uniform(-5, 5, (6, 2)).T
    res = identity_check_batch(a, b, t, phi)
    np.testing.assert_allclose(res["i_ab"], res["i_ba"], rtol=0, atol=1e-12)


def test_identity2_vanishes_for_constant_dphi():
    t = sc.make_beta_theta(0.15)
    a, b = np.random.default_rng(7).uniform(-4, 4, (6, 2)).T
    res = identity_check_batch(a, b, t, LIN)
    np.testing.assert_allclose(res["identity2_lhs"], 0.0, atol=1e-12)
    np.testing.assert_allclose(res["identity2_ref"], 0.0, atol=1e-12)


def test_batch_checker_agrees_with_quad():
    # every key against the nested-quad reference, on both sides of both
    # identities
    rng = np.random.default_rng(9)
    a = rng.uniform(-5, 5, 10)
    b = rng.uniform(-5, 5, 10)
    t = sc.make_beta_theta(0.1)
    for phi in (STEFAN, POROUS, LIN):
        batch = identity_check_batch(a, b, t, phi)
        for i in range(a.size):
            ref = _quad_identities(a[i], b[i], t, phi)
            for key in ref:
                np.testing.assert_allclose(batch[key][i], ref[key], rtol=0,
                                           atol=1e-12)


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
    a, b = np.random.default_rng(11).uniform(-4, 4, (40, 2)).T
    for theta in (0.2, 0.05):
        res = identity_check_batch(a, b, sc.make_beta_theta(theta), STEFAN)
        diff = res["phi_beta_ab"] - np.abs(STEFAN.phi(a) - STEFAN.phi(b))
        assert np.max(np.abs(diff)) <= 2.5 * theta


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
        assert np.min(res["identity2_ref"]) >= 0.0


def test_hot_paths_use_no_adaptive_quadrature(monkeypatch):
    # per-path reductions and the identity check run on the exact rule only;
    # batch_simpson stays in the package solely as perfbench's binding
    def forbidden(*args, **kwargs):
        raise AssertionError("batch_simpson called from a hot path")

    monkeypatch.setattr(entropy, "batch_simpson", forbidden)
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
    # no module defines or imports an adaptive routine, and quadrature is
    # imported by entropy alone, for batch_simpson alone
    defined, quadrature_imports = {}, []
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(module, set()).add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                source = getattr(node, "module", None) or ""
                for name in names:
                    dotted = "%s.%s" % (source, name)
                    assert "adaptive" not in name, (module, dotted)
                    assert "scipy.integrate" not in dotted, (module, dotted)
                if source.endswith("quadrature"):
                    quadrature_imports.append((module, names))
    assert not any("adaptive" in name for names in defined.values()
                   for name in names)
    assert defined["quadrature"] == {"inward_offset", "_composite_simpson",
                                     "batch_simpson"}
    assert quadrature_imports == [("entropy", ["batch_simpson"])]
