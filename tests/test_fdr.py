"""Local FDR layer: probit transform, spline density fit, empirical null."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from corrscan import fit_empirical_density, fit_empirical_null, fit_fdr_model, local_fdr, p_to_z
from corrscan.fdr import (
    FdrModel,
    default_bins,
    natural_spline_basis,
    nudge_boundary_p,
    poisson_spline_fit,
)


# ------------------------------------------------------------------- p_to_z

def test_p_to_z_center():
    assert p_to_z(0.5) == 0.0


def test_p_to_z_reference_and_symmetry():
    assert p_to_z(0.025) == pytest.approx(-1.9599639845400545, abs=1e-9)
    assert p_to_z(0.975) == pytest.approx(-p_to_z(0.025), abs=1e-12)


def test_p_to_z_rejects_boundary():
    with pytest.raises(ValueError):
        p_to_z(0.0)
    with pytest.raises(ValueError):
        p_to_z(1.0)


def test_nudge_boundary():
    p = nudge_boundary_p([0.5, 1.0], mc_size=99)
    assert p[0] == 0.5
    assert p[1] == 1.0 - 1.0 / 200.0
    # nudged values are valid probit inputs
    assert np.isfinite(p_to_z(p)).all()


# ------------------------------------------------------------ spline machinery

def test_spline_basis_shape_and_linearity():
    knots = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    x = np.linspace(-6, 6, 400)
    basis = natural_spline_basis(x, knots)
    assert basis.shape == (400, 5)
    # natural condition: second differences vanish beyond the boundary knots
    for col in range(basis.shape[1]):
        left = basis[x < -2.5, col]
        right = basis[x > 2.5, col]
        assert np.max(np.abs(np.diff(left, 2))) < 1e-8
        assert np.max(np.abs(np.diff(right, 2))) < 1e-8


def test_poisson_spline_recovers_smooth_intensity():
    x = np.linspace(-3, 3, 50)
    mu = 400 * norm.pdf(x)
    counts = np.random.default_rng(0).poisson(mu)
    fitted, coef, knots = poisson_spline_fit(x, counts, df=5)
    # relative error of the fitted intensity where the truth is substantial
    core = mu > 20
    assert np.max(np.abs(fitted[core] - mu[core]) / mu[core]) < 0.25


def test_poisson_spline_df_validation():
    with pytest.raises(ValueError):
        poisson_spline_fit(np.linspace(0, 1, 10), np.ones(10), df=2)


# ------------------------------------------------------------- density fitting

def test_density_recovers_standard_normal():
    z = np.random.default_rng(1).standard_normal(10_000)
    dens = fit_empirical_density(z, bins=60, spline_df=5)
    sel = np.abs(dens.grid) <= 2.0
    err = np.abs(dens.f[sel] - norm.pdf(dens.grid[sel]))
    assert err.max() < 0.02
    # normalization
    width = dens.edges[1] - dens.edges[0]
    assert dens.f.sum() * width == pytest.approx(1.0, abs=1e-9)


def test_density_degenerate_input():
    with pytest.raises(ValueError, match="degenerate"):
        fit_empirical_density(np.zeros(100))


def test_density_too_few_values():
    with pytest.raises(ValueError, match="30"):
        fit_empirical_density(np.arange(10.0))


def test_density_warns_below_hundred():
    # the caveat rides on the fitted density, not on a raised warning
    rng = np.random.default_rng(2)
    assert fit_empirical_density(rng.standard_normal(50)).warnings == (
        "fewer than 100 z-values: density fit may be unstable",)
    assert fit_empirical_density(rng.standard_normal(100)).warnings == ()


def test_density_mixture_shoulder():
    rng = np.random.default_rng(3)
    n = 10_000
    flags = rng.random(n) < 0.05
    z = np.where(flags, rng.normal(-3.0, 1.0, n), rng.normal(0.0, 1.0, n))
    dens = fit_empirical_density(z, bins=60, spline_df=7)
    f_at = np.exp(np.interp(-3.0, dens.grid, np.log(dens.f)))
    delta0, sigma0 = fit_empirical_null(dens.grid, dens.f)
    central = norm.pdf(-3.0, loc=delta0, scale=sigma0)
    assert f_at >= 2.0 * central


def test_default_bins_clamped():
    assert default_bins(50) == 20
    assert default_bins(1000) == 60
    assert default_bins(150) == 30


# --------------------------------------------------------------- empirical null

def test_null_exact_standard_normal():
    grid = np.linspace(-4, 4, 161)
    f = norm.pdf(grid)
    delta0, sigma0 = fit_empirical_null(grid, f)
    assert delta0 == pytest.approx(0.0, abs=1e-6)
    assert sigma0 == pytest.approx(1.0, abs=1e-6)


def test_null_shifted_scaled_normal():
    grid = np.linspace(-4, 4, 161)
    f = norm.pdf(grid, loc=-0.07, scale=0.55)
    delta0, sigma0 = fit_empirical_null(grid, f)
    assert delta0 == pytest.approx(-0.07, abs=1e-3)
    assert sigma0 == pytest.approx(0.55, abs=1e-3)


def test_null_boundary_mode_rejected():
    grid = np.linspace(0, 4, 50)
    f = np.exp(-grid)  # mode at the left edge
    with pytest.raises(ValueError, match="boundary"):
        fit_empirical_null(grid, f)


def test_null_nonconcave_rejected():
    grid = np.linspace(-2, 2, 50)
    f = 0.1 + grid**2 / 10.0
    f[25] = f.max() + 0.01  # interior mode but convex flanks
    with pytest.raises(ValueError, match="concave"):
        fit_empirical_null(grid, f)


# ------------------------------------------------------------------ local_fdr

def _model_from_density(grid, f, delta0, sigma0):
    from corrscan.fdr import FittedDensity
    edges = np.linspace(grid[0], grid[-1], len(grid) + 1)
    dens = FittedDensity(grid=grid, f=f, edges=edges, counts=np.zeros(len(grid)))
    return FdrModel(density=dens, delta0=delta0, sigma0=sigma0,
                    fdr=np.empty(0))


def test_fdr_identity_when_f_equals_null():
    grid = np.linspace(-3, 3, 121)
    f = norm.pdf(grid)
    model = _model_from_density(grid, f, 0.0, 1.0)
    val, flag = local_fdr(model, 0.37)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert not flag


def test_fdr_half_when_f_doubles_null():
    grid = np.linspace(-3, 3, 121)
    f = 2.0 * norm.pdf(grid)
    model = _model_from_density(grid, f, 0.0, 1.0)
    val, _ = local_fdr(model, -1.2)
    assert val == pytest.approx(0.5, rel=1e-6)


def test_fdr_is_one_at_and_above_the_null_centre():
    # the upper tail is no evidence of a cluster, however the density compares
    grid = np.linspace(-3, 3, 121)
    model = _model_from_density(grid, 2.0 * norm.pdf(grid), 0.25, 1.0)
    vals, _ = local_fdr(model, np.array([-1.2, 0.2, 0.25, 1.2, 2.9, 4.0]))
    assert vals[0] < 0.6 and vals[1] < 0.6
    assert vals[2:].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert local_fdr(model, 2.58) == (1.0, False)


def test_fdr_extrapolation_flagged_and_capped():
    grid = np.linspace(-3, 3, 121)
    model = _model_from_density(grid, norm.pdf(grid), 0.0, 1.0)
    val, flag = local_fdr(model, -7.5)
    assert flag
    assert 0.0 <= val <= 1.0
    vals, flags = local_fdr(model, np.array([-7.5, 0.0]))
    assert flags.tolist() == [True, False]


def test_fit_fdr_model_end_to_end():
    z = np.random.default_rng(4).standard_normal(10_000)
    model = fit_fdr_model(z)
    assert -0.1 <= model.delta0 <= 0.1
    assert 0.85 <= model.sigma0 <= 1.15
    assert model.fdr.shape == z.shape
    # pure null data: almost nothing should look interesting
    assert np.mean(model.fdr < 0.5) <= 0.05
