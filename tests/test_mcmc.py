"""Mixed-model MCMC: posterior evaluation, sampler behavior, diagnostics."""

import math

import numpy as np
import pytest
from scipy.special import kv
from scipy.stats import chisquare

from corrscan import (MaternParams, PriorSpec, cholesky, distance_matrix, fit_model2, matern_cov,
                      synth_geometry)
from corrscan.mcmc import (
    ChainDivergenceError,
    McmcConfig,
    ModelIIFit,
    RhoGridFactors,
    effective_sample_size,
    posterior_means,
)

from conftest import naive_log_posterior


def _toy_data(seed=0, m=8):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 50, (m, 2))
    dm = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    n = rng.uniform(500, 5000, m)
    y = rng.poisson(n * math.exp(-5.0))
    return y.astype(float), n, dm


def _dense_inverses(dm, grid):
    """R^{-1} at every grid point, inverted from the Matérn matrix itself."""
    return np.linalg.inv([matern_cov(dm, MaternParams(1.0, float(rho))) for rho in grid])


# ---------------------------------------------------------------- posterior identity

def test_ridge_identity():
    # shifting beta by +c and the field by -c changes only the Gaussian
    # quadratic form, by an exactly computable amount
    y, n, dm = _toy_data(seed=3, m=5)
    rng = np.random.default_rng(4)
    z = rng.normal(0, 0.2, 5)
    c = 0.37
    sigma, rho = 0.5, 8.0
    base = naive_log_posterior(-5.0, sigma, rho, z, y, n, dm)
    shifted = naive_log_posterior(-5.0 + c, sigma, rho, z - c, y, n, dm)
    r = matern_cov(dm, MaternParams(1.0, rho))
    sinv = np.linalg.inv(sigma**2 * r)
    expect = 0.5 * (z @ sinv @ z - (z - c) @ sinv @ (z - c))
    assert shifted - base == pytest.approx(expect, abs=1e-9)


# ------------------------------------------------------------- configuration

def test_prior_spec():
    with pytest.raises(ValueError):
        PriorSpec(1)
    p = PriorSpec(5)
    assert p.rho_grid.tolist() == [1, 2, 3, 4, 5]


def test_mcmc_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(n_iter=100, burn_in=100)
    with pytest.raises(ValueError):
        McmcConfig(n_iter=100, burn_in=10, thin=0)


def test_rho_grid_factors_consistency():
    _, _, dm = _toy_data(seed=6, m=5)
    fac = RhoGridFactors(dm, PriorSpec(4))
    for g, rho in enumerate(fac.grid):
        r = matern_cov(dm, MaternParams(1.0, float(rho)))
        L = fac.chol[g].L
        assert np.max(np.abs(L @ L.T - r)) < 1e-12
        assert np.max(np.abs(r @ fac.rinv_one[g] - 1.0)) < 1e-8
        sign, logdet = np.linalg.slogdet(r)
        assert fac.logdet[g] == pytest.approx(logdet, abs=1e-8)


# -------------------------------------------------------- effective sample size

def test_ess_iid_near_n():
    x = np.random.default_rng(0).standard_normal(4000)
    ess = effective_sample_size(x)
    assert 2000 < ess <= 4100


def test_ess_constant_sequence():
    assert effective_sample_size(np.ones(50)) == 50.0


def test_ess_ar1_scaling():
    rng = np.random.default_rng(1)
    phi = 0.9
    n = 20_000
    x = np.empty(n)
    x[0] = 0.0
    eps = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    # theoretical ESS factor (1-phi)/(1+phi) ~ 0.0526
    ess = effective_sample_size(x)
    expect = n * (1 - phi) / (1 + phi)
    assert 0.5 * expect < ess < 2.0 * expect


# ----------------------------------------------------------------- fit_model2

FAST = McmcConfig(n_iter=2000, burn_in=500, thin=3)


def test_fit_requires_enough_regions():
    y, n, dm = _toy_data(seed=7, m=4)
    with pytest.raises(ValueError, match="at least 5"):
        fit_model2(y, n, dm, PriorSpec(10), config=FAST, seed=0)


def test_fit_rejects_all_zero_counts():
    y, n, dm = _toy_data(seed=8, m=6)
    with pytest.raises(ValueError, match="zero"):
        fit_model2(np.zeros(6), n, dm, PriorSpec(10), config=FAST, seed=0)


def test_fit_deterministic():
    y, n, dm = _toy_data(seed=9, m=6)
    a = fit_model2(y, n, dm, PriorSpec(10), config=FAST, seed=1234)
    b = fit_model2(y, n, dm, PriorSpec(10), config=FAST, seed=1234)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.rho, b.rho)


def test_fit_intercept_recovery_model1_data():
    # independent Poisson data: beta posterior should center on log(Y_G/N_G)
    rng = np.random.default_rng(10)
    m = 16
    pts = rng.uniform(0, 100, (m, 2))
    dm = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    n = rng.uniform(5_000, 50_000, m)
    beta_true = -4.0
    y = rng.poisson(n * math.exp(beta_true)).astype(float)
    fit = fit_model2(y, n, dm, PriorSpec(20), config=FAST, seed=11)
    mle = math.log(y.sum() / n.sum())
    beta_sd = fit.beta.std(ddof=1)
    assert abs(fit.beta.mean() - mle) < 3 * beta_sd


def test_fit_draw_count_and_summaries():
    y, n, dm = _toy_data(seed=12, m=6)
    fit = fit_model2(y, n, dm, PriorSpec(8), config=FAST, seed=2)
    assert fit.n_draws == (2000 - 500) // 3
    assert set(fit.acceptance) == {"z", "beta", "sigma", "ridge", "scale"}
    assert all(0.0 <= v <= 1.0 for v in fit.acceptance.values())
    summary = fit.summary()
    assert "rho_boundary_fraction" in summary
    assert summary["beta"]["quantiles"]["0.5"] == pytest.approx(
        float(np.quantile(fit.beta, 0.5)))


def test_fit_rho_stays_on_grid():
    y, n, dm = _toy_data(seed=13, m=6)
    fit = fit_model2(y, n, dm, PriorSpec(7), config=FAST, seed=3)
    assert set(np.unique(fit.rho)) <= set(range(1, 8))


def test_posterior_means_snapping():
    y, n, dm = _toy_data(seed=14, m=6)
    fit = fit_model2(y, n, dm, PriorSpec(7), config=FAST, seed=4)
    b, s, r, r_grid = posterior_means(fit)
    assert b == pytest.approx(fit.beta.mean())
    assert s == pytest.approx(fit.sigma.mean())
    assert r == pytest.approx(fit.rho.mean())
    assert r_grid == round(r) and 1 <= r_grid <= 7


def test_posterior_means_two_draw_average():
    fit = ModelIIFit(
        beta=np.array([-1.0, -3.0]), sigma=np.array([1.0, 2.0]),
        rho=np.array([4.0, 4.0]),
        acceptance={}, ess={}, config=FAST, prior=PriorSpec(10), seed=0,
    )
    b, s, r, r_grid = posterior_means(fit)
    assert (b, s, r, r_grid) == (-2.0, 1.5, 4.0, 4.0)


# ------------------------------------------------------- sampler kernels vs oracles

@pytest.mark.parametrize("m", [6, 32])
def test_quad_form_matches_dense(m):
    _, _, dm = _toy_data(seed=20 + m, m=m)
    fac = RhoGridFactors(dm, PriorSpec(12))
    z = np.random.default_rng(m).normal(0, 0.4, m)
    inv = _dense_inverses(dm, fac.grid)
    quads = [fac.quad_form(g, z) for g in range(len(fac.grid))]
    assert np.allclose(quads, inv @ z @ z, rtol=1e-12, atol=0)
    assert np.allclose(fac.rinv_one, inv.sum(axis=2), rtol=1e-9, atol=0)


@pytest.mark.parametrize("m", [6, 32])
def test_rho_grid_factors_match_a_full_matrix_build(m):
    # oracle: the full correlation matrix from kv, inverted whole
    _, _, dm = _toy_data(seed=40 + m, m=m)
    fac = RhoGridFactors(dm, PriorSpec(70))
    for g, rho in enumerate(fac.grid):
        u = dm / rho
        with np.errstate(invalid="ignore"):
            r = np.where(dm == 0, 1.0, u * kv(1, u))
        for got, want in ((fac.chol[g].L, np.linalg.cholesky(r)),
                          (fac.rinv_one[g], np.linalg.inv(r).sum(axis=1))):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert fac.logdet[g] == pytest.approx(np.linalg.slogdet(r)[1], rel=1e-10, abs=1e-12)


class _RecordingRng(np.random.Generator):
    """A generator that keeps the uniforms and rho steps of each draw block."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.uniforms, self.steps = [], []

    def random(self, size=None, *args, **kwargs):
        u = super().random(size, *args, **kwargs)
        if size is not None:  # the block's uniforms, not a shrink angle
            self.uniforms.append(u)
        return u

    def integers(self, *args, **kwargs):
        steps = super().integers(*args, **kwargs)
        self.steps.append(steps)
        return steps


def _rho_moves(events):
    """Split the logged ``quad_form`` calls into rho moves: a call on a new
    field is the current state, a call on the same field is a proposal."""
    moves, z_prev = [], None
    for g, z in events:
        if z_prev is None or not np.array_equal(z, z_prev):
            moves.append((z, g, []))
        else:
            moves[-1][2].append(g)
        z_prev = z
    return moves


def test_rho_moves_accept_by_the_collapsed_conditional(monkeypatch):
    y, n, dm = _toy_data(seed=9, m=8)
    m = len(y)
    prior = PriorSpec(40)
    fac = RhoGridFactors(dm, prior)
    events = []
    quad_form = RhoGridFactors.quad_form
    monkeypatch.setattr(RhoGridFactors, "quad_form",
                        lambda self, g, z: events.append((g, z.copy())) or quad_form(self, g, z))
    config = McmcConfig(n_iter=400, burn_in=100, thin=1)
    rng = _RecordingRng(3)
    fit = fit_model2(y, n, dm, prior, config=config, seed=rng)
    # iteration k reads row k of the blocks; uniform columns 3 and 4 are the
    # accept tests of its two rho proposals
    uniforms, steps = np.concatenate(rng.uniforms), np.concatenate(rng.steps)
    inv = _dense_inverses(dm, fac.grid)
    moves = _rho_moves(events)
    assert len(moves) == config.n_iter
    states, accepted, rejected = [], 0, 0
    for k, (z, g, proposals) in enumerate(moves):
        if states:
            assert g == states[-1]  # the state each move starts from is where the last one ended
        logp = -0.5 * fac.logdet - 0.5 * (m - 1) * np.log(inv @ z @ z)
        replayed = []
        for step, u in zip(steps[k], uniforms[k, 3:5]):
            p = g + step + (step >= 0)
            if not 0 <= p < len(fac.grid):
                continue
            replayed.append(p)
            assert 1 <= abs(p - g) <= 20
            log_ratio = logp[p] - logp[g]
            assert abs(math.log(u) - log_ratio) > 1e-9  # no decision within rounding
            if math.log(u) < log_ratio:
                g, accepted = p, accepted + 1
            else:
                rejected += 1
        assert replayed == proposals
        states.append(g)
    assert accepted > 50 and rejected > 50
    assert np.array_equal(fit.rho, fac.grid[states[config.burn_in:]])


def test_a_fit_solves_at_most_three_quad_forms_per_iteration(monkeypatch):
    y, n, dm = _toy_data(seed=9, m=8)
    calls = []
    quad_form = RhoGridFactors.quad_form
    monkeypatch.setattr(RhoGridFactors, "quad_form",
                        lambda self, g, z: calls.append(g) or quad_form(self, g, z))
    config = McmcConfig(n_iter=200, burn_in=50, thin=1)
    fit_model2(y, n, dm, PriorSpec(70), config=config, seed=5)
    assert config.n_iter <= len(calls) <= 3 * config.n_iter


def test_elliptical_slice_leaves_prior_invariant_under_flat_likelihood():
    from corrscan.mcmc import elliptical_slice

    _, _, dm = _toy_data(seed=21, m=5)
    sigma = 0.7
    cov = sigma**2 * matern_cov(dm, MaternParams(1.0, 15.0))
    L = cholesky(cov).L
    rng = np.random.default_rng(3)
    z = np.zeros(5)
    draws = np.empty((40_000, 5))
    for k in range(len(draws)):
        z, ll, shrinks = elliptical_slice(z, L @ rng.standard_normal(5), lambda v: 0.0, 0.0,
                                          rng.random(), rng.random(), rng)
        assert shrinks == 0 and ll == 0.0
        draws[k] = z
    assert np.max(np.abs(draws.mean(axis=0))) < 0.05
    assert np.max(np.abs(np.cov(draws, rowvar=False) - cov)) < 0.05 * sigma**2
    # whitened draws are normal, not a scale mixture: no excess kurtosis
    w = np.linalg.solve(L, draws.T)
    assert np.max(np.abs(np.mean(w**4, axis=1) / np.mean(w**2, axis=1) ** 2 - 3.0)) < 0.15


def test_elliptical_slice_keeps_state_when_nothing_clears_the_slice():
    from corrscan.mcmc import _MAX_SHRINKS, elliptical_slice

    z = np.array([0.1, -0.2, 0.3])
    calls = []

    def loglik(v):
        calls.append(v)
        return np.nan if len(calls) % 2 else -np.inf

    rng = np.random.default_rng(0)
    out, ll, shrinks = elliptical_slice(z, np.ones(3), loglik, -1.0, *rng.random(2), rng)
    assert out is z and ll == -1.0 and shrinks == _MAX_SHRINKS and len(calls) == _MAX_SHRINKS


def test_exact_intercept_and_scale_draws_match_their_conditionals():
    from corrscan.mcmc import _draw_block, _gibbs_intercept, _gibbs_sigma

    # the standard gammas come from the fit's own block draw
    m, sum_y = 12, 23.0
    *_, gamma_beta, gamma_sigma = _draw_block(np.random.default_rng(7), 40_000, m, sum_y)
    s_pop = 4_100.0
    beta = np.array([_gibbs_intercept(gd, s_pop) for gd in gamma_beta])
    assert np.mean(np.exp(beta)) == pytest.approx(sum_y / s_pop, rel=0.01)
    # oracle: the mean of beta under exp(sum_y*beta - e^beta*s_pop), flat prior
    grid = np.linspace(-9.0, -4.0, 20_001)
    logp = sum_y * grid - np.exp(grid) * s_pop
    w = np.exp(logp - logp.max())
    assert beta.mean() == pytest.approx(np.sum(grid * w) / np.sum(w), abs=0.005)

    quad = 0.8
    sigma = np.array([_gibbs_sigma(gd, quad) for gd in gamma_sigma])
    assert np.mean(sigma**-2) == pytest.approx((m - 1) / quad, rel=0.02)
    # oracle: the mean of sigma under sigma^-m exp(-quad / (2 sigma^2)), flat prior
    grid = np.linspace(0.05, 3.0, 20_001)
    logp = -m * np.log(grid) - 0.5 * quad / grid**2
    w = np.exp(logp - logp.max())
    assert sigma.mean() == pytest.approx(np.sum(grid * w) / np.sum(w), rel=0.01)


class _CountingRng(np.random.Generator):
    """A generator that logs the name and result dimension of every draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = []

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name.startswith("_") or not callable(attr):
            return attr
        calls = super().__getattribute__("calls")

        def logged(*args, **kwargs):
            out = attr(*args, **kwargs)
            calls.append((name, np.ndim(out)))
            return out
        return logged


def test_a_fit_draws_its_fixed_variates_in_blocks(monkeypatch):
    from corrscan import mcmc

    shrinks = []
    slice_step = mcmc.elliptical_slice

    def counted(*args):
        out = slice_step(*args)
        shrinks.append(out[2])
        return out

    monkeypatch.setattr(mcmc, "elliptical_slice", counted)
    y, n, dm = _toy_data(seed=9, m=8)
    rng = _CountingRng(5)
    fit_model2(y, n, dm, PriorSpec(40), config=McmcConfig(n_iter=1000, burn_in=200, thin=1),
               seed=rng)
    sized = [call for call in rng.calls if call[1] > 0]
    scalar = [call for call in rng.calls if call[1] == 0]
    # six sized calls per block of iterations; the only scalar draws are the
    # shrink angles of the slice steps
    assert len(sized) == 6 * -(-1000 // mcmc._DRAW_BLOCK)
    assert sum(shrinks) > 0 and scalar == [("random", 0)] * sum(shrinks)


def test_fits_of_different_lengths_agree_across_draw_blocks():
    # neither length is a multiple of the draw block, so a refill or index
    # fault at a block edge makes the two chains part
    y, n, dm = _toy_data(seed=9, m=8)
    short, long = (fit_model2(y, n, dm, PriorSpec(40),
                              config=McmcConfig(n_iter=n_iter, burn_in=100, thin=3), seed=8)
                   for n_iter in (700, 1000))
    common = short.n_draws
    assert common == (700 - 100) // 3 and long.n_draws > common
    for name in ("beta", "sigma", "rho"):
        assert np.array_equal(getattr(short, name), getattr(long, name)[:common])


def test_fit_input_errors_are_typed():
    from corrscan.mcmc import TooFewRegionsError, ZeroCountsError

    y, n, dm = _toy_data(seed=7, m=4)
    with pytest.raises(TooFewRegionsError):
        fit_model2(y, n, dm, PriorSpec(10), config=FAST, seed=0)
    y, n, dm = _toy_data(seed=8, m=6)
    with pytest.raises(ZeroCountsError):
        fit_model2(np.zeros(6), n, dm, PriorSpec(10), config=FAST, seed=0)


# ------------------------------------------------------ simulation-based calibration

SBC_BETA, SBC_SIGMA, SBC_FITS, SBC_BINS = (-5.0, -3.0), (0.05, 1.0), 600, 10


@pytest.mark.slow
def test_fit_model2_simulation_based_calibration(capsys):
    """SBC (Talts et al. 2018, arXiv:1804.06788) of the study chain at m = 32.

    The truth comes from a proper stand-in prior: beta and sigma uniform on a
    box, rho from the fit's own grid prior.  The fit's flat priors cut to that
    box are that prior's posterior, so each truth is ranked among the draws
    inside the box.  The rank is randomised within its slot (and over ties, for
    rho), which makes it uniform on [0, 1) when the chain samples the right
    posterior.  About 5 to 40 cases in all keep the posteriors wide enough for
    a wrong conditional draw to show."""
    sr = synth_geometry(32, seed=7, pop_log_mean=3.0, pop_log_sd=0.6)
    dm = distance_matrix(sr)
    n = sr.populations[0]
    prior = PriorSpec(70)
    fac = RhoGridFactors(dm, prior)
    rng = np.random.default_rng(12)
    ranks, failed = [], 0
    while len(ranks) + failed < SBC_FITS:
        beta, sigma = rng.uniform(*SBC_BETA), rng.uniform(*SBC_SIGMA)
        g = int(rng.integers(len(fac.grid)))
        z = sigma * (fac.chol[g].L @ rng.standard_normal(len(n)))
        y = rng.poisson(n * np.exp(beta + z))
        if y.sum() == 0:
            continue  # not fittable; a choice made on the data alone keeps the ranks exact
        try:
            fit = fit_model2(y, n, dm, prior, config=FAST, seed=int(rng.integers(2**63)))
        except (ChainDivergenceError, OverflowError):
            failed += 1
            continue
        inside = ((SBC_BETA[0] <= fit.beta) & (fit.beta <= SBC_BETA[1])
                  & (SBC_SIGMA[0] <= fit.sigma) & (fit.sigma <= SBC_SIGMA[1]))
        row = []
        for draws, truth in ((fit.beta, beta), (fit.sigma, sigma), (fit.rho, fac.grid[g])):
            d = draws[inside]
            row.append((np.sum(d < truth) + rng.random() * (np.sum(d == truth) + 1)) / (len(d) + 1))
        ranks.append(row)
    counts = np.stack([np.bincount((r * SBC_BINS).astype(int), minlength=SBC_BINS)
                       for r in np.transpose(ranks)])
    pvalues = chisquare(counts, axis=1).pvalue
    detail = (f"{len(ranks)} fits, {failed} failed; chi-square p over {SBC_BINS} rank bins: "
              + ", ".join(f"{name} {p:.2g} {c.tolist()}"
                          for name, p, c in zip(("beta", "sigma", "rho"), pvalues, counts)))
    with capsys.disabled():
        print(f"[sbc] {detail}")
    assert failed == 0 and pvalues.min() > 1e-3, detail

