"""Gates of `analysis`'s convergence predictions on seeded campaigns.

Every campaign here runs one scenario: the default one with the path
delays fixed at [0, 2, 4] and the interpolator frozen at the impulse, so
each receiver adapts only w (M/L = 18 taps) on rbar = Re^T conj(v), and
every run sees the same channel, codes and powers.  The module fixture
takes the statistics the theory reads from 40 000 symbols of that link:
R_bar, p_bar, w_opt = R_bar^-1 p_bar and J_min = 1 - p_bar^H w_opt
(0.1323).  Fewer symbols would do: at 10 000 the blind prediction
moves by about 0.5 %.

Each test runs campaign seed 1.  A band is set from the spread of the
measured/predicted ratio over campaign seeds 1-10, given beside it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ifir_cdma import analysis, cmv, harness, signal_model
from ifir_cdma.interpolation import filter_maps, impulse, make_decimation

SCENARIO = {"path_delays": [0, 2, 4], "freeze_interpolator": True}


def campaign(**fields):
    return harness.run_campaign(harness.ScenarioConfig(**SCENARIO, seed=1, **fields))


def within(measured, predicted, band):
    assert measured / predicted == pytest.approx(1.0, abs=band)


@pytest.fixture(scope="module")
def link():
    """rbar samples, R_bar, w_opt, J_min and the constraint vector a_w of
    the blind receiver, from 40 000 symbols of the link (seed 999)."""
    cfg = harness.ScenarioConfig(**SCENARIO, symbols=40_000)
    dec = make_decimation(cfg.m, cfg.l)
    d_v, _ = filter_maps(impulse(cfg.n_i), np.zeros(dec.m_red), dec)
    rs, bs = zip(*((r, b) for r, b, _ in harness.iter_symbols(cfg, 999)))
    rbar = np.array(rs) @ d_v.T
    r_bar = rbar.T @ rbar.conj() / len(bs)
    p_bar = rbar.T @ np.array(bs) / len(bs)
    w_opt = np.linalg.solve(r_bar, p_bar)
    code = signal_model.gen_gold_set(cfg.gold_degree, cfg.k)[0]
    gains = signal_model.make_channel(cfg.path_powers, cfg.path_delays, cfg.l_p).gains
    cons = cmv.build_constraints(code, dec, g=gains)
    return SimpleNamespace(rbar=rbar, r_bar=r_bar, w_opt=w_opt,
                           j_min=1.0 - np.vdot(p_bar, w_opt).real,
                           a_w=d_v @ (cons.c @ cons.g))


def test_gradient_learning_curve_and_steady_state(link):
    """`sg_learning_curve` and `excess_mse_trained` against unnormalised `lms`
    from w = 0: the mean MSE of each window of the learning curve, and
    the tail's excess over J_min."""
    mu = 0.1
    s = campaign(algorithm="lms", normalized_steps=False, mu0=mu, runs=16, symbols=1000,
                 n_tr=1000)
    curve = analysis.sg_learning_curve(link.r_bar, mu, link.j_min, -link.w_opt, 1000)
    # seeds 1-10: 0.90-1.07 over the four windows
    for a, b in ((0, 20), (20, 60), (60, 150), (150, 1000)):
        within(np.mean(s.mse[a:b]), link.j_min + np.mean(curve[a:b]), 0.15)
    # seeds 1-10: 0.96-1.05
    within(np.mean(s.mse[500:]) - link.j_min,
           analysis.excess_mse_trained(mu, link.r_bar, link.j_min), 0.15)


def test_blind_gradient_steady_state(link):
    """`excess_mse_blind` against unnormalised `cmv-sg`.  The constraint
    passes the desired symbol with unit gain, so the MSE is the output
    variance less one, and its floor is the constrained minimum variance
    less one (0.1576)."""
    mu = 0.05
    s = campaign(algorithm="cmv-sg", mode="blind", normalized_steps=False, mu0=mu, runs=8,
                 symbols=1500)
    floor = cmv.min_output_variance(link.r_bar, link.a_w) - 1.0
    predicted = analysis.excess_mse_blind(mu, link.a_w, link.rbar)
    # the prediction is a property of the samples, not of their last bits
    nudged = link.rbar + 1e-15 * np.random.default_rng(0).standard_normal(link.rbar.shape)
    assert analysis.excess_mse_blind(mu, link.a_w, nudged) == pytest.approx(predicted, rel=1e-9)
    # seeds 1-10: 0.89-1.01
    within(np.mean(s.mse[-1000:]) - floor, predicted, 0.15)


def test_rls_learning_curve(link):
    """`rls_learning_curve` against `rls` without forgetting: symbol i's
    a-priori error is that of a filter fitted to i samples, the curve's
    time i + 1.  The window [25, 60) starts well past the curve's pole at
    i = M/L and ends while the excess is still a sizeable part of the MSE."""
    s = campaign(algorithm="rls", alpha=1.0, runs=50, symbols=80, n_tr=80)
    m_red = link.r_bar.shape[0]
    predicted = np.mean([analysis.rls_learning_curve(link.j_min, m_red, i + 1)
                         for i in range(25, 60)])
    # seeds 1-10: 0.83-1.06
    within(np.mean(s.mse[25:60]) - link.j_min, predicted, 0.25)
