import warnings

import numpy as np
import pytest

from rebalfreq import (
    AssumptionError,
    BlackScholesModel,
    ParameterError,
    TruncatedKimOmbergModel,
    beta_matrix,
    frictionless_rate,
    l21_norm,
    merton_diffusion,
    merton_state,
    merton_weights,
)
from rebalfreq.merton import AssumptionWarning

from conftest import GAMMA, KO_PARAMS, sample_support_states


def hand_inverse_2x2(a, b, c, d):
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def test_bs1d_weight(bs1d):
    st = merton_state(bs1d, np.zeros(0), GAMMA)
    assert st.w_star[0] == pytest.approx(0.625, abs=1e-14)
    assert st.assumption_ok


def test_weight_shrinks_with_gamma(bs1d):
    big = merton_state(bs1d, np.zeros(0), 1e6).w_star[0]
    assert 0 < big < 1e-5


def test_gamma_scaling_identity(bs2d):
    m = bs2d(0.3)
    w1 = merton_state(m, np.zeros(0), GAMMA).w_star
    w2 = merton_state(m, np.zeros(0), 3.0 * GAMMA).w_star
    np.testing.assert_allclose(w2, w1 / 3.0, rtol=0, atol=1e-16)


def test_bs2d_weights_hand_inverse_oracle(bs2d):
    # oracle: explicit 2x2 inverse of Sigma applied to mu
    m = bs2d(0.3)
    sig2 = 0.0256
    Sigma = sig2 * np.array([[1.0, 0.3], [0.3, 1.0]])
    inv = hand_inverse_2x2(Sigma[0, 0], Sigma[0, 1], Sigma[1, 0], Sigma[1, 1])
    expect = inv @ np.array([0.08, 0.08]) / GAMMA
    st = merton_state(m, np.zeros(0), GAMMA)
    np.testing.assert_allclose(st.w_star, expect, atol=1e-14)
    assert st.w_star[0] == pytest.approx(0.480769230769, abs=1e-10)


def test_sigma_w_equals_mu_over_gamma(bs2d, ko2d):
    for model in (bs2d(0.6), ko2d(0.3)):
        states = sample_support_states(model, 10, seed=1)
        st = merton_state(model, states, GAMMA)
        mu = model.mu(states)
        res = np.einsum("nij,nj->ni", st.Sigma, st.w_star) - mu / GAMMA
        assert np.max(np.abs(res)) < 1e-10


# ---------------------------------------------------------------------------
# diffusion coefficient of the target weights
# ---------------------------------------------------------------------------

def test_bs_merton_diffusion_vanishes(bs1d, bs2d):
    assert np.all(merton_diffusion(bs1d, np.zeros(0), GAMMA) == 0.0)
    assert np.all(merton_diffusion(bs2d(0.6), np.zeros(0), GAMMA) == 0.0)


def test_ko1d_merton_diffusion_interior(ko1d):
    st = merton_state(ko1d, np.array([ko1d.long_run_mean]), GAMMA)
    gs2 = GAMMA * 0.1428**2
    aY, eta = 0.0368, -0.9351
    expect = np.array([aY * eta / gs2, aY * np.sqrt(1 - eta**2) / gs2])
    np.testing.assert_allclose(st.sigma_tilde[0], expect, rtol=1e-12)


def test_ko2d_merton_diffusion_interior(ko2d):
    model = ko2d(0.3)
    st = merton_state(model, np.array([model.long_run_mean]), GAMMA)
    aY, eta = 0.0368, -0.9351
    load = np.array([aY * eta, aY * np.sqrt(1 - eta**2)])
    for i in range(2):
        row_sum = st.Sigma_inv[i, 0] + st.Sigma_inv[i, 1]
        np.testing.assert_allclose(st.sigma_tilde[i], row_sum / GAMMA * load, rtol=1e-12)


@pytest.mark.parametrize("which", ["ko1d", "ko2d"])
def test_sigma_tilde_matches_fd_chain_rule(which, request, ko2d):
    model = request.getfixturevalue("ko1d") if which == "ko1d" else ko2d(0.6)
    states = sample_support_states(model, 100, seed=4)
    st = merton_state(model, states, GAMMA)
    h = 1e-6 * np.maximum(1.0, np.abs(states[:, 0]))
    up = merton_state(model, states + h[:, None], GAMMA).w_star
    dn = merton_state(model, states - h[:, None], GAMMA).w_star
    dw_fd = (up - dn) / (2 * h[:, None])
    g = model.g(states)
    st_fd = np.einsum("nm,nd->nmd", dw_fd, g[:, 0, :])
    scale = np.maximum(np.abs(st_fd), 1e-12)
    rel = np.abs(st.sigma_tilde - st_fd) / np.maximum(1.0, np.abs(st_fd))
    assert np.max(rel) < 1e-5


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_bs1d_beta_value(bs1d):
    b = beta_matrix(bs1d, np.zeros(0), GAMMA)
    assert b[0, 0] == pytest.approx(-0.16 * 0.625 * 0.375, abs=1e-15)
    assert l21_norm(b) == pytest.approx(0.0375, abs=1e-15)


def test_beta_zero_at_buy_and_hold_corner():
    m = BlackScholesModel(mu=[0.0], vol=[0.16])
    assert np.all(beta_matrix(m, np.zeros(0), GAMMA) == 0.0)


def test_bs2d_beta_closed_form_oracle(bs2d):
    # oracle: the explicit two-asset entries in terms of (w1, w2, vols, rho)
    rho = 0.3
    m = bs2d(rho)
    st = merton_state(m, np.zeros(0), GAMMA)
    w1, w2 = st.w_star
    a = v = 0.16
    root = np.sqrt(1 - rho**2)
    expect = np.array(
        [
            [(w1 - 1) * w1 * a + w1 * w2 * v * rho, w1 * w2 * v * root],
            [w1 * w2 * a + w2 * (w2 - 1) * v * rho, w2 * (w2 - 1) * v * root],
        ]
    )
    np.testing.assert_allclose(st.beta, expect, atol=1e-14)
    assert l21_norm(st.beta) >= abs(expect[1, 1])


def test_constant_model_beta_identity(bs2d):
    m = bs2d(0.6)
    st = merton_state(m, np.zeros(0), GAMMA)
    sbar = st.w_star @ m.sigma_const
    expect = -st.w_star[:, None] * (m.sigma_const - sbar[None, :])
    np.testing.assert_allclose(st.beta, expect, atol=0)


# ---------------------------------------------------------------------------
# frictionless rate and assumption flags
# ---------------------------------------------------------------------------

def test_frictionless_rate_values(bs1d, bs2d):
    assert frictionless_rate(bs1d, np.zeros(0), GAMMA) == pytest.approx(0.025, abs=1e-15)
    assert frictionless_rate(
        BlackScholesModel(mu=[0.0], vol=[0.16]), np.zeros(0), GAMMA
    ) == pytest.approx(0.0, abs=0)
    r = frictionless_rate(bs2d(0.6), np.zeros(0), GAMMA)
    assert r == pytest.approx(0.03125, abs=1e-15)  # prints as 3.12%
    assert abs(r - 0.0312) < 2e-4


def test_gamma_validation(bs1d):
    with pytest.raises(ParameterError):
        merton_state(bs1d, np.zeros(0), 0.0)


def test_assumption_flagged_not_clipped():
    m = BlackScholesModel(mu=[0.08], vol=[0.16])
    st = merton_state(m, np.zeros(0), 1.0)
    assert st.w_star[0] == pytest.approx(3.125)
    assert not st.assumption_ok
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = merton_weights(m, np.zeros(0), 1.0)
    assert w[0] == pytest.approx(3.125)
    assert any(issubclass(c.category, AssumptionWarning) for c in caught)


def test_beta_l21_finite_on_support(ko1d, ko2d):
    for model in (ko1d, ko2d(0.9)):
        states = sample_support_states(model, 200, seed=8)
        st = merton_state(model, states, GAMMA)
        norms = l21_norm(st.beta)
        assert np.all(np.isfinite(norms))
        assert np.all(norms > 0)


def test_batched_matches_single(ko1d):
    states = sample_support_states(ko1d, 5, seed=12)
    batch = merton_state(ko1d, states, GAMMA)
    for i, y in enumerate(states):
        single = merton_state(ko1d, y, GAMMA)
        np.testing.assert_allclose(single.w_star, batch.w_star[i], atol=0)
        np.testing.assert_allclose(single.beta, batch.beta[i], atol=0)
        assert single.assumption_ok == batch.assumption_ok[i]


def test_state_dependent_g_enters_sigma_tilde_at_each_state(ko1d):
    # constant_sigma promises a constant sigma and g; a model whose g moves with the state
    # declares it False, and its sigma_tilde is (dw*/dy) g(y) at each state
    class MovingG(TruncatedKimOmbergModel):
        constant_sigma = False

        def g(self, y):
            return super().g(y) * np.exp(5.0 * np.reshape(y, (-1, 1, 1)))

    model = MovingG(vol=[0.1428], **KO_PARAMS)
    states = sample_support_states(model, 50, seed=4)
    h = 1e-6
    up, dn = (merton_state(model, states + s, GAMMA).w_star for s in (h, -h))
    expected = ((up - dn) / (2 * h))[:, :, None] * model.g(states)  # (n, m, d), p = 1
    st = merton_state(model, states, GAMMA)
    np.testing.assert_allclose(st.sigma_tilde, expected, rtol=1e-6, atol=1e-12)
    assert np.max(np.abs(st.sigma_tilde - merton_state(ko1d, states, GAMMA).sigma_tilde)) > 0.1


def test_scalar_state_of_a_one_factor_state_model(ko1d):
    scalar = merton_state(ko1d, 0.07, GAMMA)
    vector = merton_state(ko1d, np.array([0.07]), GAMMA)
    for name, value in vars(vector).items():
        np.testing.assert_array_equal(getattr(scalar, name), value)
