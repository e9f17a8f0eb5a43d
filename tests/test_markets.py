import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from rebalfreq import (
    BlackScholesModel,
    DegenerateCovarianceError,
    DomainError,
    InputError,
    ParameterError,
    TruncatedKimOmbergModel,
    evaluate_coefficients,
    finite_difference_jacobians,
    jacobians,
    merton_state,
    model_from_config,
    rate_parts,
    smooth_cutoff,
)

from conftest import GAMMA, KO_PARAMS, sample_support_states


# ---------------------------------------------------------------------------
# smooth cutoff
# ---------------------------------------------------------------------------

YMIN, YMAX, XI = -0.1, 0.3, 0.02


def test_cutoff_identity_region():
    v, s = smooth_cutoff(0.1, YMIN, YMAX, XI)
    assert v == 0.1 and s == 1.0


def test_cutoff_plateaus():
    v_hi, s_hi = smooth_cutoff(YMAX + 1.0, YMIN, YMAX, XI)
    assert s_hi == 0.0
    assert v_hi == pytest.approx(YMAX - XI / 2, abs=1e-15)
    v_lo, s_lo = smooth_cutoff(YMIN - 5.0, YMIN, YMAX, XI)
    assert s_lo == 0.0
    assert v_lo == pytest.approx(YMIN + XI / 2, abs=1e-15)


def test_cutoff_band_value_matches_quadrature_oracle():
    # independent oracle: integrate the declared derivative from the band
    # edge, where the value must equal the identity
    y = YMAX - XI / 2
    v, s = smooth_cutoff(y, YMIN, YMAX, XI)
    assert 0.0 < s < 1.0
    val_oracle, err = quad(lambda u: smooth_cutoff(u, YMIN, YMAX, XI)[1], YMAX - XI, y)
    assert v == pytest.approx((YMAX - XI) + val_oracle, abs=1e-12)


def test_cutoff_c2_by_finite_differences():
    h = 1e-6
    ys = np.linspace(YMIN - 0.01, YMAX + 0.01, 601)
    v_p, _ = smooth_cutoff(ys + h, YMIN, YMAX, XI)
    v_m, _ = smooth_cutoff(ys - h, YMIN, YMAX, XI)
    v0, s0 = smooth_cutoff(ys, YMIN, YMAX, XI)
    fd1 = (v_p - v_m) / (2 * h)
    assert np.max(np.abs(fd1 - s0)) < 1e-6
    fd2 = (v_p - 2 * v0 + v_m) / h**2
    # second derivative stays bounded by the band curvature scale ~ 1/xi
    assert np.max(np.abs(fd2)) < 4.0 / XI


def test_cutoff_derivative_range_and_monotonicity():
    ys = np.linspace(YMIN - 0.1, YMAX + 0.1, 2001)
    v, s = smooth_cutoff(ys, YMIN, YMAX, XI)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(np.diff(v) >= -1e-15)


def test_cutoff_parameter_errors():
    with pytest.raises(ParameterError):
        smooth_cutoff(0.0, YMIN, YMAX, 0.0)
    with pytest.raises(ParameterError):
        smooth_cutoff(0.0, 0.0, 0.03, 0.02)  # bands overlap


def test_cutoff_oddness_about_center(ko1d):
    ybar = ko1d.long_run_mean
    u = np.linspace(0.0, 0.4, 500)
    lo, hi, xi = ko1d.cutoff_low[0], ko1d.cutoff_high[0], ko1d.cutoff_width[0]
    up, _ = smooth_cutoff(ybar + u, lo, hi, xi)
    dn, _ = smooth_cutoff(ybar - u, lo, hi, xi)
    assert np.max(np.abs(up + dn - 2 * ybar)) < 1e-12


def test_ko_mu_monotone(ko1d):
    ys = np.linspace(*ko1d.support[0], 1500)
    mu = ko1d.mu(ys[:, None])[:, 0]
    assert np.all(np.diff(mu) >= -1e-15)


# ---------------------------------------------------------------------------
# Black-Scholes construction and coefficients
# ---------------------------------------------------------------------------

def test_bs1d_sigma_and_inverse(bs1d):
    c = evaluate_coefficients(bs1d, np.zeros(0))
    assert c.Sigma[0, 0] == pytest.approx(0.0256, abs=1e-15)
    assert c.Sigma_inv[0, 0] == pytest.approx(39.0625, abs=1e-10)


def test_bs2d_sigma_matches_correlation_display(bs2d):
    m = bs2d(0.3)
    c = evaluate_coefficients(m, np.zeros(0))
    expect = 0.0256 * np.array([[1.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(c.Sigma, expect, atol=1e-15)
    # lower-triangular factorisation convention
    assert m.sigma_const[0, 1] == 0.0
    assert m.sigma_const[1, 0] == pytest.approx(0.16 * 0.3)
    assert m.sigma_const[1, 1] == pytest.approx(0.16 * np.sqrt(1 - 0.09))


def test_bs_perfect_correlation_rejected():
    with pytest.raises(DegenerateCovarianceError):
        BlackScholesModel(mu=[0.08, 0.08], vol=[0.16, 0.16],
                          correlation=[[1.0, 1.0], [1.0, 1.0]])


def test_correlation_validation():
    with pytest.raises(ParameterError):
        BlackScholesModel(mu=[0.08, 0.08], vol=[0.16, 0.16],
                          correlation=[[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ParameterError):
        BlackScholesModel(mu=[0.08, 0.08], vol=[0.16, 0.16],
                          correlation=[[1.1, 0.3], [0.3, 1.0]])
    with pytest.raises(ParameterError):
        BlackScholesModel(mu=[0.08], vol=[-0.16])


def test_sigma_inverse_residual_identity(bs2d, ko2d):
    for model in (bs2d(0.6), ko2d(0.3)):
        states = sample_support_states(model, 8, seed=3)
        c = evaluate_coefficients(model, states)
        eye = np.eye(model.m)
        res = np.einsum("nij,njk->nik", c.Sigma, c.Sigma_inv) - eye
        assert np.max(np.abs(res)) < 1e-10


def test_domain_error_outside_support(ko1d):
    with pytest.raises(DomainError):
        evaluate_coefficients(ko1d, np.array([ko1d.support[0, 1] + 1.0]))


# ---------------------------------------------------------------------------
# constant-covariance fast path
# ---------------------------------------------------------------------------

class GenericCovarianceKO(TruncatedKimOmbergModel):
    """Kim-Omberg model that claims a state-dependent covariance, so every
    state takes the generic batched Cholesky path."""

    @property
    def constant_sigma(self):
        return False


def ko2d_pair(rho=0.6):
    kw = dict(vol=[0.1428, 0.1428], correlation=[[1.0, rho], [rho, 1.0]], **KO_PARAMS)
    return TruncatedKimOmbergModel(**kw), GenericCovarianceKO(**kw)


def test_constant_covariance_fast_path_bit_identical():
    fast, generic = ko2d_pair()
    states = sample_support_states(fast, 300, seed=5)
    # the fast path inverts one matrix and broadcasts it; the generic one does not
    assert evaluate_coefficients(fast, states).Sigma_inv.strides[0] == 0
    assert evaluate_coefficients(generic, states).Sigma_inv.strides[0] != 0
    for y in (states, states[7]):
        a, b = merton_state(fast, y, GAMMA), merton_state(generic, y, GAMMA)
        for f in dataclasses.fields(a):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
    for got, want in zip(
        rate_parts(fast, GAMMA, states, allow_flagged=True),
        rate_parts(generic, GAMMA, states, allow_flagged=True),
    ):
        np.testing.assert_array_equal(got, want)


def test_constant_covariance_fast_path_keeps_checks():
    for model in ko2d_pair():
        states = sample_support_states(model, 5, seed=2)
        # a state outside the box, or one whose drift is not finite, is
        # rejected wherever it sits in the batch
        beyond = np.array([[model.support[0, 1] + 1.0]])
        for bad in (beyond, np.array([[np.nan]])):
            with pytest.raises(DomainError):
                evaluate_coefficients(model, np.vstack([states, bad]))
        model.sigma_const[1] = 0.0  # second asset without volatility
        with pytest.raises(DegenerateCovarianceError):
            evaluate_coefficients(model, states)
        with pytest.raises(DegenerateCovarianceError):
            merton_state(model, states, GAMMA)


def test_positive_definite_at_sampled_states(bs1d, bs2d, ko1d, ko2d):
    for model in (bs1d, bs2d(0.9), ko1d, ko2d(0.6)):
        states = sample_support_states(model, 100, seed=11)
        c = evaluate_coefficients(model, states)
        assert np.min(np.linalg.eigvalsh(c.Sigma)) > 0


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_bs_jacobians_empty(bs1d):
    dmu, dsig = jacobians(bs1d, np.zeros(0))
    assert dmu.shape == (1, 0)
    assert dsig.shape == (1, 1, 0)
    np.testing.assert_array_equal(bs1d.b(np.zeros((3, 0))), np.zeros((3, 0)))  # no state drift


def test_ko_interior_dmu_is_one(ko1d):
    dmu, dsig = jacobians(ko1d, np.array([ko1d.long_run_mean]))
    assert dmu[0, 0] == 1.0
    assert np.all(dsig == 0.0)


def test_ko_transition_band_dmu_matches_fd(ko1d):
    y = np.array([ko1d.cutoff_high[0] - 0.5 * ko1d.cutoff_width[0]])
    dmu, _ = jacobians(ko1d, y)
    assert 0.0 < dmu[0, 0] < 1.0
    dmu_fd, _ = finite_difference_jacobians(ko1d, y)
    assert abs(dmu[0, 0] - dmu_fd[0, 0]) / max(1.0, abs(dmu_fd[0, 0])) < 1e-6


@pytest.mark.parametrize("which", ["bs1d", "bs2d", "ko1d", "ko2d"])
def test_jacobians_match_finite_differences_everywhere(which, request, bs2d, ko2d):
    model = {
        "bs1d": request.getfixturevalue("bs1d"),
        "bs2d": bs2d(0.3),
        "ko1d": request.getfixturevalue("ko1d"),
        "ko2d": ko2d(0.6),
    }[which]
    states = sample_support_states(model, 100, seed=5)
    dmu_a, dsig_a = jacobians(model, states)
    dmu_f, dsig_f = finite_difference_jacobians(model, states)
    if dmu_a.size:
        err_mu = np.max(np.abs(dmu_a - dmu_f) / np.maximum(1.0, np.abs(dmu_f)))
        err_sig = np.max(np.abs(dsig_a - dsig_f) / np.maximum(1.0, np.abs(dsig_f)))
        assert max(err_mu, err_sig) < 1e-5
    dsig_b, _ = jacobians(model, states[0]), None
    assert np.allclose(dsig_a, np.swapaxes(dsig_a, 1, 2))


def test_fused_coeffs_consistency(ko2d):
    model = ko2d(0.3)
    states = sample_support_states(model, 50, seed=9)
    mu, dmu = model.fused_coeffs(states)
    np.testing.assert_allclose(mu, model.mu(states), atol=0)
    np.testing.assert_allclose(dmu, model.dmu_dy(states), atol=0)


def test_fd_fallback_for_models_without_analytic_derivatives(ko1d):
    class Raw(TruncatedKimOmbergModel):
        has_analytic_jacobians = False

    raw = Raw(vol=[0.1428], **KO_PARAMS)
    states = sample_support_states(raw, 20, seed=2)
    dmu, dsig = jacobians(raw, states)
    dmu_ref, _ = jacobians(ko1d, states)
    assert np.max(np.abs(dmu - dmu_ref)) < 1e-6


# ---------------------------------------------------------------------------
# Kim-Omberg construction and config loading
# ---------------------------------------------------------------------------

def test_ko_cutoff_defaults(ko1d):
    sd = KO_PARAMS["state_vol"] / np.sqrt(2 * KO_PARAMS["mean_reversion"])
    assert ko1d.cutoff_low[0] == pytest.approx(KO_PARAMS["long_run_mean"] - 4 * sd)
    assert ko1d.cutoff_high[0] == pytest.approx(KO_PARAMS["long_run_mean"] + 4 * sd)
    assert ko1d.support[0, 0] == pytest.approx(ko1d.cutoff_low[0] - 10 * sd)


def test_ko_lone_cutoff_level_kept(ko1d):
    # a level given alone stands, and the other takes its default, four SDs from the mean
    low = TruncatedKimOmbergModel(vol=[0.1428], cutoff_low=0.0, **KO_PARAMS)
    assert low.cutoff_low[0] == 0.0 and low.cutoff_high[0] == ko1d.cutoff_high[0]
    high = TruncatedKimOmbergModel(vol=[0.1428], cutoff_high=0.2, **KO_PARAMS)
    assert high.cutoff_high[0] == 0.2 and high.cutoff_low[0] == ko1d.cutoff_low[0]
    for lone in ({"cutoff_low": 0.0}, {"cutoff_high": 0.2}):  # no default without a spread
        with pytest.raises(ParameterError, match="explicit cutoff levels"):
            TruncatedKimOmbergModel(vol=[0.1428], **lone, **{**KO_PARAMS, "state_vol": 0.0})
    # both levels of a deterministic state: the transition width is 5 % of their span
    both = TruncatedKimOmbergModel(vol=[0.1428], cutoff_low=0.0, cutoff_high=0.2,
                                   **{**KO_PARAMS, "state_vol": 0.0})
    assert both.cutoff_width[0] == 0.05 * 0.2


def test_ko_parameter_errors():
    with pytest.raises(ParameterError):
        TruncatedKimOmbergModel(vol=[0.1], cutoff_width=0.0, cutoff_low=0.0,
                                cutoff_high=0.1, **KO_PARAMS)
    with pytest.raises(ParameterError):
        TruncatedKimOmbergModel(vol=[0.1], **{**KO_PARAMS, "state_correlation": 1.0})
    with pytest.raises(ParameterError):
        # deterministic state needs explicit cutoffs
        TruncatedKimOmbergModel(vol=[0.1], **{**KO_PARAMS, "state_vol": 0.0})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind, key, value", [
    ("black_scholes", "mu", [NAN]), ("black_scholes", "vol", [NAN]),
    ("black_scholes", "vol", [INF]), ("kim_omberg", "vol", [INF]),
    ("kim_omberg", "mean_reversion", NAN), ("kim_omberg", "mean_reversion", INF),
    ("kim_omberg", "state_vol", NAN), ("kim_omberg", "long_run_mean", NAN),
    ("kim_omberg", "cutoff_low", NAN), ("kim_omberg", "cutoff_width", INF),
])
def test_nonfinite_model_parameters_rejected(kind, key, value):
    # at construction, naming the parameter, where a later check misnamed the fault (a
    # deterministic state, overlapping cutoff bands) or a run failed on its coefficients
    if kind == "black_scholes":
        params = {"mu": [0.08], "vol": [0.16], key: value}
        build = BlackScholesModel
    else:
        params = {"vol": [0.1428], **KO_PARAMS, key: value}
        if key == "cutoff_low":  # read only beside an explicit cutoff_high
            params["cutoff_high"] = 0.2
        build = TruncatedKimOmbergModel
    shown = value[0] if isinstance(value, list) else value
    for call in (lambda: build(**params), lambda: model_from_config({"kind": kind, **params})):
        with pytest.raises(ParameterError, match=rf"^{key} must be .*finite, got {shown}$"):
            call()


def test_model_from_config_black_scholes():
    m = model_from_config({"kind": "black_scholes", "mu": [0.08], "vol": [0.16]})
    assert isinstance(m, BlackScholesModel)
    with pytest.raises(InputError):
        model_from_config({"kind": "black_scholes", "mu": [0.08]})
    with pytest.raises(InputError):
        model_from_config({"kind": "garch"})


def test_model_from_config_correlation_file(tmp_path):
    corr = np.array([[1.0, 0.4], [0.4, 1.0]])
    path = tmp_path / "corr.csv"
    np.savetxt(path, corr, delimiter=",")
    m = model_from_config(
        {
            "kind": "black_scholes",
            "mu": [0.04, 0.04],
            "vol": [0.2, 0.2],
            "correlation_file": "corr.csv",
        },
        base_dir=str(tmp_path),
    )
    np.testing.assert_allclose(m.correlation, corr)
    with pytest.raises(InputError, match="correlation matrix file"):
        model_from_config(
            {
                "kind": "black_scholes",
                "mu": [0.04, 0.04],
                "vol": [0.2, 0.2],
                "correlation_file": "missing.csv",
            },
            base_dir=str(tmp_path),
        )


def test_state_argument_shapes():
    from rebalfreq.markets import _as_batch

    batch, batched = _as_batch(np.zeros((3, 0)), 0)
    assert batch.shape == (3, 0) and batched
    for y, p, message in [(0.05, 2, "scalar state given but model has p=2"),
                          (np.zeros(3), 1, "state has length 3, expected 1"),
                          (np.zeros((4, 2)), 1, "state has trailing dim 2, expected 1")]:
        with pytest.raises(ParameterError, match=message):
            _as_batch(y, p)


@pytest.mark.parametrize("case", ["correlation shape", "mu and vol", "band overlap", "section"])
def test_model_input_checks(case):
    two = dict(mu=[0.08, 0.08], vol=[0.16, 0.16])
    error, message, call = {
        "correlation shape": (ParameterError, r"correlation matrix must be 2x2, got \(1, 1\)",
                              lambda: BlackScholesModel(**two, correlation=[[1.0]])),
        "mu and vol": (ParameterError, "mu and vol must be 1-D arrays of equal length",
                       lambda: BlackScholesModel(mu=[0.08], vol=[0.16, 0.16])),
        # the second asset's bands overlap, the first's do not
        "band overlap": (ParameterError, "cutoff bands overlap",
                         lambda: TruncatedKimOmbergModel(
                             vol=[0.1428, 0.1428], cutoff_low=[0.0, 0.0],
                             cutoff_high=[0.2, 0.03], cutoff_width=0.02, **KO_PARAMS)),
        "section": (InputError, "model section must be a mapping",
                    lambda: model_from_config([("kind", "black_scholes")])),
    }[case]
    with pytest.raises(error, match=message):
        call()
