import concurrent.futures
import dataclasses
import os
import pickle
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalfreq import (
    AssumptionError,
    BlackScholesModel,
    ConvergenceError,
    DomainError,
    MarketModel,
    ParameterError,
    SimulationConfig,
    TruncatedKimOmbergModel,
    buy_and_hold,
    estimate_objective,
    frictionless_benchmark,
    merton_state,
    move_based,
    move_based_halfwidth_1d,
    optimal_rule,
    pasted_halfwidths,
    pasted_move_based,
    rebalance_solve,
    run_strategies,
    run_strategy,
    simulate_market_path,
    simulate_state_grid,
    time_based,
)
from rebalfreq import simulate
from rebalfreq.frequency import DiscretizationRule, _rate_parts, rate_parts
from rebalfreq.markets import evaluate_coefficients, jacobians
from rebalfreq.merton import _constant_block, _geometry, _last
from rebalfreq.simulate import (
    StrategyOutcome,
    _BlockNormals,
    _halfwidths,
    _log_returns,
    _quad_form,
    _rebalance_batch,
    _reflect,
)

from conftest import EPS, GAMMA, KO_PARAMS


def small_config(**kw):
    base = dict(
        horizon=20.0, dt=1.0 / 250.0, n_paths=256, epsilon=EPS, gamma=GAMMA, seed=11
    )
    base.update(kw)
    return SimulationConfig(**base)


# ---------------------------------------------------------------------------
# trade-size fixed point
# ---------------------------------------------------------------------------

def test_rebalance_zero_cost():
    d = np.array([0.1, -0.05])
    dl, cost = rebalance_solve(d, np.array([0.3, 0.4]), 0.0)
    np.testing.assert_array_equal(dl, d)
    assert cost == 0.0


def test_rebalance_1d_closed_form():
    # sign(d) = + so s = |d| / (1 + eps w*)
    dl, cost = rebalance_solve(np.array([0.1]), np.array([0.625]), 0.01)
    s_expect = 0.1 / (1.0 + 0.01 * 0.625)
    assert dl[0] == pytest.approx(s_expect, abs=1e-12)
    assert cost == pytest.approx(0.01 * s_expect, abs=1e-14)


def grid_scan_oracle(d, u, eps, lo=0.0, hi=2.0, tol=1e-8):
    """Brute-force root of s - sum|d_i - eps u_i s| by bisection on a bracket."""

    def f(s):
        return s - np.sum(np.abs(d - eps * u * s))

    assert f(lo) <= 0 <= f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_rebalance_2d_grid_scan_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        u = rng.uniform(0.05, 0.45, size=2)
        w_pre = u + rng.uniform(-0.2, 0.2, size=2)
        d = u - w_pre
        dl, cost = rebalance_solve(d, u, 0.01)
        s = cost / 0.01
        s_oracle = grid_scan_oracle(d, u, 0.01)
        assert abs(s - s_oracle) < 1e-7
        # implicit equation residual
        res = dl + 0.01 * u * np.sum(np.abs(dl)) - d
        assert np.max(np.abs(res)) < 1e-12


@given(
    w=st.lists(st.floats(0.01, 0.45), min_size=1, max_size=4),
    gaps=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=4),
    eps=st.floats(0.0005, 0.05),
)
@settings(max_examples=200, deadline=None)
def test_rebalance_fixed_point_property(w, gaps, eps):
    m = min(len(w), len(gaps))
    u = np.array(w[:m])
    d = np.array(gaps[:m])
    dl, cost = rebalance_solve(d, u, eps)
    s = np.sum(np.abs(dl))
    assert cost == pytest.approx(eps * s, abs=1e-14)
    res = dl + eps * u * s - d
    assert np.max(np.abs(res)) < 1e-12
    # post-trade weights hit the target exactly
    w_pre = u - d
    v_new = 1.0 - eps * s
    np.testing.assert_allclose((w_pre + dl) / v_new, u, atol=1e-12)


def test_rebalance_batch_matches_scalar():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.05, 0.45, size=(32, 3))
    w_pre = u + rng.uniform(-0.2, 0.2, size=(32, 3))
    s = _rebalance_batch(w_pre, u, 0.01, np.ones((32, 3), dtype=bool))
    dl = u * (1.0 - 0.01 * s)[:, None] - w_pre
    for i in range(32):
        dl_i, cost_i = rebalance_solve(u[i] - w_pre[i], u[i], 0.01)
        np.testing.assert_allclose(dl[i], dl_i, atol=1e-13)
        assert s[i] == pytest.approx(cost_i / 0.01, abs=1e-13)


def test_rebalance_precondition():
    with pytest.raises(ParameterError):
        rebalance_solve(np.array([0.1, 0.1]), np.array([60.0, 60.0]), 0.01)


def _rebalance_loop(w_pre, u, epsilon, traded, tol=1e-14, max_iter=200):
    """Reference fixed point: masks the untraded assets in every iterate and gathers the
    paid rows always. Returns ``(DeltaL, s)``."""
    epsilon = np.full(len(u), epsilon, dtype=float)
    s = np.zeros(len(u))
    paid = np.flatnonzero(epsilon > 0)
    if paid.size:
        e, up, wp, tp = epsilon[paid], u[paid], w_pre[paid], traded[paid]
        if np.any(e * np.abs(np.where(tp, up, 0.0)).sum(axis=1) >= 1.0):
            raise ParameterError("need eps * sum|targets| < 1 for a well-posed rebalance")
        sp = np.abs(np.where(tp, up - wp, 0.0)).sum(axis=1)
        done = np.zeros(len(sp), dtype=bool)
        for _ in range(max_iter):
            s_new = np.abs(np.where(tp, up * (1.0 - e * sp)[:, None] - wp, 0.0)).sum(axis=1)
            converged = np.abs(s_new - sp) < tol
            sp = np.where(done, sp, s_new)
            done |= converged
            if done.all():
                break
        else:
            raise ConvergenceError("trade-size fixed point did not converge")
        s[paid] = sp
    dl = np.where(traded, u * (1.0 - epsilon * s)[:, None] - w_pre, 0.0)
    return dl, s


def _iterations(w_pre, u, epsilon, traded):
    """The fewest iterations after which ``_rebalance_batch`` converges on these rows."""
    for k in range(1, 50):
        try:
            _rebalance_batch(w_pre, u, epsilon, traded, max_iter=k)
            return k
        except ConvergenceError:
            pass


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rebalance_batch_equals_masked_loop(m):
    rng = np.random.default_rng(m)
    n = 240
    u = rng.uniform(0.02, 0.9 / m, (n, m))
    # gaps from 1e-9 to 0.3, so rows converge after different numbers of iterations
    w_pre = u + rng.uniform(-1.0, 1.0, (n, m)) * 10.0 ** rng.uniform(-9.0, -0.5, (n, 1))
    partial = rng.random((n, m)) < 0.6
    partial[np.arange(n), rng.integers(0, m, n)] = True  # a trade moves at least one asset
    full = np.ones((n, m), dtype=bool)
    rates = rng.choice([0.001, 0.01, 0.05], n)
    mixed = np.where(rng.random(n) < 0.3, 0.0, rates)  # paid rows among zero-cost rows
    for eps in (0.01, rates, mixed, 0.0):
        for traded in (full, partial):
            dl, s = _rebalance_loop(w_pre, u, eps, traded)
            s_new = _rebalance_batch(w_pre, u, eps, traded)
            _same_bits(s_new, s)
            e = np.broadcast_to(eps, (n,))
            _same_bits(np.where(traded, u * (1.0 - e * s_new)[:, None] - w_pre, 0.0), dl)
    for i in range(8):  # one row at a time, as rebalance_solve solves it
        dl_i, cost_i = rebalance_solve(u[i] - w_pre[i], u[i], 0.01)
        dl, s = _rebalance_loop(w_pre[i:i + 1], u[i:i + 1], 0.01, full[i:i + 1])
        _same_bits(dl_i, dl[0])
        assert cost_i == 0.01 * s[0]
    gaps = np.abs(w_pre - u).sum(axis=1)
    few, many = (_iterations(w_pre[[i]], u[[i]], 0.05, full[[i]])
                 for i in (gaps.argmin(), gaps.argmax()))
    assert few < many
    with pytest.raises(ConvergenceError):
        _rebalance_loop(w_pre, u, 0.01, full, max_iter=1)
    with pytest.raises(ConvergenceError):
        _rebalance_batch(w_pre, u, 0.01, full, max_iter=1)
    for solve in (_rebalance_loop, _rebalance_batch):
        with pytest.raises(ParameterError):
            solve(w_pre, u + 60.0, mixed, partial)


# ---------------------------------------------------------------------------
# market paths
# ---------------------------------------------------------------------------

def test_market_path_deterministic(bs1d, ko1d):
    cfg = small_config(n_paths=4)
    for model in (bs1d, ko1d):
        t1, s1, r1 = simulate_market_path(model, cfg, 3)
        t2, s2, r2 = simulate_market_path(model, cfg, 3)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(s1, s2)
        _, _, other = simulate_market_path(model, cfg, 4)
        assert not np.array_equal(r1, other)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("chunk, n_steps", [(3, 11), (512, 600)])
def test_block_normals_equal_fresh_philox_streams(antithetic, chunk, n_steps):
    # every lane continues its own stream across chunks; (5, 12) starts at an odd path
    seed, d = 13, 2
    for lo, hi in ((0, 6), (5, 12)):
        source = _BlockNormals(seed, lo, hi, d, antithetic, chunk)
        tapes, step = [], 0
        while step < n_steps:  # tapes of 5 steps, cut where a drawn chunk ends
            tapes.append(source.tape(n_steps - step, 5))
            step += tapes[-1].shape[1]
        z = np.concatenate(tapes, axis=1).transpose(1, 0, 2)
        for i, k in enumerate(range(lo, hi)):
            key = k // 2 if antithetic else k
            stream = np.random.Generator(np.random.Philox(key=[seed, key]))
            ref = stream.standard_normal((n_steps, d))
            _same_bits(z[:, :, i], -ref if antithetic and k % 2 else ref)


@pytest.mark.parametrize("lo, antithetic", [(0, True), (5, True), (0, False)])
def test_block_normals_hold_one_chunk_of_drawing_lanes(lo, antithetic):
    # the buffer holds one chunk of the lanes that own a stream: no mirror lane, and the
    # spent chunk is gone before the next is drawn; (5, True) starts at an odd path
    B, d, chunk, k, n_steps = 256, 2, 512, 16, 1100  # three drawn chunks
    drawn = len(range(lo + lo % 2, lo + B, 2)) + lo % 2 if antithetic else B
    bound = 1.25 * drawn * chunk * d * 8 + d * k * B * 8  # one chunk of draws and one tape
    _BlockNormals(13, 0, 2, d, True, 1).tape(2, 1)  # numpy.random's lazy imports, untraced
    tracemalloc.start()
    try:
        source, step = _BlockNormals(13, lo, lo + B, d, antithetic, chunk), 0
        while step < n_steps:  # each tape is dropped before the next is cut
            step += source.tape(n_steps - step, k).shape[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("antithetic", [False, True])
def test_block_normals_continue_streams_across_default_chunks(antithetic):
    # each lane's own generator carries its stream over the default chunk's ends, which cut
    # the 7-step tapes at steps 128 and 256; (5, 12) starts at an odd path
    seed, d, n_steps = 13, 2, 300
    for lo, hi in ((0, 6), (5, 12)):
        source = _BlockNormals(seed, lo, hi, d, antithetic)
        tapes, step = [], 0
        while step < n_steps:
            tapes.append(source.tape(n_steps - step, 7))
            step += tapes[-1].shape[1]
        assert {128, 256} <= set(np.cumsum([t.shape[1] for t in tapes]).tolist())
        z = np.concatenate(tapes, axis=1).transpose(1, 0, 2)
        for i, k in enumerate(range(lo, hi)):
            key = k // 2 if antithetic else k
            ref = np.random.Generator(np.random.Philox(key=[seed, key])).standard_normal((n_steps, d))
            _same_bits(z[:, :, i], -ref if antithetic and k % 2 else ref)


@pytest.mark.parametrize("lo, antithetic", [(0, True), (5, True), (0, False)])
def test_block_normals_hold_one_default_chunk_of_drawing_lanes(lo, antithetic):
    # at the default chunk of 128 steps the buffer still holds one chunk of the drawing
    # lanes; each of these lanes keeps its own generator, of at most 2 KiB
    B, d, chunk, k, n_steps, per_lane = 256, 2, 128, 16, 1100, 2048  # nine drawn chunks
    drawn = len(range(lo + lo % 2, lo + B, 2)) + lo % 2 if antithetic else B
    bound = 1.25 * drawn * chunk * d * 8 + d * k * B * 8 + drawn * per_lane
    _BlockNormals(13, 0, 2, d, True, 1).tape(2, 1)  # numpy.random's lazy imports, untraced
    tracemalloc.start()
    try:
        source, step = _BlockNormals(13, lo, lo + B, d, antithetic), 0
        generators = tracemalloc.get_traced_memory()[0]
        while step < n_steps:  # each tape is dropped before the next is cut
            step += source.tape(n_steps - step, k).shape[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert source.chunk == chunk
    assert generators <= drawn * per_lane
    assert peak < bound


@pytest.mark.parametrize("B", [64, 2048])
def test_mirror_negation_allocates_no_copy(B):
    # a block from an odd path holds no whole pairs: its mirrors are negated without numpy's
    # buffers, so a tape call that draws nothing holds the tape alone; the lanes stay the
    # streams' own bits
    seed, d, k, lo = 13, 2, 4, 5
    source = _BlockNormals(seed, lo, lo + B, d, True)
    first = source.tape(100, k)  # draws the chunk
    tracemalloc.start()
    try:
        second = source.tape(100 - k, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= second.nbytes + 2048
    z = np.concatenate([first, second], axis=1)
    for i, path in enumerate(range(lo, lo + B)):
        stream = np.random.Generator(np.random.Philox(key=[seed, path // 2]))
        ref = stream.standard_normal((2 * k, d))
        _same_bits(z[:, :, i].T, -ref if path % 2 else ref)


def test_import_leaves_numpy_random_unloaded():
    # the lanes' generators load numpy.random on first use, not at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, rebalfreq; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_bs_terminal_log_price_moments(bs1d):
    cfg = small_config(n_paths=3000)
    total = np.empty(3000)
    for i in range(3000):
        _, _, logret = simulate_market_path(bs1d, cfg, i)
        total[i] = logret.sum()
    mean_expect = (0.08 - 0.5 * 0.16**2) * 20.0
    var_expect = 0.16**2 * 20.0
    se_mean = np.sqrt(var_expect / 3000)
    assert abs(total.mean() - mean_expect) < 3 * se_mean
    se_var = var_expect * np.sqrt(2.0 / (3000 - 1))
    assert abs(total.var(ddof=1) - var_expect) < 3 * se_var


def test_ko_deterministic_state_matches_ode():
    frozen = TruncatedKimOmbergModel(
        vol=[0.1428],
        cutoff_low=-0.3,
        cutoff_high=0.412,
        cutoff_width=0.02,
        **{**KO_PARAMS, "state_vol": 0.0},
    )
    ybar, lam = KO_PARAMS["long_run_mean"], KO_PARAMS["mean_reversion"]
    y0 = np.array([ybar + 0.15])  # inside the identity region throughout
    cfg = small_config(n_paths=1, y0=y0)
    times, states, _ = simulate_market_path(frozen, cfg, 0)
    exact = ybar + (y0[0] - ybar) * np.exp(-lam * times)
    # Euler error is O(dt); the deviation scale is |y0 - ybar|
    assert np.max(np.abs(states[:, 0] - exact)) < 0.01 * abs(y0[0] - ybar)


def test_state_grid_matches_market_path(ko1d):
    cfg = small_config(n_paths=6)
    _, grid = simulate_state_grid(ko1d, cfg.horizon, cfg.dt, 6, None, cfg.seed)
    for i in (0, 3, 5):
        _, states, _ = simulate_market_path(ko1d, cfg, i)
        np.testing.assert_array_equal(grid[i], states)


# ---------------------------------------------------------------------------
# engine invariants
# ---------------------------------------------------------------------------

def reconcile_wealth(model, config, records, label, w0):
    """Independent wealth recomputation from the recorded trade ledger."""
    n_rec, n_steps = records.growth.shape[0], records.growth.shape[1]
    trades = {}
    for step, path, dl, s in records.trades[label]:
        trades.setdefault((path, step), []).append((dl, s))
    final = np.empty(n_rec)
    for pi in range(n_rec):
        vi = w0 * 1.0
        v0 = 1.0 - vi.sum()
        for step in range(n_steps):
            vi = vi * records.growth[pi, step]
            key = (pi, step + 1)
            if key in trades:
                for dl, s in trades[key]:
                    v_pre = v0 + vi.sum()
                    vi = vi + dl * v_pre
                    v0 = v0 - (dl.sum() + config.epsilon * np.sum(np.abs(dl))) * v_pre
        final[pi] = v0 + vi.sum()
    return final


@pytest.mark.parametrize("which", ["bs", "ko"])
def test_self_financing_reconciliation(which, bs1d, ko1d):
    model = bs1d if which == "bs" else ko1d
    cfg = small_config(n_paths=64, allow_flagged=True)
    strategies = [
        time_based(optimal_rule(model, GAMMA, allow_flagged=True), label="time"),
        move_based(),
    ]
    outcomes, records = run_strategies(model, cfg, strategies, record_paths=64)
    w0 = merton_state(model, np.zeros(0) if model.p == 0 else np.array([model.long_run_mean]), GAMMA).w_star
    for label in ("time", "move"):
        recon = reconcile_wealth(model, cfg, records, label, w0)
        sim = records.wealth[label][:, -1]
        assert np.max(np.abs(recon - sim) / sim) < 1e-10


@pytest.mark.parametrize("which", ["bs2d", "ko2d"])
def test_self_financing_reconciliation_multi_asset(which, bs2d, ko2d):
    model = bs2d(0.6) if which == "bs2d" else ko2d(0.6)
    cfg = small_config(n_paths=64, allow_flagged=True)
    strategies = [
        time_based(optimal_rule(model, GAMMA, allow_flagged=True), label="time"),
        pasted_move_based(),
    ]
    _, records = run_strategies(model, cfg, strategies, record_paths=64)
    y0 = np.zeros(0) if model.p == 0 else np.array([model.long_run_mean])
    w0 = merton_state(model, y0, GAMMA).w_star
    for label in ("time", "pasted"):
        assert records.trades[label]
        recon = reconcile_wealth(model, cfg, records, label, w0)
        sim = records.wealth[label][:, -1]
        assert np.max(np.abs(recon - sim) / sim) < 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("per_path", [True, False])
def test_quad_form_equals_einsum(m, per_path):
    # einsum's own summation order shifts for one or two rows at m = 2, so
    # the comparison runs on three rows and more
    rng = np.random.default_rng(m)
    for n, scale in [(3, 1e-8), (7, 1.0), (129, 1e-3), (2048, 10.0)]:
        a = rng.standard_normal((n, m, m))
        Sigma = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(m)
        if not per_path:
            Sigma = np.broadcast_to(Sigma[:1], Sigma.shape)
        err = scale * rng.standard_normal((3, n, m))
        got = _quad_form(err.transpose(0, 2, 1), Sigma)
        np.testing.assert_array_equal(got, np.einsum("snm,nmk,snk->sn", err, Sigma, err))
        gap = err[1]
        got = _quad_form(gap.T, np.ascontiguousarray(Sigma))
        np.testing.assert_array_equal(got, np.einsum("nm,nmk,nk->n", gap, Sigma, gap))
        # a row's value does not depend on the rows beside it
        one = [_quad_form(gap[j:j + 1].T, np.ascontiguousarray(Sigma[j:j + 1])) for j in range(3)]
        np.testing.assert_array_equal(np.concatenate(one), got[:3])


def _geometry_models():
    """Models with m = 1..4 assets and p = 0 and 1, each with a constant covariance
    and declared per-state (so that Sigma and its Jacobian are evaluated at every state)."""

    class PerStateBS(BlackScholesModel):
        constant_sigma = property(lambda self: False)

    class PerStateKO(TruncatedKimOmbergModel):
        constant_sigma = property(lambda self: False)

    for m in (1, 2, 3, 4):
        corr = 0.4 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        vol = np.linspace(0.12, 0.2, m)
        # from three assets on, some assets share their cutoff bands and some do not
        bands = {} if m < 3 else dict(cutoff_low=-0.1, cutoff_high=0.2,
                                      cutoff_width=[0.02, 0.04, 0.02, 0.03][:m])
        for bs, ko in ((BlackScholesModel, TruncatedKimOmbergModel), (PerStateBS, PerStateKO)):
            yield bs(mu=np.linspace(0.05, 0.09, m), vol=vol, correlation=corr)
            yield ko(vol=vol, correlation=corr, **bands, **KO_PARAMS)


def _einsum_market(model, y, z, const, dt=0.004):
    """The einsum forms of ``_geometry``, ``_log_returns`` and ``_halfwidths``, kept as
    the oracle: ``(w*, sigma_tilde, beta, f_rate, log returns, half-widths)``, paths first."""
    if const is None:
        c = evaluate_coefficients(model, y)
        dmu, dsig = jacobians(model, y)
        mu, sigma, g, Sigma, a = c.mu, c.sigma, c.g, c.Sigma, c.Sigma_inv / GAMMA
    else:
        mu, dmu, _ = model.fused_coeffs(y)
        dsig = None
        sigma, g, Sigma, Sigma_inv = const
        a = np.broadcast_to(Sigma_inv[:1] / GAMMA, Sigma_inv.shape)
    # einsum's loop order follows the layout: read mu and its Jacobian paths first
    mu, dmu = np.ascontiguousarray(mu), np.ascontiguousarray(dmu)
    w = np.einsum("nik,nk->ni", a, mu)
    if dsig is not None:
        dmu = dmu - GAMMA * np.einsum("nklp,nl->nkp", dsig, w)
    dw = np.einsum("nik,nkp->nip", a, dmu)
    sigma_tilde = np.einsum("nip,npd->nid", dw, g)
    sbar = np.einsum("nm,nmd->nd", w, sigma)
    beta = sigma_tilde - w[:, :, None] * (sigma - sbar[:, None, :])
    f_rate = 0.5 * np.einsum("nm,nm->n", mu, w)
    rownorm2 = np.einsum("nmd,nmd->nm", sigma, sigma)
    logret = (mu - 0.5 * rownorm2) * dt + np.einsum("nmd,nd->nm", sigma, z) * np.sqrt(dt)
    diag = np.diagonal(Sigma, axis1=-2, axis2=-1)
    hw = (1.5 * EPS / GAMMA * np.sum(beta * beta, axis=-1) / diag) ** (1.0 / 3.0)
    return w, sigma_tilde, beta, f_rate, logret, hw


def _fixed_order_market(model, y, z, dt=0.004):
    """What ``_einsum_market`` returns, from the engine's functions at the states ``y``."""
    st = _geometry(model, y, GAMMA, _constant_block(model, y))
    logret = _log_returns(_last(st.mu), _last(st.sigma), np.ascontiguousarray(z.T), dt)
    return st.w_star, st.sigma_tilde, st.beta, st.f_rate, logret.T, _halfwidths(st, GAMMA, EPS)


def test_geometry_equals_einsum_reference():
    # einsum's own loop order shifts for one or two rows at m >= 3, so each batch is
    # held to the einsum forms' values in the full batch of 2048 states
    rng = np.random.default_rng(5)
    n = 2048
    for model in _geometry_models():
        y = np.zeros((n, 0)) if model.p == 0 else rng.normal(0.056, 0.1, (n, 1))
        z = rng.standard_normal((n, 3, model.d))[:, 1, :]  # a step of the draw buffer
        ref = _einsum_market(model, y, z, _constant_block(model, y))
        for lo, hi in ((0, 1), (0, 2), (0, 3), (0, 17), (0, n), (5, 6), (n - 1, n)):
            got = _fixed_order_market(model, y[lo:hi], z[lo:hi])
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g, r[lo:hi])
        lean = _geometry(model, y, GAMMA, _constant_block(model, y), with_beta=False)
        assert lean.beta is None
        np.testing.assert_array_equal(lean.w_star, ref[0])
        np.testing.assert_array_equal(lean.f_rate, ref[3])


def _einsum_rate_parts(beta, Sigma):
    """``(N, D)`` of the optimal rule in its einsum form, on a C-contiguous ``beta``."""
    beta = np.ascontiguousarray(beta)
    norm = np.sqrt(np.sum(beta * beta, axis=-1)).sum(axis=-1)
    quad = np.einsum("...md,...mk,...kd->...", beta, Sigma, beta)
    return np.sqrt(2.0 / np.pi) * norm, 0.5 * GAMMA * quad


def test_rate_parts_equal_einsum_reference():
    # beta is now a view of a paths-last array, and einsum's loop order may follow its
    # operands' layout: N, D and A* are held to the einsum form on a contiguous beta (the
    # einsum geometry's value in the full batch) and Sigma as merton_state forms it, for
    # a batch, for one state, and for rows taken from the engine's step geometry
    rng = np.random.default_rng(6)
    n = 64
    for model in _geometry_models():
        y = np.zeros((n, 0)) if model.p == 0 else rng.normal(0.056, 0.1, (n, 1))
        beta = _einsum_market(model, y, np.zeros((n, model.d)), _constant_block(model, y))[2]
        step = _geometry(model, y, GAMMA, _constant_block(model, y))
        rule = optimal_rule(model, GAMMA, allow_flagged=True).A
        for idx in (slice(None), np.arange(3), np.array([40, 7]), np.arange(1, n, 3), 5):
            n_ref, d_ref = _einsum_rate_parts(beta[idx], merton_state(model, y[idx], GAMMA).Sigma)
            a_ref = (n_ref / d_ref) ** (2.0 / 3.0)
            for got in (rate_parts(model, GAMMA, y[idx], True),
                        _rate_parts(step.rows(idx), GAMMA, True)):
                np.testing.assert_array_equal(got[0], n_ref)
                np.testing.assert_array_equal(got[1], d_ref)
            np.testing.assert_array_equal(rule(y[idx]), a_ref)
            np.testing.assert_array_equal(rule.of_state(step.rows(idx)), a_ref)


def test_reflect_at_support_box():
    support = np.array([[0.0, 1.0]])
    inside = np.array([[0.0], [0.2], [1.0]])
    np.testing.assert_array_equal(_reflect(inside, support), inside)
    got = _reflect(np.array([[-0.25], [1.5], [0.5]]), support)
    np.testing.assert_array_equal(got, [[0.25], [0.5], [0.5]])
    with pytest.raises(DomainError):
        _reflect(np.array([[2.5]]), support)


@dataclasses.dataclass(frozen=True)
class _Wrapped:
    """A rule value that is not an ``_AdaptiveProfile``: the engine calls it on states."""

    profile: object

    def __call__(self, y):
        return self.profile(y)


def test_adaptive_waits_from_step_geometry(ko1d, ko2d):
    for model in (ko1d, ko2d(0.6)):
        cfg = small_config(horizon=2.0, n_paths=64)
        rule = optimal_rule(model, GAMMA, allow_flagged=True)
        band = move_based() if model.m == 1 else pasted_move_based()
        runs = []
        for r in (rule, DiscretizationRule("adaptive", _Wrapped(rule.A))):
            strategies = [time_based(r, label="time"), band, buy_and_hold()]
            runs.append(run_strategies(model, cfg, strategies, record_paths=16))
        (a, rec_a), (b, rec_b) = runs
        assert rec_a.trades["time"]
        for label in a:
            for f in ("rel_sum", "rel_sq_sum", "tac", "de", "n_trades", "failed"):
                np.testing.assert_array_equal(getattr(a[label], f), getattr(b[label], f))
            np.testing.assert_array_equal(rec_a.wealth[label], rec_b.wealth[label])
            np.testing.assert_array_equal(rec_a.weights[label], rec_b.weights[label])
            assert len(rec_a.trades[label]) == len(rec_b.trades[label])
            for ta, tb in zip(rec_a.trades[label], rec_b.trades[label]):
                assert ta[:2] == tb[:2] and ta[3] == tb[3]
                np.testing.assert_array_equal(ta[2], tb[2])
    # without allow_flagged the rule raises at a flagged state it trades at, not at
    # the flagged states it passes: from y0 = 0.095 (w* = 0.93) the first wait is
    # about 0.56 years, and most paths leave the (0, 1) box before then
    cfg = small_config(horizon=0.5, n_paths=64, y0=np.array([0.095]))
    strategies = [time_based(optimal_rule(ko1d, GAMMA), label="time"), move_based()]
    run_strategies(ko1d, cfg, strategies)
    _, grid = simulate_state_grid(ko1d, cfg.horizon, cfg.dt, cfg.n_paths, cfg.y0, cfg.seed)
    assert not merton_state(ko1d, grid.reshape(-1, 1), GAMMA).assumption_ok.all()
    with pytest.raises(AssumptionError):
        run_strategies(ko1d, dataclasses.replace(cfg, horizon=2.0), strategies)


def test_post_trade_weights_exact(bs1d):
    cfg = small_config(n_paths=32)
    rule = optimal_rule(bs1d, GAMMA)
    _, records = run_strategies(bs1d, cfg, [time_based(rule, label="time")], record_paths=32)
    w_star = 0.625
    for step, path, dl, s in records.trades["time"]:
        assert abs(records.weights["time"][path, step, 0] - w_star) < 1e-12


def test_post_trade_weights_exact_state_dependent(ko1d):
    # cross-check against an independently reconstructed state path
    cfg = small_config(n_paths=8, allow_flagged=True)
    rule = optimal_rule(ko1d, GAMMA, allow_flagged=True)
    _, records = run_strategies(ko1d, cfg, [time_based(rule, label="time")], record_paths=8)
    paths = {i: simulate_market_path(ko1d, cfg, i)[1] for i in range(8)}
    assert records.trades["time"]
    for step, path, dl, s in records.trades["time"]:
        w_target = merton_state(ko1d, paths[path][step], GAMMA).w_star[0]
        assert abs(records.weights["time"][path, step, 0] - w_target) < 1e-12


def test_wealth_multiplier_matches_cost_fraction(bs1d):
    cfg = small_config(n_paths=16)
    rule = optimal_rule(bs1d, GAMMA)
    _, records = run_strategies(bs1d, cfg, [time_based(rule, label="time")], record_paths=16)
    assert records.trades["time"]
    for step, path, dl, s in records.trades["time"]:
        # wealth after the trade = (pre-trade wealth) * (1 - eps * s)
        w_prev = records.wealth["time"][path, step - 1]
        vi_prev = records.weights["time"][path, step - 1] * w_prev
        v0_prev = w_prev - vi_prev.sum()
        v_pre_trade = v0_prev + (vi_prev * records.growth[path, step - 1]).sum()
        expect = v_pre_trade * (1.0 - cfg.epsilon * s)
        assert records.wealth["time"][path, step] == pytest.approx(expect, rel=1e-12)


def test_weights_stay_in_unit_interval_between_trades(bs1d):
    cfg = small_config(n_paths=64)
    strategies = [
        time_based(optimal_rule(bs1d, GAMMA), label="time"),
        buy_and_hold(),
        move_based(),
    ]
    _, records = run_strategies(bs1d, cfg, strategies, record_paths=64)
    for label in ("time", "buy_hold", "move"):
        assert np.all(records.w_pre_min[label] >= 0.0)
        assert np.all(records.w_pre_max[label] < 1.0)


def test_engine_growth_matches_single_path_api(bs1d, ko1d):
    for model in (bs1d, ko1d):
        cfg_m = small_config(n_paths=8, allow_flagged=model.p > 0)
        _, records = run_strategies(model, cfg_m, [buy_and_hold()], record_paths=8)
        for i in range(8):
            _, _, logret = simulate_market_path(model, cfg_m, i)
            np.testing.assert_allclose(
                records.growth[i], np.exp(logret), rtol=0, atol=0
            )


def test_engine_growth_matches_single_path_api_antithetic(bs1d, ko1d):
    # an odd path mirrors its partner's lane inside an engine block, but is
    # the first lane of its own block in the single-path API
    for model in (bs1d, ko1d):
        cfg = small_config(horizon=2.0, n_paths=8, antithetic=True, allow_flagged=model.p > 0)
        _, records = run_strategies(model, cfg, [buy_and_hold()], record_paths=8)
        for i in range(8):
            _, _, logret = simulate_market_path(model, cfg, i)
            np.testing.assert_array_equal(records.growth[i], np.exp(logret))


def test_default_coefficient_sweep_matches_fused(ko1d):
    class Unfused(TruncatedKimOmbergModel):
        fused_coeffs = MarketModel.fused_coeffs

    cfg = small_config(horizon=1.0, n_paths=16, allow_flagged=True)
    runs = [
        run_strategies(model, cfg, [move_based(), buy_and_hold()])[0]
        for model in (ko1d, Unfused(vol=[0.1428], **KO_PARAMS))
    ]
    for label in ("move", "buy_hold"):
        for field in ("rel_sum", "tac", "de", "n_trades", "frictionless_path"):
            np.testing.assert_array_equal(
                getattr(runs[0][label], field), getattr(runs[1][label], field)
            )


def test_engine_bits_independent_of_covariance_declaration():
    # the constant-covariance fast path and the per-state path form the
    # geometry, the returns and the tracking error with the same arithmetic
    class GenericCovariance(TruncatedKimOmbergModel):
        @property
        def constant_sigma(self):
            return False

    cfg = small_config(horizon=1.0, n_paths=16, allow_flagged=True)
    for kw, band in (
        (dict(vol=[0.1428]), move_based()),
        (dict(vol=[0.1428, 0.1428], correlation=[[1.0, 0.6], [0.6, 1.0]]), pasted_move_based()),
    ):
        runs = []
        for cls in (TruncatedKimOmbergModel, GenericCovariance):
            model = cls(**kw, **KO_PARAMS)
            rule = optimal_rule(model, GAMMA, allow_flagged=True)
            strategies = [band, time_based(rule, label="time"), buy_and_hold()]
            runs.append(run_strategies(model, cfg, strategies)[0])
        for label in (band.label, "time", "buy_hold"):
            for field in ("rel_sum", "tac", "de", "n_trades", "frictionless_path"):
                np.testing.assert_array_equal(
                    getattr(runs[0][label], field), getattr(runs[1][label], field)
                )


def test_bit_reproducibility_workers_blocks(ko1d):
    base = dict(horizon=20.0, dt=1.0 / 250.0, n_paths=600, epsilon=EPS,
                gamma=GAMMA, seed=3, allow_flagged=True)
    runs = []
    for workers, block in ((1, 600), (2, 128), (1, 250)):
        cfg = SimulationConfig(**base, n_workers=workers, block_size=block)
        strategies = [
            time_based(optimal_rule(ko1d, GAMMA, allow_flagged=True), label="time"),
            move_based(),
        ]
        outcomes, _ = run_strategies(ko1d, cfg, strategies)
        runs.append(outcomes)
    for label in ("time", "move"):
        for field in ("rel_sum", "rel_sq_sum", "tac", "de", "n_trades"):
            a = getattr(runs[0][label], field)
            for other in runs[1:]:
                np.testing.assert_array_equal(a, getattr(other[label], field))


def test_antithetic_paths_mirror(bs1d):
    cfg = small_config(n_paths=4, antithetic=True)
    _, _, r0 = simulate_market_path(bs1d, cfg, 0)
    _, _, r1 = simulate_market_path(bs1d, cfg, 1)
    drift = (0.08 - 0.5 * 0.16**2) * cfg.dt
    np.testing.assert_allclose((r0 - drift) + (r1 - drift), 0.0, atol=1e-15)
    with pytest.raises(ParameterError):
        small_config(n_paths=5, antithetic=True)


def test_records_cover_every_block(ko1d):
    strategies = [
        time_based(optimal_rule(ko1d, GAMMA, allow_flagged=True), label="time"),
        move_based(),
        buy_and_hold(),
    ]
    recs = []
    for block in (128, 256):
        cfg = small_config(horizon=1.0, n_paths=256, block_size=block, allow_flagged=True)
        recs.append(run_strategies(ko1d, cfg, strategies, record_paths=200)[1])
    split, whole = recs
    assert split.wealth["move"].shape == (200, 251)
    assert any(path >= 128 for _, path, _, _ in split.trades["move"])
    np.testing.assert_array_equal(split.times, whole.times)
    np.testing.assert_array_equal(split.growth, whole.growth)
    for name in ("wealth", "weights", "w_pre_min", "w_pre_max"):
        a, b = getattr(split, name), getattr(whole, name)
        assert a.keys() == b.keys()
        for label in a:
            np.testing.assert_array_equal(a[label], b[label])
    for label in whole.trades:
        assert len(split.trades[label]) == len(whole.trades[label])
        for (step, path, dl, sz), (step2, path2, dl2, sz2) in zip(
            split.trades[label], whole.trades[label]
        ):
            assert (step, path, sz) == (step2, path2, sz2)
            np.testing.assert_array_equal(dl, dl2)


def test_worker_error_raised_without_thread_rerun():
    leveraged = BlackScholesModel(mu=[0.2], vol=[0.16])  # w* = 1.5625
    cfg = small_config(horizon=0.2, n_paths=8, block_size=4, n_workers=2)
    rule = optimal_rule(leveraged, GAMMA)  # raises once a worker evaluates it
    with pytest.raises(AssumptionError):
        run_strategies(leveraged, cfg, [time_based(rule, label="time")])


def test_block_arguments_survive_pickling(ko1d):
    # worker processes started without fork receive every block argument pickled
    cfg = small_config(horizon=0.2, n_paths=16, block_size=8, allow_flagged=True)
    strategies = [
        time_based(optimal_rule(ko1d, GAMMA, allow_flagged=True), label="time_adaptive"),
        time_based(DiscretizationRule("constant", 0.05), label="time_constant"),
        move_based(),
        buy_and_hold(),
        frictionless_benchmark(),
    ]
    args = (ko1d, cfg, strategies)
    run, rerun = run_strategies(*args)[0], run_strategies(*pickle.loads(pickle.dumps(args)))[0]
    assert list(rerun) == list(run)
    for label, out in run.items():
        for f in dataclasses.fields(StrategyOutcome):
            np.testing.assert_array_equal(getattr(out, f.name), getattr(rerun[label], f.name))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_strategy_bits_independent_of_companions(ko1d, ko2d):
    cases = [
        (ko1d, [move_based(), move_based("target", 0.5, label="move_t")]),
        (ko2d(0.6), [pasted_move_based(), pasted_move_based("target", 2.0, label="pasted_t")]),
    ]
    for eps in (0.01, 0.0):
        for model, bands in cases:
            cfg = small_config(horizon=1.0, n_paths=64, block_size=32, epsilon=eps,
                               antithetic=True, allow_flagged=True)
            rule = optimal_rule(model, GAMMA, allow_flagged=True)
            strategies = bands + [time_based(rule, label="time"), buy_and_hold(),
                                  frictionless_benchmark()]
            together, rec = run_strategies(model, cfg, strategies, record_paths=40)
            for s in strategies:
                alone, rec1 = run_strategies(model, cfg, [s], record_paths=40)
                for f in dataclasses.fields(StrategyOutcome):
                    _same_bits(getattr(together[s.label], f.name), getattr(alone[s.label], f.name))
                _same_bits(rec.times, rec1.times)
                _same_bits(rec.growth, rec1.growth)
                for name in ("wealth", "weights", "w_pre_min", "w_pre_max"):
                    _same_bits(getattr(rec, name)[s.label], getattr(rec1, name)[s.label])
                trades, trades1 = rec.trades[s.label], rec1.trades[s.label]
                assert [t[:2] for t in trades] == [t[:2] for t in trades1]
                for t, t1 in zip(trades, trades1):
                    _same_bits(t[2], t1[2])
                    assert type(t[3]) is float and t[3] == t1[3]
            frictionless = rec.trades["frictionless_sim"]
            assert len(frictionless) == 40 * cfg.n_steps
            assert all(t[3] == 0.0 for t in frictionless)


# ---------------------------------------------------------------------------
# strategy behaviour
# ---------------------------------------------------------------------------

def test_buy_and_hold_never_trades(bs1d):
    cfg = small_config(n_paths=64)
    out = run_strategy(bs1d, cfg, buy_and_hold())
    assert np.all(out.n_trades == 0)
    assert np.all(out.tac == 0.0)


def test_zero_mu_objective_exactly_zero():
    model = BlackScholesModel(mu=[0.0], vol=[0.16])
    cfg = small_config(n_paths=32)
    out = run_strategy(model, cfg, buy_and_hold())
    np.testing.assert_array_equal(out.objective_paths(cfg), 0.0)


def test_time_based_trade_count(bs1d):
    cfg = small_config(n_paths=64)
    out = run_strategy(bs1d, cfg, time_based(optimal_rule(bs1d, GAMMA)))
    assert np.all(out.n_trades == 8)  # floor(20 / 2.2275)


def test_zero_cost_dense_trading_recovers_frictionless(bs1d):
    cfg = small_config(n_paths=512, epsilon=0.0, antithetic=True)
    rule = DiscretizationRule(kind="constant", A=1.0)  # waits collapse at eps=0
    outs, _ = run_strategies(bs1d, cfg, [time_based(rule, label="dense")])
    rep = estimate_objective(outs["dense"], cfg, frictionless_rate=0.025)
    assert np.all(outs["dense"].tac == 0.0)
    assert abs(rep.F_hat - 0.025) < max(3 * rep.stderr, 5e-4)
    assert rep.implied_loss > -3 * rep.stderr


def test_costless_tracking_converges_as_triggers_densify(bs1d):
    # essentially-free trading (costs ~1e-8) on fixed calendars: discrete
    # tracking sits below the frictionless rate and approaches it as the
    # rebalancing calendar densifies
    eps_tiny = 1e-8
    cfg = small_config(n_paths=2048, epsilon=eps_tiny, antithetic=True)
    strategies = [
        time_based(
            DiscretizationRule(kind="constant", A=w / eps_tiny ** (2.0 / 3.0)),
            label=k,
        )
        for k, w in {"dense": 0.2, "sparse": 2.0}.items()
    ]
    outs, _ = run_strategies(bs1d, cfg, strategies)
    dense = estimate_objective(outs["dense"], cfg, frictionless_rate=0.025)
    sparse = estimate_objective(outs["sparse"], cfg, frictionless_rate=0.025)
    assert dense.implied_loss > -3 * dense.stderr
    assert sparse.implied_loss > -3 * sparse.stderr
    diff = (outs["dense"].objective_paths(cfg) - outs["sparse"].objective_paths(cfg))
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    assert diff.mean() > 3 * se  # denser calendar tracks strictly better
    assert dense.implied_loss < 0.25 * sparse.implied_loss


def test_tac_decreases_with_waiting_time(bs1d):
    cfg = small_config(n_paths=2048, antithetic=True)
    a_star = float(np.asarray(optimal_rule(bs1d, GAMMA).A_of(np.zeros(0))))
    strategies = [
        time_based(DiscretizationRule(kind="constant", A=c * a_star), label=f"c{c}")
        for c in (0.5, 1.0, 2.0)
    ]
    outs, _ = run_strategies(bs1d, cfg, strategies)
    t05, t10, t20 = (outs[f"c{c}"].tac for c in (0.5, 1.0, 2.0))
    se = max(x.std(ddof=1) / np.sqrt(len(x)) for x in (t05, t10, t20))
    assert t05.mean() > t10.mean() - 3 * se
    assert t10.mean() > t20.mean() - 3 * se


def test_move_needs_single_asset(bs2d):
    with pytest.raises(ParameterError):
        run_strategies(bs2d(0.3), small_config(n_paths=4), [move_based()])


def test_pasted_trades_assets_independently(bs2d):
    model = bs2d(0.3)
    cfg = small_config(n_paths=32)
    _, records = run_strategies(model, cfg, [pasted_move_based()], record_paths=32)
    partial = [np.count_nonzero(dl != 0.0) for _, _, dl, _ in records.trades["pasted"]]
    assert any(k == 1 for k in partial)  # single-asset trades do occur


def test_move_halfwidth_value_and_limits(bs1d, ko1d):
    # frozen from direct evaluation of ((3/2)(eps/gamma) k^2)^(1/3)
    delta = move_based_halfwidth_1d(bs1d, np.zeros(0), GAMMA, EPS)
    assert float(delta) == pytest.approx(0.0548253326, abs=1e-9)
    tiny = move_based_halfwidth_1d(bs1d, np.zeros(0), GAMMA, 1e-9)
    assert tiny < 1e-3
    with pytest.raises(ParameterError):
        move_based_halfwidth_1d(bs1d, np.zeros(0), GAMMA, 0.0)
    widths = pasted_halfwidths(ko1d, np.array([ko1d.long_run_mean]), GAMMA, EPS, True)
    assert widths.shape == (1,) and widths[0] > 0


def test_failed_paths_recorded_and_excluded():
    # leverage 33x with no rebalancing: many paths blow through zero wealth
    model = BlackScholesModel(mu=[3.0], vol=[0.30])
    cfg = SimulationConfig(
        horizon=2.0, dt=1.0 / 250.0, n_paths=128, epsilon=0.0, gamma=1.0, seed=5
    )
    out = run_strategy(model, cfg, buy_and_hold())
    assert out.failed.any()
    rep = estimate_objective(out, cfg, frictionless_rate=None)
    assert rep.n_failed == int(out.failed.sum())
    assert rep.n_paths == len(out.failed) - rep.n_failed
    assert np.isfinite(rep.F_hat)


def test_trade_that_takes_all_wealth_fails_the_path():
    # 22x leverage: a rebalance after a fall costs more than the wealth left,
    # so the path fails at that trade and records no negative wealth
    model = BlackScholesModel(mu=[2.0], vol=[0.30])
    cfg = SimulationConfig(
        horizon=2.0, dt=1.0 / 250.0, n_paths=128, epsilon=0.01, gamma=1.0, seed=0
    )
    strat = time_based(DiscretizationRule(kind="constant", A=0.5), label="time")
    out, rec = run_strategy(model, cfg, strat, record_paths=128)
    assert out.failed.any()
    assert np.all(rec.wealth["time"] >= 0.0)
    dead = out.failed
    assert np.all(rec.wealth["time"][dead, -1] == 0.0)
    assert np.all(rec.weights["time"][dead, -1] == 0.0)


def test_failed_path_bits_independent_of_blocks_and_companions():
    # paths fail by growth (33x leverage, never rebalanced) and at a trade (22x leverage)
    cases = [
        (BlackScholesModel(mu=[3.0], vol=[0.30]), 0.0, buy_and_hold()),
        (BlackScholesModel(mu=[2.0], vol=[0.30]), 0.01,
         time_based(DiscretizationRule(kind="constant", A=0.5), label="time")),
    ]
    companions = [frictionless_benchmark(), move_based(), buy_and_hold(label="other")]
    for model, eps, strat in cases:
        runs = []
        for block, others in ((32, []), (128, []), (32, companions)):
            cfg = SimulationConfig(horizon=2.0, dt=1.0 / 250.0, n_paths=128, epsilon=eps,
                                   gamma=1.0, seed=5, block_size=block)
            out, rec = run_strategies(model, cfg, [strat] + others, record_paths=128)
            runs.append((out[strat.label], rec))
        (out, rec), label = runs[0], strat.label
        assert out.failed.any()
        for out1, rec1 in runs[1:]:
            for f in dataclasses.fields(StrategyOutcome):
                _same_bits(getattr(out, f.name), getattr(out1, f.name))
            for name in ("wealth", "weights", "w_pre_min", "w_pre_max"):
                _same_bits(getattr(rec, name)[label], getattr(rec1, name)[label])
            assert [t[:2] + t[3:] for t in rec.trades[label]] == [
                t[:2] + t[3:] for t in rec1.trades[label]]
            for t, t1 in zip(rec.trades[label], rec1.trades[label]):
                _same_bits(t[2], t1[2])
        if strat.kind == "buy_hold":
            # weights never traded are the pre-trade weights: the tracking error stops
            # accruing at a path's failing step, which adds nothing
            gap = merton_state(model, np.zeros(0), cfg.gamma).w_star - rec.weights[label]
            f = np.einsum("kti,ij,ktj->kt", gap, model.Sigma_const, gap)
            alive = rec.wealth[label][:, 1:] > 0.0
            de = (0.5 * (f[:, :-1] + f[:, 1:]) * cfg.dt * alive).sum(axis=1)
            np.testing.assert_allclose(out.de, de, rtol=1e-12, atol=0.0)


def _run_arrays(model, cfg, strategies):
    """Every outcome, record and trade of a run with 40 recorded paths, as arrays."""
    out, rec = run_strategies(model, cfg, strategies, record_paths=40)
    arrays = [rec.times, rec.growth]
    for s in strategies:
        arrays += [getattr(out[s.label], f.name) for f in dataclasses.fields(StrategyOutcome)[1:]]
        arrays += [getattr(rec, name)[s.label] for name in ("wealth", "weights", "w_pre_min", "w_pre_max")]
        for step, path, dl, sz in rec.trades[s.label]:
            arrays += [np.array([step, path]), dl, np.array(sz)]
    return arrays


def test_outputs_independent_of_market_chunk(bs1d, ko1d, ko2d, monkeypatch):
    # chunks of K = 1 and 3 steps and of more steps than the run has, against the default;
    # at K = 3 the last chunk is short, in the 550-step run Philox chunks of 128 steps
    # end inside a chunk, and blocks of one path make chunks of one state at K = 1
    def runs():
        every = []
        for model, eps, antithetic in product((bs1d, ko1d, ko2d(0.6)), (0.0, 0.01), (False, True)):
            cfg = small_config(horizon=0.3, n_paths=48, block_size=24, epsilon=eps,
                               antithetic=antithetic, allow_flagged=True)
            band = move_based if model.m == 1 else pasted_move_based
            a_star = float(np.asarray(optimal_rule(model, GAMMA, True).A_of(np.zeros(model.p))))
            strategies = [band(), band("target", 0.5, label="band_t"),
                          time_based(optimal_rule(model, GAMMA, allow_flagged=True), label="time"),
                          time_based(DiscretizationRule("constant", 0.2 * a_star), label="time_c"),
                          buy_and_hold(), frictionless_benchmark()]
            every.append(_run_arrays(model, cfg, strategies))
        long_cfg = small_config(horizon=2.2, n_paths=8, block_size=8, allow_flagged=True)
        every.append(_run_arrays(ko1d, long_cfg, [move_based(), buy_and_hold()]))
        one_cfg = small_config(horizon=0.3, n_paths=2, block_size=1, allow_flagged=True)
        every.append(_run_arrays(ko1d, one_cfg, [move_based(), frictionless_benchmark()]))
        for model, eps, strat in ((BlackScholesModel(mu=[3.0], vol=[0.30]), 0.0, buy_and_hold()),
                                  (BlackScholesModel(mu=[2.0], vol=[0.30]), 0.01,
                                   time_based(DiscretizationRule("constant", 0.5), label="time"))):
            cfg = SimulationConfig(horizon=2.0, dt=1.0 / 250.0, n_paths=128, epsilon=eps,
                                   gamma=1.0, seed=5, block_size=32)
            every.append(_run_arrays(model, cfg, [strat, move_based()]))
        for model in (bs1d, ko1d, ko2d(0.6)):
            every.append(simulate_state_grid(model, 0.3, 1.0 / 250.0, 30, None, 4, block_size=7))
            cfg = small_config(horizon=0.3, n_paths=4, antithetic=True)
            every.append(simulate_market_path(model, cfg, 3))
        return [a for arrays in every for a in arrays]

    base = runs()
    for chunk in (1, 24 * 3, 10**6):  # blocks of 24 paths run in chunks of 1, 3 and 75 steps
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        got = runs()
        assert len(got) == len(base)
        for a, b in zip(got, base):
            _same_bits(a, b)
    # and the growth is each step's, as the single-path API forms it at the left endpoint
    cfg = small_config(horizon=0.3, n_paths=8, allow_flagged=True)
    _, rec = run_strategies(ko2d(0.6), cfg, [buy_and_hold()], record_paths=8)
    for i in range(8):
        _same_bits(rec.growth[i], np.exp(simulate_market_path(ko2d(0.6), cfg, i)[2]))


def test_state_leaving_support_mid_chunk_raises(ko1d, monkeypatch):
    # a drift that throws the state far out of its box once it passes y0 + 0.01: the
    # reflection cannot bring it back. Up to then the paths are ko1d's, which first pass
    # that level at the ninth step, inside a chunk of the default length and of 3 steps
    level = KO_PARAMS["long_run_mean"] + 0.01

    class Leaves(TruncatedKimOmbergModel):
        def b(self, y):
            return np.where(y > level, 1e4, super().b(y))

    model = Leaves(vol=[0.1428], **KO_PARAMS)
    cfg = small_config(horizon=0.3, n_paths=16, allow_flagged=True)
    _, grid = simulate_state_grid(ko1d, cfg.horizon, cfg.dt, cfg.n_paths, None, cfg.seed)
    assert np.argmax((grid > level).any(axis=(0, 2))) == 9
    for chunk in (1, 16 * 3, simulate._CHUNK):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        with pytest.raises(DomainError):
            run_strategies(model, cfg, [move_based(), buy_and_hold()])


def test_workers_get_a_block_each(ko1d, monkeypatch):
    # 256 paths with blocks of 2048 and two workers: two blocks of 128, equal to one worker
    blocks = []

    class SerialPool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *bounds):
            blocks.extend(zip(*bounds))
            return map(fn, *bounds)

    strategies = [time_based(optimal_rule(ko1d, GAMMA, allow_flagged=True), label="time"),
                  move_based()]
    cfg = small_config(horizon=0.5, n_paths=256, antithetic=True, allow_flagged=True)
    one = run_strategies(ko1d, cfg, strategies)[0]
    two_cfg = dataclasses.replace(cfg, n_workers=2)
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        run_strategies(ko1d, two_cfg, strategies)
    assert blocks == [(0, 128), (128, 256)]
    two = run_strategies(ko1d, two_cfg, strategies)[0]
    for label in one:
        for f in dataclasses.fields(StrategyOutcome):
            _same_bits(getattr(one[label], f.name), getattr(two[label], f.name))


def test_antithetic_estimate_consistent(bs1d):
    plain = small_config(n_paths=2048, antithetic=False)
    anti = small_config(n_paths=2048, antithetic=True)
    rule = optimal_rule(bs1d, GAMMA)
    rep_p = estimate_objective(
        run_strategy(bs1d, plain, time_based(rule)), plain, frictionless_rate=0.025
    )
    rep_a = estimate_objective(
        run_strategy(bs1d, anti, time_based(rule)), anti, frictionless_rate=0.025
    )
    assert abs(rep_a.F_hat - rep_p.F_hat) < 3 * rep_p.stderr


def test_config_validation():
    with pytest.raises(ParameterError):
        SimulationConfig(horizon=20.0, dt=0.0, n_paths=1, epsilon=0.01, gamma=5.0)
    with pytest.raises(ParameterError):
        SimulationConfig(horizon=20.0, dt=0.0041, n_paths=1, epsilon=0.01, gamma=5.0)
    with pytest.raises(ParameterError):
        SimulationConfig(horizon=20.0, dt=1 / 250, n_paths=1, epsilon=0.6, gamma=5.0)
    with pytest.raises(ParameterError):
        SimulationConfig(horizon=20.0, dt=1 / 250, n_paths=0, epsilon=0.01, gamma=5.0)
