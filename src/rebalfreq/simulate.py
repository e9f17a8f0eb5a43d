"""Monte Carlo simulation of discretely rebalanced wealth under proportional costs.

The market is simulated by Euler steps on a fixed grid (exact for constant
coefficients): per step, asset ``i`` grows by ``exp((mu^i - |sigma^i|^2/2) dt
+ sigma^i dB)`` with coefficients frozen at the left endpoint, and the state
follows the same Brownian increments (reflected at the declared support
box). Between rebalances the safe position is constant and risky positions
evolve multiplicatively. At a rebalance to target weights ``u``, the traded
weight fractions solve

    dL_i = u_i (1 - eps * s) - w_i,      s = sum_i |dL_i|,

after which wealth drops by the factor ``(1 - eps * s)`` and the post-trade
weights equal ``u`` exactly. The target, band widths, frictionless rate and
tracking-error form at each step come from the one geometry function of
:mod:`rebalfreq.merton`, with a constant covariance formed once per block.

Randomness is counter-based: path ``k`` always draws its Gaussian increments
from a Philox stream keyed by ``(seed, k)`` (or ``(seed, k // 2)`` with a
sign flip for antithetic pairs), so results are independent of how paths are
chunked into blocks or spread across workers, and any single path can be
reproduced bit-for-bit in isolation. Aggregation happens in fixed block
order. Strategies passed to one run share the same market draws, which makes
head-to-head comparisons and common-random-number differences sharp.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import AssumptionError, ConvergenceError, DomainError, ParameterError
from .frequency import DiscretizationRule
from .markets import _check_finite
from .merton import _constant_block, _geometry, merton_state

__all__ = [
    "SimulationConfig",
    "Strategy",
    "StrategyOutcome",
    "PathRecords",
    "time_based",
    "buy_and_hold",
    "move_based",
    "pasted_move_based",
    "frictionless_benchmark",
    "move_based_halfwidth_1d",
    "pasted_halfwidths",
    "rebalance_solve",
    "simulate_market_path",
    "simulate_state_grid",
    "run_strategy",
    "run_strategies",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Grid, cost, preference, and reproducibility settings for one run.

    ``horizon / dt`` must be integral; initial wealth is normalised to one.
    ``antithetic`` pairs path ``2k+1`` with the sign-flipped draws of path
    ``2k`` (requires an even ``n_paths``). ``n_workers`` only distributes
    blocks across worker processes; it never changes results.
    """

    horizon: float
    dt: float
    n_paths: int
    epsilon: float
    gamma: float
    y0: Optional[np.ndarray] = None
    seed: int = 0
    antithetic: bool = False
    block_size: int = 2048
    n_workers: int = 1
    allow_flagged: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        ratio = self.horizon / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ParameterError("horizon must be an integral number of dt steps")
        if not 0.0 <= self.epsilon < 0.5:
            raise ParameterError("epsilon must lie in [0, 0.5)")
        if self.n_paths < 1:
            raise ParameterError("n_paths must be >= 1")
        if self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        if self.antithetic and self.n_paths % 2:
            raise ParameterError("antithetic sampling requires an even n_paths")
        if self.seed < 0:
            raise ParameterError("seed must be a nonnegative integer")

    @property
    def n_steps(self):
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class Strategy:
    """A rebalancing policy.

    Kinds: ``time`` (rebalance to the target on a pre-announced schedule
    from ``rule``), ``buy_hold`` (set up the target once, never trade),
    ``pasted`` (trade an asset when its weight leaves a band around its
    target, with the univariate band applied per asset independently),
    ``move`` (the one-asset case of the ``pasted`` band policy), and
    ``frictionless`` (trade to the target every grid step at zero cost;
    benchmark). Band strategies trade back to the nearest band edge by
    default (``trade_to="boundary"``); ``trade_to="target"`` recentres fully.
    """

    kind: str
    label: str
    rule: Optional[DiscretizationRule] = None
    trade_to: str = "boundary"
    halfwidth_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("time", "buy_hold", "move", "pasted", "frictionless"):
            raise ParameterError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "time" and self.rule is None:
            raise ParameterError("time-based strategies need a discretization rule")
        if self.trade_to not in ("boundary", "target"):
            raise ParameterError("trade_to must be 'boundary' or 'target'")


def time_based(rule, label=None):
    return Strategy(kind="time", label=label or f"time_{rule.kind}", rule=rule)


def buy_and_hold(label="buy_hold"):
    return Strategy(kind="buy_hold", label=label)


def move_based(trade_to="boundary", halfwidth_scale=1.0, label="move"):
    return Strategy(kind="move", label=label, trade_to=trade_to, halfwidth_scale=halfwidth_scale)


def pasted_move_based(trade_to="boundary", halfwidth_scale=1.0, label="pasted"):
    return Strategy(kind="pasted", label=label, trade_to=trade_to, halfwidth_scale=halfwidth_scale)


def frictionless_benchmark(label="frictionless_sim"):
    return Strategy(kind="frictionless", label=label)


# ---------------------------------------------------------------------------
# no-trade band widths
# ---------------------------------------------------------------------------

def _halfwidths(st, gamma, epsilon):
    """Per-asset band half-widths ``(1.5 eps |beta^i|^2 / (gamma Sigma_ii))^(1/3)``.

    ``st`` is the :class:`~rebalfreq.merton.MertonState` at the states.
    """
    row2 = np.sum(st.beta * st.beta, axis=-1)
    diag = np.diagonal(st.Sigma, axis1=-2, axis2=-1)
    return (1.5 * epsilon / gamma * row2 / diag) ** (1.0 / 3.0)


def move_based_halfwidth_1d(model, y, gamma, epsilon, allow_flagged=False):
    """Half-width of the single-asset no-trade band around the target.

    ``delta(y) = (3 eps / (2 gamma) * |beta(y)|^2 / Sigma(y))^(1/3)``; for a
    constant-coefficient single-asset model this reduces to
    ``(3 eps / (2 gamma) * (w*(1-w*))^2)^(1/3)``, the width whose band
    policy attains the quoted optimal move-based loss rate.
    """
    if model.m != 1:
        raise ParameterError("move_based_halfwidth_1d requires a single-asset model")
    return pasted_halfwidths(model, y, gamma, epsilon, allow_flagged)[..., 0]


def pasted_halfwidths(model, y, gamma, epsilon, allow_flagged=False):
    """Per-asset band half-widths for the pasted multi-asset policy.

    Applies the univariate width formula asset by asset, using each asset's
    own row of ``beta`` and its marginal variance ``Sigma_ii``.
    """
    if epsilon <= 0:
        raise ParameterError("cost rate must be positive")
    st = merton_state(model, y, gamma)
    if not allow_flagged and not np.all(st.assumption_ok):
        raise AssumptionError(
            "target weights short or leverage; pass allow_flagged=True to proceed"
        )
    return _halfwidths(st, gamma, epsilon)


# ---------------------------------------------------------------------------
# trade-size fixed point
# ---------------------------------------------------------------------------

def rebalance_solve(d, w_star, epsilon, tol=1e-14, max_iter=200):
    """Solve for the traded weight fractions when rebalancing to ``w_star``.

    ``d = w_star - w_pre`` is the weight gap just before the trade. Solves
    the scalar fixed point ``s = sum_i |d_i - eps w*_i s|`` by iteration
    from ``s0 = sum_i |d_i|`` (a contraction with factor ``<= eps sum w*``),
    as a batch of one for the engine's solver, and returns ``(DeltaL,
    cost_fraction)`` with ``DeltaL_i = d_i - eps w*_i s`` and
    ``cost_fraction = eps * s``; wealth shrinks by the factor ``1 -
    cost_fraction`` and post-trade weights equal ``w_star`` exactly.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    u = np.atleast_1d(np.asarray(w_star, dtype=float))
    if d.shape != u.shape:
        raise ParameterError("d and w_star must have the same shape")
    if epsilon < 0:
        raise ParameterError("epsilon must be nonnegative")
    if epsilon == 0.0:
        return d.copy(), 0.0
    traded = np.ones((1, d.size), dtype=bool)
    dl, s = _rebalance_batch((u - d)[None], u[None], epsilon, traded, tol, max_iter)
    return dl[0], float(epsilon * s[0])


def _rebalance_batch(w_pre, u, epsilon, traded, tol=1e-14, max_iter=200):
    """Vectorised fixed point over paths; only ``traded`` assets move.

    Post-trade weights equal ``u`` on the traded set; untraded positions
    keep their dollar value. Convergence is judged path by path and each
    path's value freezes the moment it converges, so a path's result never
    depends on which other paths share the batch. Returns ``(DeltaL, s)``
    with shapes ``(B, m)`` and ``(B,)``; ``epsilon`` must be positive.
    """
    if np.any(epsilon * np.abs(np.where(traded, u, 0.0)).sum(axis=1) >= 1.0):
        raise ParameterError("need eps * sum|targets| < 1 for a well-posed rebalance")
    s = np.abs(np.where(traded, u - w_pre, 0.0)).sum(axis=1)
    done = np.zeros(len(s), dtype=bool)
    for _ in range(max_iter):
        dl = u * (1.0 - epsilon * s)[:, None] - w_pre
        s_new = np.abs(np.where(traded, dl, 0.0)).sum(axis=1)
        converged = np.abs(s_new - s) < tol
        s = np.where(done, s, s_new)
        done |= converged
        if done.all():
            break
    else:
        raise ConvergenceError("trade-size fixed point did not converge")
    dl = np.where(traded, u * (1.0 - epsilon * s)[:, None] - w_pre, 0.0)
    return dl, s


# ---------------------------------------------------------------------------
# random numbers and state paths
# ---------------------------------------------------------------------------

class _BlockNormals:
    """Per-path Philox streams for paths ``lo .. hi - 1``, drawn in step chunks.

    Path ``k`` draws from the stream keyed ``(seed, k)``; with antithetic
    sampling an odd path is the sign flip of the stream keyed ``(seed, k //
    2)``, mirrored from the previous lane when that lane is in the block.
    Chunked draws continue each path's stream exactly where the previous
    chunk stopped, so chunk size never affects the generated numbers; it
    only bounds memory.
    """

    def __init__(self, seed, lo, hi, d, antithetic, chunk=512):
        self.d = d
        self.chunk = chunk
        self._lanes = []  # (generator, flip sign), or None: mirror the previous lane
        for pi in range(lo, hi):
            odd = antithetic and pi % 2 == 1
            if odd and pi > lo:
                self._lanes.append(None)
            else:
                key_index = pi // 2 if antithetic else pi
                bitgen = np.random.Philox(key=np.array([seed, key_index], dtype=np.uint64))
                self._lanes.append((np.random.Generator(bitgen), odd))
        self._buf = None
        self._pos = 0

    def draw(self, size):
        """Normals for the next ``size`` steps, shape ``(B, size, d)``."""
        buf = np.empty((len(self._lanes), size, self.d))
        for i, lane in enumerate(self._lanes):
            if lane is None:
                np.negative(buf[i - 1], out=buf[i])
            else:
                gen, flip = lane
                buf[i] = gen.standard_normal((size, self.d))
                if flip:
                    np.negative(buf[i], out=buf[i])
        return buf

    def step(self, n_left):
        """Normals for the next time step, shape ``(B, d)``."""
        if self._buf is None or self._pos >= self._buf.shape[1]:
            self._buf = self.draw(min(self.chunk, n_left))
            self._pos = 0
        z = self._buf[:, self._pos, :]
        self._pos += 1
        return z


def _default_y0(model, y0):
    if y0 is not None:
        arr = np.atleast_1d(np.asarray(y0, dtype=float))
        if arr.shape != (model.p,):
            raise ParameterError(f"y0 must have shape ({model.p},)")
        return arr
    if model.p == 0:
        return np.zeros(0)
    if hasattr(model, "long_run_mean"):
        return np.full(model.p, model.long_run_mean)
    raise ParameterError("y0 is required for this model")


def _reflect(y, support):
    if support is None:
        return y
    lo, hi = support[:, 0], support[:, 1]
    y = np.where(y < lo, 2.0 * lo - y, y)
    y = np.where(y > hi, 2.0 * hi - y, y)
    if np.any(y < lo) or np.any(y > hi):
        raise DomainError("state left the support box even after reflection")
    return y


def _state_step(model, g0, y, b, z, dt):
    """One Euler step of the state with drift ``b``, reflected at the support.

    ``g0`` is the state diffusion of a constant-covariance model, whose ``g``
    is constant too; with ``None`` it is evaluated at ``y``.
    """
    if g0 is not None:
        shock = np.einsum("nd,pd->np", z, g0)
    else:
        shock = np.einsum("npd,nd->np", model.g(y), z)
    return _reflect(y + b * dt + shock * np.sqrt(dt), model.support)


def _log_returns(mu, sigma, z, dt):
    """Asset log increments over one step, coefficients at the left endpoint.

    Contractions use fixed-order einsum loops (not BLAS) so results are
    bitwise independent of batch size and identical between the engine
    and the single-path API.
    """
    rownorm2 = np.einsum("nmd,nmd->nm", sigma, sigma)
    return (mu - 0.5 * rownorm2) * dt + np.einsum("nmd,nd->nm", sigma, z) * np.sqrt(dt)


def _state_paths(model, y0, normals, dt, out):
    """Fill ``out`` ``(B, n_steps + 1, p)`` with state paths started at ``y0``.

    ``normals`` yields the ``(B, d)`` increments of one step at a time.
    """
    y = np.tile(y0, (len(out), 1))
    out[:, 0] = y
    if model.p == 0:
        return
    g0 = model.g(y[:1])[0] if model.constant_sigma else None
    for step, z in enumerate(normals):
        y = _state_step(model, g0, y, model.b(y), z, dt)
        out[:, step + 1] = y


def simulate_state_grid(model, horizon, dt, n_paths, y0=None, seed=0, block_size=4096):
    """Euler paths of the state variable alone on the simulation grid.

    Returns ``(times, states)`` with ``states`` of shape
    ``(n_paths, n_steps + 1, p)``. Uses the same per-path streams as the
    wealth simulator, so expectations computed here share their sampling
    error structure with full strategy runs at the same seed.
    """
    n_steps = int(round(horizon / dt))
    times = np.linspace(0.0, horizon, n_steps + 1)
    y0 = _default_y0(model, y0)
    states = np.empty((n_paths, n_steps + 1, model.p))
    for lo in range(0, n_paths, block_size):
        hi = min(lo + block_size, n_paths)
        source = _BlockNormals(seed, lo, hi, model.d, False)
        normals = (source.step(n_steps - k) for k in range(n_steps))
        _state_paths(model, y0, normals, dt, states[lo:hi])
    return times, states


def simulate_market_path(model, config, path_index):
    """One market path: ``(times, states, log_returns)``, bit-reproducible.

    ``states`` has shape ``(n_steps + 1, p)`` and ``log_returns`` has shape
    ``(n_steps, m)``; the pair ``(config.seed, path_index)`` fully
    determines the output, which equals the engine's for that path.
    """
    n_steps = config.n_steps
    times = np.linspace(0.0, config.horizon, n_steps + 1)
    y0 = _default_y0(model, config.y0)
    source = _BlockNormals(config.seed, path_index, path_index + 1, model.d, config.antithetic)
    z = source.draw(n_steps)
    states = np.empty((1, n_steps + 1, model.p))
    _state_paths(model, y0, np.swapaxes(z, 0, 1), config.dt, states)
    left = states[0, :-1]
    model.check_support(left)
    mu, sigma = model.mu(left), model.sigma(left)
    _check_finite(mu, sigma)
    return times, states[0], _log_returns(mu, sigma, z[0], config.dt)


# ---------------------------------------------------------------------------
# outcome containers
# ---------------------------------------------------------------------------

@dataclass
class StrategyOutcome:
    """Per-path ledger aggregates for one strategy (arrays over paths).

    ``rel_sum`` and ``rel_sq_sum`` accumulate the relative wealth increments
    and their squares (including rebalance jumps); ``tac`` is the realised
    proportional cost ``eps * sum |DeltaL|`` and ``de`` the trapezoid
    integral of ``(w* - w)' Sigma (w* - w)``, both totals over ``[0, T]``.
    ``frictionless_path`` is the per-path time average of the frictionless
    objective rate along the same state path.
    """

    label: str
    rel_sum: np.ndarray
    rel_sq_sum: np.ndarray
    tac: np.ndarray
    de: np.ndarray
    n_trades: np.ndarray
    failed: np.ndarray
    frictionless_path: np.ndarray

    def objective_paths(self, config):
        """Per-path annualised objective values."""
        return (self.rel_sum - 0.5 * config.gamma * self.rel_sq_sum) / config.horizon


@dataclass
class PathRecords:
    """Full ledgers for the first few paths (debugging and reconciliation)."""

    times: np.ndarray
    growth: np.ndarray  # (K, n_steps, m) asset growth factors, shared
    wealth: dict = field(default_factory=dict)  # label -> (K, n_steps + 1)
    weights: dict = field(default_factory=dict)  # label -> (K, n_steps + 1, m), post-trade
    w_pre_min: dict = field(default_factory=dict)  # label -> (K, m)
    w_pre_max: dict = field(default_factory=dict)
    trades: dict = field(default_factory=dict)  # label -> list of (step, path, DeltaL, s)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _quad(err, Sigma):
    """Tracking-error form ``err' Sigma err`` per path."""
    return np.einsum("nm,nmk,nk->n", err, Sigma, err)


def _run_block(model, config, strategies, lo, hi, record_upto):
    n_steps = config.n_steps
    dt, eps, gamma = config.dt, config.epsilon, config.gamma
    B = hi - lo
    n_rec = max(0, min(record_upto, hi) - lo) if lo < record_upto else 0

    source = _BlockNormals(config.seed, lo, hi, model.d, config.antithetic)
    y = np.tile(_default_y0(model, config.y0), (B, 1))
    const = _constant_block(model, y)
    g0 = model.g(y[:1])[0] if model.constant_sigma else None
    cur = _geometry(model, y, gamma, const)
    wst = cur.w_star

    records = None
    if n_rec:
        records = PathRecords(
            times=np.linspace(0.0, config.horizon, n_steps + 1),
            growth=np.empty((n_rec, n_steps, model.m)),
        )

    states = {}
    for s in strategies:
        vi = wst * 1.0
        st = {
            "V0": 1.0 - vi.sum(axis=1),
            "Vi": vi,
            "V": np.ones(B),
            "rel": np.zeros(B),
            "rel2": np.zeros(B),
            "tac": np.zeros(B),
            "de": np.zeros(B),
            "ntr": np.zeros(B, dtype=np.int64),
            "failed": np.zeros(B, dtype=bool),
            "f_post": np.zeros(B),
        }
        if s.kind == "time":
            wait0 = np.broadcast_to(
                np.asarray(s.rule.waiting_time(y, eps), dtype=float), (B,)
            )
            st["next_t"] = wait0.copy()
        states[s.label] = st
        if n_rec:
            records.wealth[s.label] = np.empty((n_rec, n_steps + 1))
            records.wealth[s.label][:, 0] = 1.0
            records.weights[s.label] = np.empty((n_rec, n_steps + 1, model.m))
            records.weights[s.label][:, 0] = wst[:n_rec]
            records.w_pre_min[s.label] = wst[:n_rec].copy()
            records.w_pre_max[s.label] = wst[:n_rec].copy()
            records.trades[s.label] = []

    fric = np.zeros(B)
    horizon_cut = config.horizon - 1e-9

    for step in range(n_steps):
        z = source.step(n_steps - step)
        t1 = (step + 1) * dt
        growth = np.exp(_log_returns(cur.mu, cur.sigma, z, dt))
        if model.p:
            y_new = _state_step(model, g0, y, cur.b, z, dt)
            mk = _geometry(model, y_new, gamma, const)
        else:  # the state never moves
            y_new, mk = y, cur
        wst_new = mk.w_star
        fric += 0.5 * (cur.f_rate + mk.f_rate) * dt
        if n_rec:
            records.growth[:, step] = growth[:n_rec]

        for s in strategies:
            st = states[s.label]
            active = ~st["failed"]
            v_old = st["V"]
            vi = st["Vi"]
            vi *= growth
            v = st["V0"] + vi.sum(axis=1)
            dead = active & (v <= 0.0)
            if dead.any():
                st["failed"] |= dead
                st["V0"] = np.where(dead, 0.0, st["V0"])
                vi[dead] = 0.0
                v = np.where(dead, 0.0, v)
                active = ~st["failed"]
            x = np.divide(v, v_old, out=np.ones_like(v), where=v_old > 0) - 1.0
            st["rel"] += x
            st["rel2"] += x * x
            w_pre = np.divide(
                vi, v[:, None], out=np.zeros_like(vi), where=v[:, None] > 0
            )
            err = wst_new - w_pre
            f_pre = _quad(err, mk.Sigma)
            st["de"] += np.where(active, 0.5 * (st["f_post"] + f_pre) * dt, 0.0)
            st["f_post"] = np.where(active, f_pre, 0.0)

            # trigger detection and trade targets
            asset_mask = None
            u = None
            if s.kind == "buy_hold":
                trig = None
            elif s.kind == "frictionless":
                trig = active
                u = wst_new
            elif s.kind == "time":
                trig = active & (t1 >= st["next_t"] - 1e-9 * dt) & (t1 < horizon_cut)
                u = wst_new
            else:  # band policies: pasted, and move as its one-asset case
                if eps > 0:
                    delta = _halfwidths(mk, gamma, eps) * s.halfwidth_scale
                else:
                    delta = np.zeros((B, model.m))
                asset_mask = np.abs(err) > delta
                trig = active & asset_mask.any(axis=1) & (t1 < horizon_cut)
                if s.trade_to == "boundary" and eps > 0:
                    u = wst_new - np.sign(err) * delta
                else:
                    u = wst_new

            if trig is not None and trig.any():
                idx = np.flatnonzero(trig)
                eps_eff = 0.0 if s.kind == "frictionless" else eps
                uu = np.ascontiguousarray(u[idx])
                tm = (
                    asset_mask[idx]
                    if asset_mask is not None
                    else np.ones((len(idx), model.m), dtype=bool)
                )
                if eps_eff == 0.0:
                    w_post = np.where(tm, uu, w_pre[idx])
                    sz = np.zeros(len(idx))
                    dl = w_post - w_pre[idx]
                else:
                    dl, sz = _rebalance_batch(w_pre[idx], uu, eps_eff, tm)
                    shrink = 1.0 - eps_eff * sz
                    w_post = np.where(tm, uu, w_pre[idx] / shrink[:, None])
                cost = eps_eff * sz
                v_new = v[idx] * (1.0 - cost)
                st["rel"][idx] -= cost
                st["rel2"][idx] += cost * cost
                st["tac"][idx] += cost
                st["ntr"][idx] += 1
                vi[idx] = w_post * v_new[:, None]
                st["V0"][idx] = v_new * (1.0 - w_post.sum(axis=1))
                v[idx] = v_new
                st["f_post"][idx] = _quad(wst_new[idx] - w_post, mk.Sigma[idx])
                if s.kind == "time":
                    waits = np.broadcast_to(
                        np.asarray(s.rule.waiting_time(y_new[idx], eps), dtype=float),
                        (len(idx),),
                    )
                    st["next_t"][idx] += np.maximum(waits, 0.0)
                if n_rec:
                    rec_sel = idx[idx < n_rec]
                    for r in rec_sel:
                        pos = int(np.searchsorted(idx, r))
                        records.trades[s.label].append(
                            (step + 1, lo + int(r), dl[pos].copy(), float(sz[pos]))
                        )
            st["V"] = v
            if n_rec:
                records.wealth[s.label][:, step + 1] = v[:n_rec]
                w_now = np.divide(
                    vi[:n_rec],
                    v[:n_rec, None],
                    out=np.zeros((n_rec, model.m)),
                    where=v[:n_rec, None] > 0,
                )
                records.weights[s.label][:, step + 1] = w_now
                records.w_pre_min[s.label] = np.minimum(
                    records.w_pre_min[s.label], w_pre[:n_rec]
                )
                records.w_pre_max[s.label] = np.maximum(
                    records.w_pre_max[s.label], w_pre[:n_rec]
                )
        y = y_new
        cur = mk

    fric /= config.horizon
    out = {}
    for s in strategies:
        st = states[s.label]
        out[s.label] = StrategyOutcome(
            label=s.label,
            rel_sum=st["rel"],
            rel_sq_sum=st["rel2"],
            tac=st["tac"],
            de=st["de"],
            n_trades=st["ntr"],
            failed=st["failed"],
            frictionless_path=fric,
        )
    return out, records


def run_strategies(model, config, strategies, record_paths=0):
    """Simulate several strategies on shared market draws.

    Returns ``(outcomes, records)`` where ``outcomes`` maps each strategy
    label to a :class:`StrategyOutcome` with per-path arrays in path order,
    and ``records`` holds full ledgers for the first ``record_paths`` paths
    of the run, merged from the blocks in path order (``None`` if zero).
    Blocks are distributed over worker processes when ``n_workers > 1``;
    results are bit-identical for any worker count and block size.
    """
    labels = [s.label for s in strategies]
    if len(set(labels)) != len(labels):
        raise ParameterError("strategy labels must be unique")
    if any(s.kind == "move" for s in strategies) and model.m != 1:
        raise ParameterError(
            "the single-band 'move' strategy needs m == 1; use 'pasted' for "
            "several assets"
        )
    block = config.block_size
    if config.antithetic and block % 2:
        block += 1
    bounds = [(lo, min(lo + block, config.n_paths)) for lo in range(0, config.n_paths, block)]

    run_block = partial(_run_block, model, config, strategies, record_upto=record_paths)
    if config.n_workers > 1 and len(bounds) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(
                max_workers=min(config.n_workers, len(bounds)), mp_context=ctx
            )
        except (OSError, ValueError):  # fork unavailable: fall back to threads
            pool = ThreadPoolExecutor(max_workers=config.n_workers)
        with pool:
            results = list(pool.map(run_block, *zip(*bounds)))
    else:
        results = [run_block(lo, hi) for lo, hi in bounds]

    outcomes = {}
    for label in labels:
        parts = [r[0][label] for r in results]
        outcomes[label] = StrategyOutcome(
            label=label,
            rel_sum=np.concatenate([p.rel_sum for p in parts]),
            rel_sq_sum=np.concatenate([p.rel_sq_sum for p in parts]),
            tac=np.concatenate([p.tac for p in parts]),
            de=np.concatenate([p.de for p in parts]),
            n_trades=np.concatenate([p.n_trades for p in parts]),
            failed=np.concatenate([p.failed for p in parts]),
            frictionless_path=np.concatenate([p.frictionless_path for p in parts]),
        )
    records = _merge_records([r[1] for r in results if r[1] is not None])
    return outcomes, records


def _merge_records(parts):
    """Join the blocks' path records in path order (``None`` if there are none).

    Trades are listed by step, then path, as one block lists them, so the
    records do not depend on the block size.
    """
    if not parts:
        return None
    merged = PathRecords(parts[0].times, np.concatenate([r.growth for r in parts]))
    for label in parts[0].wealth:
        for name in ("wealth", "weights", "w_pre_min", "w_pre_max"):
            getattr(merged, name)[label] = np.concatenate([getattr(r, name)[label] for r in parts])
        trades = (t for r in parts for t in r.trades[label])
        merged.trades[label] = sorted(trades, key=lambda t: t[:2])
    return merged


def run_strategy(model, config, strategy, record_paths=0):
    """Simulate a single strategy; see :func:`run_strategies`."""
    outcomes, records = run_strategies(model, config, [strategy], record_paths)
    out = outcomes[strategy.label]
    return (out, records) if record_paths else out
