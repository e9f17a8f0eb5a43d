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
reproduced bit-for-bit in isolation. Each lane of a block that owns a stream
(under antithetic sampling the even paths and an odd path that starts the
block) keeps one generator for the life of the block; the block draws 128
steps of these lanes at a time, forms each other odd path as the negation of
its partner where a tape is cut, and releases a spent chunk before it draws
the next. Aggregation happens in fixed block order.
Strategies of one run share the market draws, which sharpens their
comparison, and one ledger of arrays stacked over (strategy, path), paths last.

A block of ``B`` paths runs in chunks of ``K = max(1, _CHUNK // B)`` steps: a
market pass takes the chunk's draws as one tape, steps the state through it and
forms the geometry, band widths and growth of all ``K B`` states at once, and the
ledger pass reads step slices of these. Sums run in a fixed order, so no result
depends on ``K``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product
from typing import Optional

import numpy as np

from .errors import AssumptionError, ConvergenceError, DomainError, ParameterError
from .frequency import DiscretizationRule, _AdaptiveProfile
from .markets import _check_finite
from .merton import MertonState, _constant_block, _fixed_sum, _geometry, _last, merton_state

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
    ``2k`` (requires an even ``n_paths``). ``n_workers`` only spreads the
    engine's path blocks and the prediction grid's path ranges over worker
    processes; it never changes results.
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
    row2 = _fixed_sum(st.beta[..., j] * st.beta[..., j] for j in range(st.beta.shape[-1]))
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
    s = _rebalance_batch((u - d)[None], u[None], epsilon, traded, tol, max_iter)[0]
    return u * (1.0 - epsilon * s) - (u - d), float(epsilon * s)


def _rebalance_batch(w_pre, u, epsilon, traded, tol=1e-14, max_iter=200):
    """Trade sizes ``s`` ``(B,)`` of the fixed point over paths; only ``traded`` assets move.

    ``epsilon`` is the cost rate, one value or one per path, and may be zero.
    A trade moves ``DeltaL = u (1 - eps s) - w_pre`` on the traded set, so
    post-trade weights equal ``u`` there; untraded positions keep their
    dollar value. Each path's value freezes the moment it converges, so it
    never depends on the other paths of the batch. A zero-cost path pays
    nothing, so it is not iterated and its ``s`` is 0. Untraded assets are
    zeroed in ``u`` and ``w_pre`` once, so each of their terms is ``|0 c - 0|
    = 0``: for finite inputs, the bits of masking every iterate.
    """
    epsilon = np.full(len(u), epsilon, dtype=float)
    s = np.zeros(len(u))
    paid = np.flatnonzero(epsilon > 0)
    if paid.size:
        rows = slice(None) if paid.size == len(u) else paid  # all pay: views, no gathers
        e, up, wp, tp = epsilon[rows, None], u[rows], w_pre[rows], traded[rows]
        if not tp.all():
            up, wp = np.where(tp, up, 0.0), np.where(tp, wp, 0.0)

        def total(a):  # the sum over assets, as a column; one asset's is its column
            return a if a.shape[1] == 1 else np.add.reduce(a, axis=1, keepdims=True)

        if (e * total(np.abs(up)) >= 1.0).any():
            raise ParameterError("need eps * sum|targets| < 1 for a well-posed rebalance")
        sp = total(np.abs(up - wp))
        done = np.zeros(sp.shape, dtype=bool)
        for _ in range(max_iter):
            s_new = total(np.abs(up * (1.0 - e * sp) - wp))
            converged = np.abs(s_new - sp) < tol
            np.copyto(sp, s_new, where=~done)
            done |= converged
            if done.all():
                break
        else:
            raise ConvergenceError("trade-size fixed point did not converge")
        s[rows] = sp[:, 0]
    return s


# ---------------------------------------------------------------------------
# random numbers and state paths
# ---------------------------------------------------------------------------

# States per chunk of a block's market pass: K = max(1, _CHUNK // B) steps of B paths.
_CHUNK = 8192


@cache
def _lane_key():
    """The class of a Philox seed that yields the key ``(seed, k)``: the stream of
    ``Philox(key=[seed, k])`` without the ``SeedSequence`` that ``key=`` draws from OS
    entropy. Built on first use, so that importing the package leaves ``numpy.random`` out."""
    from numpy.random.bit_generator import ISeedSequence

    class LaneKey(ISeedSequence):
        __slots__ = ("seed", "k")

        def __init__(self, seed, k):
            self.seed, self.k = seed, k

        def generate_state(self, n_words, dtype=np.uint32):  # Philox asks for (2, uint64)
            return np.array([self.seed, self.k], dtype=np.uint64)

    return LaneKey


class _BlockNormals:
    """Per-path Philox streams for paths ``lo .. hi - 1``, drawn in step chunks.

    Path ``k`` draws from the stream keyed ``(seed, k)``; with antithetic
    sampling an odd path is the sign flip of the stream keyed ``(seed, k //
    2)``. Each lane that owns a stream keeps its own generator for the life of
    the block: every lane, or under antithetic sampling the even paths' lanes
    and an odd lane that starts the block (drawn with its sign flipped). The
    lane-major buffer holds one chunk of these lanes, each filled by one call
    that continues its stream where the previous chunk stopped, so chunk size
    never affects the generated numbers; it only bounds memory. ``tape`` copies
    the lanes into their columns and forms each other odd lane there as the
    negation of the column before it. The spent chunk is released before the
    next is drawn, so a block never holds two.
    """

    def __init__(self, seed, lo, hi, d, antithetic, chunk=128):
        from numpy.random import Generator, Philox

        self.d, self.chunk, self.n = d, chunk, hi - lo
        step = 2 if antithetic else 1
        odd = lo % step  # the first lane is an odd path whose partner is outside the block
        lanes = [*range(odd), *range(odd, self.n, step)]  # the lanes that draw, in buffer order
        # (buffer rows, lanes) of the copies into a tape, and (partners, mirrors) of its negation
        self._cols = [(slice(odd, None), slice(odd, None, step))]
        self._cols += [(slice(1), slice(1))] if odd else []
        self._mirror = antithetic and (slice(odd, self.n - 1, 2), slice(odd + 1, self.n, 2))
        self._flip = odd
        key, zero = _lane_key(), np.zeros(4, dtype=np.uint64)  # an array skips Philox's parse of 0
        self._gens = [Generator(Philox(key(seed, (lo + i) // step), counter=zero)) for i in lanes]
        self._buf, self._pos = None, 0

    def draw(self, size):
        """Normals of the drawing lanes for the next ``size`` steps, shape ``(lanes, size, d)``."""
        buf = np.empty((len(self._gens), size, self.d))
        for gen, out in zip(self._gens, buf):
            gen.standard_normal(out=out)
        if self._flip:
            np.negative(buf[0], out=buf[0])
        return buf

    def tape(self, n_left, k):
        """A tape of normals for the next ``k`` steps of the ``n_left`` left (fewer where the
        drawn chunk ends), a contiguous ``(d, k, B)``: factor, then step, then path. One
        transposed copy fills the drawing lanes' columns and one negation their mirrors'."""
        if self._buf is None or self._pos >= self._buf.shape[1]:
            self._buf = None  # release the spent chunk before drawing the next
            self._buf, self._pos = self.draw(min(self.chunk, n_left)), 0
        part = self._buf[:, self._pos:self._pos + k].transpose(2, 1, 0)
        z = np.empty(part.shape[:2] + (self.n,))
        for rows, lanes in self._cols:
            z[..., lanes] = part[..., rows]
        if self._mirror:
            np.negative(z[..., self._mirror[0]], out=z[..., self._mirror[1]])
        self._pos += z.shape[1]
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
    if (y.min(axis=0) >= lo).all() and (y.max(axis=0) <= hi).all():
        return y  # nothing to reflect
    y = np.where(y < lo, 2.0 * lo - y, y)
    y = np.where(y > hi, 2.0 * hi - y, y)
    if np.any(y < lo) or np.any(y > hi):
        raise DomainError("state left the support box even after reflection")
    return y


def _euler(model, y, z, dt, out):
    """Euler steps of the states ``y`` ``(B, p)`` on the tape ``z`` ``(d, K, B)``, reflected at
    the support box, step ``j``'s into ``out[j]``; returns the last. A constant ``g`` (as
    with a constant covariance) gives the diffusion terms of all ``K`` steps in one go."""
    def shock(g, z):  # g z sqrt(dt), states last
        return _fixed_sum((g[:, i] * z[i] for i in range(len(z))), 2) * np.sqrt(dt)

    shocks = shock(_last(model.g(y[:1]))[..., None], z) if model.constant_sigma else None
    for j in range(z.shape[1]):
        dw = shock(_last(model.g(y)), z[:, j]) if shocks is None else shocks[:, j]
        y = out[j] = _reflect(y + model.b(y) * dt + dw.T, model.support)
    return y


def _log_returns(mu, sigma, z, dt):
    """Asset log increments ``(m, n)`` over one step, coefficients at the left endpoint.

    Paths last (``sigma`` may be a constant ``(m, d, 1)``); sums run in einsum's fixed order,
    so results are bitwise independent of batch size and equal in the engine and the
    single-path API.
    """
    rownorm2 = _fixed_sum((sigma[:, j] * sigma[:, j] for j in range(len(z))), 2)
    shock = _fixed_sum((sigma[:, j] * z[j] for j in range(len(z))), 2)
    return (mu - 0.5 * rownorm2) * dt + shock * np.sqrt(dt)


def simulate_state_grid(model, horizon, dt, n_paths, y0=None, seed=0, block_size=4096, first=0):
    """Euler paths of the state variable alone on the simulation grid.

    Returns ``(times, states)`` with ``states`` of shape
    ``(n_paths, n_steps + 1, p)``, of paths ``first .. first + n_paths - 1``.
    Uses the same per-path streams and the same Euler recursion as the wealth
    simulator, so expectations computed here share their sampling error
    structure with full strategy runs at the same seed; a path's states do not
    depend on ``first`` or ``block_size``, so a grid drawn in path ranges equals
    the grid drawn whole.
    """
    n_steps = int(round(horizon / dt))
    times = np.linspace(0.0, horizon, n_steps + 1)
    y0 = _default_y0(model, y0)
    states = np.empty((n_paths, n_steps + 1, model.p))
    for lo in range(0, n_paths, block_size):
        hi = min(lo + block_size, n_paths)
        source = _BlockNormals(seed, first + lo, first + hi, model.d, False)
        out = states[lo:hi].transpose(1, 0, 2)
        out[0], step = y0, 0
        while model.p and step < n_steps:
            z = source.tape(n_steps - step, max(1, _CHUNK // (hi - lo)))
            _euler(model, out[step], z, dt, out[step + 1:])
            step += z.shape[1]
    return times, states


def simulate_market_path(model, config, path_index):
    """One market path: ``(times, states, log_returns)``, bit-reproducible.

    ``states`` has shape ``(n_steps + 1, p)`` and ``log_returns`` has shape
    ``(n_steps, m)``; the pair ``(config.seed, path_index)`` fully
    determines the output, which equals the engine's for that path.
    """
    n_steps = config.n_steps
    times = np.linspace(0.0, config.horizon, n_steps + 1)
    states = np.tile(_default_y0(model, config.y0), (n_steps + 1, 1, 1))
    z = _BlockNormals(config.seed, path_index, path_index + 1, model.d, config.antithetic,
                      n_steps).tape(n_steps, n_steps)
    if model.p:
        _euler(model, states[0], z, config.dt, states[1:])
    left = states[:-1, 0]
    model.check_support(left)
    mu, sigma = model.mu(left), model.sigma(left)
    _check_finite(mu, sigma)
    return times, states[:, 0], _log_returns(_last(mu), _last(sigma), z[:, :, 0], config.dt).T


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

def _rows(a):
    """Flat-row view ``(S * B,)`` of a C-contiguous ``(S, B)`` ledger array."""
    return a.reshape(-1)


def _quad_form(x, Sigma):
    """``x' Sigma x`` for ``x`` ``(..., m, n)`` and ``Sigma`` ``(n, m, m)``, paths last.

    Sums ``(x_i Sigma_ik) x_k`` in the ``(i, k)`` order of ``np.einsum("snm,nmk,snk->sn")``,
    bit for bit, but keeps that order for one or two rows, where einsum's shifts at m = 2.
    """
    S, ik = _last(Sigma), product(range(Sigma.shape[-1]), repeat=2)
    return _fixed_sum(x[..., i, :] * S[i, k] * x[..., k, :] for i, k in ik)


def _run_of(mask):
    """Index of the strategy rows ``mask`` selects: a slice (views, not copies) when they
    form one run, else the mask itself."""
    runs = np.flatnonzero(mask)
    if runs.size and runs[-1] - runs[0] == len(runs) - 1:
        return slice(runs[0], runs[-1] + 1)
    return mask


def _run_block(model, config, strategies, lo, hi, record_upto):
    """Paths ``lo .. hi - 1`` of all ``S`` strategies on shared draws, as stacked
    ``(S, B)`` and ``(S, m, B)`` ledgers, paths last so that ufuncs and asset sums
    (bitwise as paths-first for ``m < 8``) run along contiguous memory; trades use
    rows ``strategy * B + path``. Returns the ledgers, frictionless rates and records.

    Steps run in chunks of ``K = max(1, _CHUNK // B)`` (fewer where a drawn chunk ends). The
    market pass steps the state through the chunk's tape, then forms in one call each the
    geometry and band half-widths after every step, the growth from each step's left-endpoint
    coefficients and the frictionless-rate trapezoid terms. The ledger reads step ``j`` from
    states ``j B .. (j + 1) B - 1``; a bad state raises before the ledger runs its chunk.
    """
    n_steps, m, p = config.n_steps, model.m, model.p
    dt, eps, gamma = config.dt, config.epsilon, config.gamma
    S, B = len(strategies), hi - lo
    K = max(1, _CHUNK // B)
    n_rec = max(0, min(record_upto, hi) - lo)
    band = np.array([s.kind in ("move", "pasted") for s in strategies])
    fric = np.array([s.kind == "frictionless" for s in strategies])
    to_edge = band & np.array([s.trade_to == "boundary" for s in strategies]) & (eps > 0)
    scale = np.array([s.halfwidth_scale for s in strategies])[:, None, None]
    rate = np.repeat(np.where(fric, 0.0, eps), B)
    timed = [(k, s.rule) for k, s in enumerate(strategies) if s.kind == "time"]
    # time rules whose A* is read off the step's geometry; beta is formed only if read
    profiled = {k for k, r in timed if isinstance(r.A, _AdaptiveProfile)
                and r.A.model is model and r.A.gamma == gamma}
    banded, edged = band.any(), to_edge.any()
    band, clock = _run_of(band), _run_of(np.array([s.kind == "time" for s in strategies]))
    fric_rows = np.repeat(fric[:, None], B, axis=1)

    source = _BlockNormals(config.seed, lo, hi, model.d, config.antithetic)
    y = np.tile(_default_y0(model, config.y0), (B, 1))
    const = _constant_block(model, np.broadcast_to(y[:1], (K * B, p)))  # sliced per call
    first = _geometry(model, y, gamma, const and tuple(c[:B] for c in const),
                      banded or bool(profiled))
    Vi = np.repeat(first.w_star.T[None], S, axis=0)
    V0, V = 1.0 - Vi.sum(axis=1), np.ones((S, B))
    rel, rel2, tac, de, f_post = (np.zeros((S, B)) for _ in range(5))
    n_trades = np.zeros((S, B), dtype=np.int64)
    traded = np.ones((S, m, B), dtype=bool)  # band rows are set at each step
    next_t = np.full((S, B), np.inf)
    for k, rule in timed:
        next_t[k] = (eps**rule.alpha * rule.A.of_state(first) if k in profiled
                     else rule.waiting_time(y, eps))
    fric_rate = np.zeros(B)
    left = _last(first.mu), _last(first.sigma), first.f_rate  # at a chunk's first step

    rec = None
    if n_rec:
        vi_rec = Vi[:, :, :n_rec].transpose(0, 2, 1)  # live view; records put paths before assets
        rec = {
            "growth": np.empty((n_rec, n_steps, m)),
            "wealth": np.ones((S, n_rec, n_steps + 1)),
            "positions": np.repeat(vi_rec[:, :, None], n_steps + 1, axis=2),
            "w_pre_min": vi_rec.copy(),
            "w_pre_max": vi_rec.copy(),
            "trades": [[] for _ in strategies],
        }

    geo, s0 = None, 0
    while s0 < n_steps:
        z = source.tape(n_steps - s0, K)
        n = z.shape[1]  # steps in this chunk
        if p or geo is None:  # a state that never moves keeps its first chunk's geometry
            yc = (ys := np.empty((n, B, p))).reshape(n * B, p)  # the chunk's states, step-major
            y = _euler(model, y, z, dt, ys) if p else y
            geo = _geometry(model, yc, gamma, const and tuple(c[:n * B] for c in const),
                            banded or bool(profiled))
            W = _last(geo.w_star).reshape(m, n, B)
            right = _last(geo.mu), _last(geo.sigma), geo.f_rate
            HW = _halfwidths(geo, gamma, eps).T.reshape(m, n, B) if banded else None  # 0 at eps = 0
        # left endpoints: the previous chunk's last states, then all of this chunk's but its last
        mu, sigma, f = (np.concatenate([a, x[..., :(n - 1) * B]], -1) for a, x in zip(left, right))
        sigma = right[1] if const else sigma  # a constant sigma is its broadcast column
        G = np.exp(_log_returns(mu, sigma, z.reshape(len(z), n * B), dt)).reshape(m, n, B)
        f_terms = (0.5 * (f + right[2][:n * B]) * dt).reshape(n, B)
        left = tuple(x[..., (n - 1) * B:n * B] for x in right)

        for j in range(n):
            step = s0 + j
            t1 = (step + 1) * dt
            Sigma = geo.Sigma[j * B:(j + 1) * B]
            fric_rate += f_terms[j]

            Vi *= G[:, j]
            v_old, V = V, V0 + Vi.sum(axis=1)
            failed = V <= 0.0  # a failed path holds no wealth from then on, so it stays in here
            if lost := failed.any():  # guards: after a path fails, no return and no weights
                V0[failed], Vi.transpose(0, 2, 1)[failed], V[failed] = 0.0, 0.0, 0.0
                x = np.divide(V, v_old, out=np.ones_like(V), where=v_old > 0) - 1.0
                w_pre = np.divide(Vi, V[:, None], out=np.zeros_like(Vi), where=V[:, None] > 0)
            else:
                x, w_pre = V / v_old - 1.0, Vi / V[:, None]
            rel += x
            rel2 += x * x
            err = W[:, j] - w_pre
            f_pre = _quad_form(err, Sigma)
            if lost:  # and no tracking error from its failing step on
                f_pre[failed] = f_post[failed] = 0.0
            de += 0.5 * (f_post + f_pre) * dt
            f_post = f_pre

            # triggers: frictionless every step; before the horizon, time rules on schedule
            # and bands on exit
            trig = fric_rows.copy()
            if t1 < config.horizon - 1e-9:
                if timed:
                    trig[clock] |= t1 >= next_t[clock] - 1e-9 * dt
                if banded:
                    over = np.abs(err[band]) > HW[:, j] * scale[band]
                    traded[band] = over
                    trig[band] |= over.any(axis=1)
            if lost:
                trig &= ~failed

            flat = np.flatnonzero(trig)
            if flat.size:
                si, bi = np.divmod(flat, B)
                rows = j * B + bi  # the traded paths' states in the chunk
                w_star, w, tm = geo.w_star[rows], w_pre[si, :, bi], traded[si, :, bi]
                u, row_rate = w_star, rate[flat]
                if edged:  # trade back to the band edge (err = w_star - w)
                    shift = np.sign(w_star - w) * (HW[:, j, bi].T * scale[si, 0])
                    u = np.where(to_edge[si, None], w_star - shift, w_star)
                sz = _rebalance_batch(w, u, row_rate, tm)
                cost = row_rate * sz
                keep = 1.0 - cost
                w_post = np.where(tm, u, w / keep[:, None])
                v_new = _rows(V)[flat] * keep
                _rows(rel)[flat] -= cost
                _rows(rel2)[flat] += cost * cost
                _rows(tac)[flat] += cost
                _rows(n_trades)[flat] += 1
                Vi[si, :, bi] = w_post * v_new[:, None]
                _rows(V0)[flat] = v_new * (1.0 - w_post.sum(axis=1))
                _rows(V)[flat] = v_new
                gap = (w_star - w_post).T  # a constant Sigma is read as its broadcast column
                _rows(f_post)[flat] = _quad_form(gap, Sigma if const else Sigma[bi])
                broke = flat[keep <= 0.0]  # the trade cost all the wealth: the path fails
                if broke.size:
                    _rows(V0)[broke], Vi[broke // B, :, broke % B], _rows(V)[broke] = 0.0, 0.0, 0.0
                for k, rule in timed:  # a profiled rule reads A* off the rows' w*, Sigma and beta
                    if (mine := si == k).any():
                        r = rows[mine]
                        wait = (eps**rule.alpha * rule.A.of_state(
                            MertonState(gamma, geo.w_star[r], geo.Sigma[r], geo.beta[r]))
                            if k in profiled else rule.waiting_time(ys[j, bi[mine]], eps))
                        _rows(next_t)[flat[mine]] += np.maximum(wait, 0.0)
                if n_rec:
                    dl = np.where(tm, u * keep[:, None] - w, 0.0)
                    for i in np.flatnonzero(bi < n_rec):
                        trade = (step + 1, lo + int(bi[i]), dl[i].copy(), float(sz[i]))
                        rec["trades"][si[i]].append(trade)
            if n_rec:
                rec["growth"][:, step] = G[:, j, :n_rec].T
                rec["wealth"][:, :, step + 1] = V[:, :n_rec]
                rec["positions"][:, :, step + 1] = vi_rec
                w_rec = w_pre[:, :, :n_rec].transpose(0, 2, 1)
                np.minimum(rec["w_pre_min"], w_rec, out=rec["w_pre_min"])
                np.maximum(rec["w_pre_max"], w_rec, out=rec["w_pre_max"])
        s0 += n

    return (rel, rel2, tac, de, n_trades, V <= 0.0), fric_rate / config.horizon, rec


def _worker_pool(n_workers, pool=None):
    """A context that yields ``pool`` when one is given (left open on exit), else a new
    process pool of ``n_workers`` (default start method), shut down on exit, or ``None``
    for one worker."""
    if pool is not None or n_workers <= 1:
        return nullcontext(pool)
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n_workers)


def run_strategies(model, config, strategies, record_paths=0, *, pool=None):
    """Simulate several strategies on shared market draws.

    Returns ``(outcomes, records)`` where ``outcomes`` maps each strategy
    label to a :class:`StrategyOutcome` with per-path arrays in path order,
    and ``records`` holds full ledgers for the first ``record_paths`` paths
    of the run, merged from the blocks in path order (``None`` if zero).
    Blocks of at most ``block_size`` paths, small enough that each of ``n_workers
    > 1`` workers gets one, run in parallel: on ``pool``, an open process pool that
    the caller shuts down, or else on a pool opened and shut down here. Results are
    bit-identical for any worker count, block size and set of companion strategies.
    """
    labels = [s.label for s in strategies]
    if len(set(labels)) != len(labels):
        raise ParameterError("strategy labels must be unique")
    if any(s.kind == "move" for s in strategies) and model.m != 1:
        raise ParameterError(
            "the single-band 'move' strategy needs m == 1; use 'pasted' for "
            "several assets"
        )
    block = min(config.block_size, -(-config.n_paths // max(config.n_workers, 1)))  # one per worker
    if config.antithetic and block % 2:
        block += 1
    bounds = [(lo, min(lo + block, config.n_paths)) for lo in range(0, config.n_paths, block)]

    run_block = partial(_run_block, model, config, strategies, record_upto=record_paths)
    if config.n_workers > 1 and len(bounds) > 1:
        with _worker_pool(min(config.n_workers, len(bounds)), pool) as workers:
            results = list(workers.map(run_block, *zip(*bounds)))
    else:
        results = [run_block(lo, hi) for lo, hi in bounds]

    ledger = [np.concatenate(parts, axis=1) for parts in zip(*(r[0] for r in results))]
    fric = np.concatenate([r[1] for r in results])
    outcomes = {
        label: StrategyOutcome(label, *(a[k] for a in ledger), fric)
        for k, label in enumerate(labels)
    }
    return outcomes, _merge_records(config, labels, [r[2] for r in results if r[2] is not None])


def _merge_records(config, labels, parts):
    """Join the blocks' stacked records in path order and split them by label.

    Weights are positions over wealth (zero where wealth is not positive).
    Trades are listed by step, then path, as one block lists them, so the
    records do not depend on the block size.
    """
    if not parts:
        return None
    times = np.linspace(0.0, config.horizon, config.n_steps + 1)
    merged = PathRecords(times, np.concatenate([r["growth"] for r in parts]))
    cat = {
        name: np.concatenate([r[name] for r in parts], axis=1)
        for name in ("wealth", "positions", "w_pre_min", "w_pre_max")
    }
    pos, wealth = cat.pop("positions"), cat["wealth"][..., None]
    cat["weights"] = np.divide(pos, wealth, out=np.zeros_like(pos), where=wealth > 0)
    for name, stacked in cat.items():
        getattr(merged, name).update(zip(labels, stacked))
    for k, label in enumerate(labels):
        trades = (t for r in parts for t in r["trades"][k])
        merged.trades[label] = sorted(trades, key=lambda t: t[:2])
    return merged


def run_strategy(model, config, strategy, record_paths=0):
    """Simulate a single strategy; see :func:`run_strategies`."""
    outcomes, records = run_strategies(model, config, [strategy], record_paths)
    out = outcomes[strategy.label]
    return (out, records) if record_paths else out
