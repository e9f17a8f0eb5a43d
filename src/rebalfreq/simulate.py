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

Randomness is counter-based: path ``k`` draws its Gaussian increments from a
Philox stream keyed by ``(seed, k)``; under antithetic sampling, where a block
holds whole pairs, an odd path is the sign flip of its even partner's stream
``(seed, k // 2)`` (:class:`_BlockNormals`). One driver, :func:`_state_path`,
pairs these streams with the Euler step: it yields a block's tapes and the
states after their steps, chunk by chunk, to the engine, the state grid and
the single-path API alike, and one trapezoid, :func:`_trapezoid`, sums a rate
along them step by step for the engine's frictionless rate and the state grid's
integrals. Strategies of one run share the market draws, which
sharpens their comparison, and one ledger: its results and records are arrays by name over
(strategy, path), paths last. The block walk: paths run in blocks of at most ``_BLOCK``, and a
block of ``B`` paths from its start states, then in chunks of ``K = max(1, _CHUNK // B)`` steps
(fewer where a drawn chunk ends) in step order. The engine's market pass (:func:`_market_pass`)
forms the geometry, band widths and growth of a chunk's ``k B`` states at once; its ledger
(:func:`_run_block`) reads step slices of these.

Bit identity: a path's draws depend only on the seed and its index, and every
step acts on each path alone, elementwise or by sums in one fixed order. So a
path's states, growth and ledger, and a state grid's paths, are the same bits
whatever the block, chunk, worker or companion strategies, and any single path
can be reproduced in isolation; results are joined in path order.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .markets import _check_finite, _checked
from .merton import _constant_block, _fixed_sum, _geometry, _last, _no_leverage, merton_state

if TYPE_CHECKING:
    from .frequency import DiscretizationRule


def _n_steps(horizon, dt):
    """The number of ``dt`` steps in ``horizon``: :class:`ParameterError` unless ``dt`` is positive
    and finite and ``horizon`` a finite whole number of at least one step."""
    _checked("dt", dt)
    ratio = horizon / dt
    if not (np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 and round(ratio) >= 1):
        raise ParameterError(f"horizon must be a whole number (>= 1) of dt steps, got {horizon}")
    return int(round(ratio))


@dataclass(frozen=True)
class SimulationConfig:
    """Grid, cost, preference, and reproducibility settings for one run.

    ``horizon`` holds a whole number of ``dt`` steps, at least one (:func:`_n_steps`);
    initial wealth is normalised to one. ``antithetic`` pairs path ``2k+1`` with the
    sign-flipped draws of path ``2k`` (requires an even ``n_paths``). ``n_workers``
    only spreads the engine's path blocks and the prediction grid's path ranges over
    worker processes; it never changes results. ``n_paths``, ``seed`` and ``n_workers``
    are integers (Python or numpy, not bool), and ``seed`` lies in ``[0, 2**64)``.
    ``allow_flagged`` governs the rules, grids and band-width functions that
    :mod:`rebalfreq.evaluate` and :mod:`rebalfreq.cli` build from the config. The engine's bands
    never check it; a time rule checks its own flag, at the states it trades at.
    """

    horizon: float
    dt: float
    n_paths: int
    epsilon: float
    gamma: float
    y0: Optional[np.ndarray] = None
    seed: int = 0
    antithetic: bool = False
    n_workers: int = 1
    allow_flagged: bool = False

    def __post_init__(self):
        _n_steps(self.horizon, self.dt)
        if not 0.0 <= self.epsilon < 0.5:
            raise ParameterError("epsilon must lie in [0, 0.5)")
        for name in ("n_paths", "seed", "n_workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise ParameterError("n_paths must be >= 1")
        _checked("gamma", self.gamma)
        if self.antithetic and self.n_paths % 2:
            raise ParameterError("antithetic sampling requires an even n_paths")
        if not 0 <= self.seed < 2**64:  # the first word of a path's Philox key
            raise ParameterError(f"seed must be a nonnegative integer below 2**64, got {self.seed}")
        if self.n_workers < 1:
            raise ParameterError("n_workers must be >= 1")

    @property
    def n_steps(self):
        return _n_steps(self.horizon, self.dt)


@dataclass(frozen=True)
class Strategy:
    """A rebalancing policy.

    Kinds: ``time`` (rebalance to the target on a pre-announced schedule
    from ``rule``), ``buy_hold`` (set up the target once, never trade),
    ``pasted`` (trade an asset when its weight leaves a band around its
    target, with the univariate band applied per asset independently),
    ``move`` (the one-asset case of the ``pasted`` band policy), and
    ``frictionless`` (trade to the target every grid step at zero cost;
    benchmark). A band strategy trades an asset that leaves its band back to
    the nearest band edge (at zero cost, to the target).
    """

    kind: str
    label: str
    rule: Optional[DiscretizationRule] = None

    def __post_init__(self):
        if self.kind not in ("time", "buy_hold", "move", "pasted", "frictionless"):
            raise ParameterError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "time" and self.rule is None:
            raise ParameterError("time-based strategies need a discretization rule")


def _move_fault(kinds, m):  # why strategy kinds cannot run on m assets, or None
    if "move" in kinds and m != 1:
        return "the single-band 'move' strategy needs m == 1; use 'pasted' for several assets"


def time_based(rule, label=None):
    return Strategy(kind="time", label=label or f"time_{rule.kind}", rule=rule)


def buy_and_hold(label="buy_hold"):
    return Strategy(kind="buy_hold", label=label)


def move_based(label="move"):
    return Strategy(kind="move", label=label)


def pasted_move_based(label="pasted"):
    return Strategy(kind="pasted", label=label)


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
    _checked("epsilon", epsilon)
    st = merton_state(model, y, gamma)
    _no_leverage(st, allow_flagged)
    return _halfwidths(st, gamma, epsilon)


# ---------------------------------------------------------------------------
# trade-size fixed point
# ---------------------------------------------------------------------------

def rebalance_solve(d, w_star, epsilon):
    """Solve for the traded weight fractions when rebalancing to ``w_star``.

    ``d = w_star - w_pre`` is the weight gap just before the trade. Solves
    the scalar fixed point ``s = sum_i |d_i - eps w*_i s|`` to 1e-14 by iteration
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
    _checked("epsilon", epsilon, "nonnegative")
    if epsilon == 0.0:
        return d.copy(), 0.0
    traded = np.ones((1, d.size), dtype=bool)
    s = _rebalance_batch((u - d)[None], u[None], epsilon, traded)[0]
    return u * (1.0 - epsilon * s) - (u - d), float(epsilon * s)


def _rebalance_batch(w_pre, u, epsilon, traded, max_iter=200):
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
            converged = np.abs(s_new - sp) < 1e-14
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

_BLOCK = 2048  # paths per block of the engine and of the state grid, at most


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

    Each lane that owns a stream (every lane, or under antithetic sampling the
    even paths') keeps its own generator for the life of the block. The
    lane-major buffer holds one chunk of these lanes, each continuing its stream
    where the previous chunk stopped, so chunk size never affects the numbers;
    it only bounds memory. ``tape`` copies the lanes into their columns and
    negates each into its odd partner's. The spent chunk is released before the
    next is drawn, so a block never holds two.
    """

    def __init__(self, seed, lo, hi, d, antithetic, chunk=128):
        from numpy.random import Generator, Philox

        if antithetic and (lo % 2 or (hi - lo) % 2):
            raise ParameterError("an antithetic block must hold whole pairs of paths")
        self.d, self.chunk, self.n = d, chunk, hi - lo
        self._step = 2 if antithetic else 1
        key, zero = _lane_key(), np.zeros(4, dtype=np.uint64)  # an array skips Philox's parse of 0
        self._gens = [Generator(Philox(key(seed, k // self._step), counter=zero))
                      for k in range(lo, hi, self._step)]
        self._buf, self._pos = None, 0

    def tape(self, n_left, k):
        """A tape of normals for the next ``k`` steps of the ``n_left`` left (fewer where the
        drawn chunk ends), a contiguous ``(d, k, B)``: factor, then step, then path. One
        transposed copy fills the drawing lanes' columns and one negation their mirrors'."""
        if self._buf is None or self._pos >= self._buf.shape[1]:
            self._buf = None  # release the spent chunk before drawing the next
            self._buf, self._pos = np.empty((len(self._gens), min(self.chunk, n_left), self.d)), 0
            for gen, out in zip(self._gens, self._buf):  # (lanes, steps, d)
                gen.standard_normal(out=out)
        part = self._buf[:, self._pos:self._pos + k].transpose(2, 1, 0)
        z = np.empty(part.shape[:2] + (self.n,))
        z[..., ::self._step] = part
        if self._step == 2:
            np.negative(z[..., ::2], out=z[..., 1::2])
        self._pos += z.shape[1]
        return z


def _default_y0(model, y0):
    """The start state: ``y0``, which must hold ``p`` finite values (else :class:`ParameterError`)
    inside the model's support box (else :class:`DomainError`), or the model's default."""
    if y0 is not None:
        arr = np.atleast_1d(np.asarray(y0, dtype=float))
        if arr.shape != (model.p,) or not np.all(np.isfinite(arr)):
            raise ParameterError(f"y0 must hold the model's {model.p} finite state values")
        model.check_support(arr)
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
    the support box, step ``j``'s into ``out[j]``; returns the last. A ``constant_sigma`` model's
    ``g``, read at the first state, gives the diffusion terms of all ``K`` steps in one go."""
    def shock(g, z):  # g z sqrt(dt), states last
        return _fixed_sum((g[:, i] * z[i] for i in range(len(z))), 2) * np.sqrt(dt)

    shocks = shock(_last(model.g(y[:1]))[..., None], z) if model.constant_sigma else None
    for j in range(z.shape[1]):
        dw = shock(_last(model.g(y)), z[:, j]) if shocks is None else shocks[:, j]
        y = out[j] = _reflect(y + model.b(y) * dt + dw.T, model.support)
    return y


def _log_returns(mu, sigma, z, dt):
    """Asset log increments ``(m, n)`` over one step, coefficients at the left endpoint;
    paths last (``sigma`` may be a constant ``(m, d, 1)``), sums in einsum's fixed order."""
    rownorm2 = _fixed_sum((sigma[:, j] * sigma[:, j] for j in range(len(z))), 2)
    shock = _fixed_sum((sigma[:, j] * z[j] for j in range(len(z))), 2)
    return (mu - 0.5 * rownorm2) * dt + shock * np.sqrt(dt)


def _state_path(model, seed, lo, hi, antithetic, y, n_steps, dt):
    """Paths ``lo .. hi - 1`` from the states ``y`` ``(B, p)`` in the block walk's chunks: yields
    each chunk's tape ``z`` ``(d, k, B)`` and the states after its steps, ``(k, B, p)``."""
    source = _BlockNormals(seed, lo, hi, model.d, antithetic)
    K, step = max(1, _CHUNK // (hi - lo)), 0
    while step < n_steps:
        z = source.tape(n_steps - step, K)
        k = z.shape[1]
        ys = np.empty((k, hi - lo, model.p))
        y = _euler(model, y, z, dt, ys) if model.p else y
        yield z, ys
        step += k


def _state_key(model, y0):
    """A key that two models share only if their state grids are equal: everything the Euler
    step reads (``d``, ``p``, the support, the start state and the parameters of ``b`` and
    ``g``), or ``None`` for a model that does not name the parameters of ``b`` and ``g``."""
    params = model._state_params()
    if params is None:
        return None
    support = None if model.support is None else model.support.tobytes()
    return type(model), model.d, model.p, support, _default_y0(model, y0).tobytes(), params


def _trapezoid(total, left, right, dt):
    """Add each step's ``0.5 (left + right) dt`` into the per-path sums ``total`` ``(..., B)``,
    in step order: ``right`` ``(..., k, B)`` holds the values after each of ``k`` steps, ``left``
    those before the first. Returns the last step's values, the next chunk's ``left``."""
    lefts = np.concatenate([left[..., None, :], right[..., :-1, :]], axis=-2)
    for term in np.moveaxis(0.5 * (lefts + right) * dt, -2, 0):
        total += term
    return right[..., -1, :]


def simulate_state_grid(model, horizon, dt, n_paths, y0=None, seed=0, first=0, _reduce=None):
    """Euler paths of the state variable alone on the grid of :func:`_n_steps` steps.

    Returns ``(times, states)``, ``states`` ``(n_paths, n_steps + 1, p)`` of paths ``first ..
    first + n_paths - 1``. Path ``k`` draws the stream ``(seed, k)`` through the wealth
    simulator's Euler step: it is the simulator's path ``k`` at the same seed, or under
    antithetic sampling its path ``2k``, the even path of pair ``k``. The paths run in the
    block walk (module docstring); each block's start states (``step`` 0) and chunks go to
    ``_reduce(lo, step, ys)``, ``ys`` ``(k, B, p)`` being the states at steps ``step .. step +
    k - 1`` of paths ``lo .. lo + B - 1`` of the grid. The default ``_reduce`` stores them;
    with another, ``states`` is ``None`` and no more than one chunk is held.
    """
    n_steps = _n_steps(horizon, dt)
    times = np.linspace(0.0, horizon, n_steps + 1)
    y0 = _default_y0(model, y0)
    states = None if _reduce else np.empty((n_paths, n_steps + 1, model.p))
    if _reduce is None:
        def _reduce(lo, step, ys):
            states[lo:lo + ys.shape[1], step:step + len(ys)] = ys.transpose(1, 0, 2)
    for lo, hi in _ranges(n_paths, 1, _BLOCK, False):
        y = np.tile(y0, (hi - lo, 1))
        _reduce(lo, 0, y[None])
        step = 1
        for _, ys in _state_path(model, seed, first + lo, first + hi, False, y, n_steps, dt):
            _reduce(lo, step, ys)
            step += len(ys)
    return times, states


def simulate_market_path(model, config, path_index):
    """One market path: ``(times, states, log_returns)``, bit-reproducible.

    ``states`` has shape ``(n_steps + 1, p)`` and ``log_returns`` has shape
    ``(n_steps, m)``; the pair ``(config.seed, path_index)`` fully
    determines the output, which equals the engine's for that path. Under
    antithetic sampling the path is drawn with its partner, as a pair; the
    block walk's chunks are joined.
    """
    if not 0 <= path_index < config.n_paths:
        raise ParameterError(f"path_index must lie in [0, {config.n_paths}), got {path_index}")
    n_steps = config.n_steps
    times = np.linspace(0.0, config.horizon, n_steps + 1)
    pair = 2 if config.antithetic else 1
    lo = path_index - path_index % pair
    col = path_index - lo
    y0 = _default_y0(model, config.y0)[None]
    zs, yss = zip(*_state_path(model, config.seed, lo, lo + pair, config.antithetic,
                               np.repeat(y0, pair, axis=0), n_steps, config.dt))
    states = np.concatenate([y0, *(ys[:, col] for ys in yss)])
    left = states[:-1]
    model.check_support(left)
    mu, sigma = model.mu(left), model.sigma(left)
    _check_finite(mu, sigma)
    z = np.concatenate(zs, axis=1)[:, :, col]
    return times, states, _log_returns(_last(mu), _last(sigma), z, config.dt).T


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
    """Full ledgers of the first few paths: block arrays joined in path order with the ledger."""

    times: np.ndarray
    growth: np.ndarray  # (K, n_steps, m) asset growth factors, shared
    wealth: dict  # label -> (K, n_steps + 1)
    weights: dict  # label -> (K, n_steps + 1, m), post-trade
    w_pre_min: dict  # label -> (K, m)
    w_pre_max: dict
    trades: dict  # label -> list of (step, path, DeltaL, s)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

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


def _market_pass(model, config, lo, hi, with_beta, banded):
    """The market of paths ``lo .. hi - 1`` in the block walk. Yields the start states
    ``(B, p)``, their geometry and the per-path sums by :class:`StrategyOutcome` field name,
    complete once the pass is spent (``frictionless_path``: the frictionless rate's time
    average, its :func:`_trapezoid` integral divided by ``T``); then per chunk its states ``ys``
    ``(k, B, p)``, their geometry, targets ``W``, growth ``G`` from each step's left-endpoint
    coefficients and, if ``banded``, band half-widths ``HW``, all three ``(m, k, B)``. A bad
    state raises before its chunk is yielded."""
    m, p, B, dt, gamma = model.m, model.p, hi - lo, config.dt, config.gamma
    y = np.tile(_default_y0(model, config.y0), (B, 1))
    const = _constant_block(model, y)
    first = _geometry(model, y, gamma, const, with_beta)
    sums = {"frictionless_path": np.zeros(B)}
    yield y, first, sums
    f_left, left, geo = first.f_rate, (_last(first.mu), _last(first.sigma)), None
    for z, ys in _state_path(model, config.seed, lo, hi, config.antithetic, y, config.n_steps, dt):
        n = len(ys)  # steps in this chunk
        if p or geo is None:  # a state that never moves keeps its first chunk's geometry
            geo = _geometry(model, ys.reshape(n * B, p), gamma, const, with_beta)
            W = _last(geo.w_star).reshape(m, n, B)
            right = _last(geo.mu), _last(geo.sigma)
            HW = _halfwidths(geo, gamma, config.epsilon).T.reshape(m, n, B) if banded else None
        # left endpoints: the previous chunk's last states, then all of this chunk's but its last
        mu, sigma = (np.concatenate([a, x[..., :(n - 1) * B]], -1) for a, x in zip(left, right))
        sigma = right[1] if const else sigma  # a constant sigma is its broadcast column
        G = np.exp(_log_returns(mu, sigma, z.reshape(len(z), n * B), dt)).reshape(m, n, B)
        f_left = _trapezoid(sums["frictionless_path"], f_left, geo.f_rate[:n * B].reshape(n, B), dt)
        left = tuple(x[..., (n - 1) * B:n * B] for x in right)
        yield ys, geo, W, G, HW
    sums["frictionless_path"] /= config.horizon


def _run_block(model, config, strategies, lo, hi, record_upto):
    """The ledgers of all ``S`` strategies on one :func:`_market_pass` of paths ``lo .. hi - 1``,
    stacked ``(S, B)`` and ``(S, m, B)``, paths last; trades use rows ``strategy * B + path``.
    Returns the ``(S, B)`` ledger and the pass's ``(B,)`` sums by :class:`StrategyOutcome` field
    name, the records of the paths below ``record_upto`` by name, and each strategy's trades."""
    n_steps, m, dt, eps = config.n_steps, model.m, config.dt, config.epsilon
    S, B, const = len(strategies), hi - lo, model.constant_sigma
    n_rec = max(0, min(record_upto, hi) - lo)
    is_band = np.array([s.kind in ("move", "pasted") for s in strategies])
    fric = np.array([s.kind == "frictionless" for s in strategies])
    rate = np.repeat(np.where(fric, 0.0, eps), B)
    timed = [(k, s.rule) for k, s in enumerate(strategies) if s.kind == "time"]
    banded = is_band.any()
    # beta is formed only if read: by the bands, or by a time rule's A* off the step's geometry
    with_beta = banded or any(r.reads(model, config.gamma) for _, r in timed)
    edged = banded and eps > 0  # at eps = 0 the band edge is the target
    band, clock = _run_of(is_band), _run_of(np.array([s.kind == "time" for s in strategies]))
    fric_rows = np.repeat(fric[:, None], B, axis=1)

    market = _market_pass(model, config, lo, hi, with_beta, banded)
    y, first, sums = next(market)
    Vi = np.repeat(first.w_star.T[None], S, axis=0)
    V0, V = 1.0 - Vi.sum(axis=1), np.ones((S, B))
    rel, rel2, tac, de, f_post = (np.zeros((S, B)) for _ in range(5))
    n_trades = np.zeros((S, B), dtype=np.int64)
    traded = np.ones((S, m, B), dtype=bool)  # band rows are set at each step
    next_t = np.full((S, B), np.inf)
    for k, rule in timed:
        next_t[k] = rule.waiting_time(y, eps, model=model, st=first)

    rec = dict(growth=np.empty((n_steps, m, n_rec)), wealth=np.ones((S, n_steps + 1, n_rec)),
               positions=np.repeat(Vi[:, None, :, :n_rec], n_steps + 1, axis=1),
               w_pre_min=Vi[..., :n_rec].copy(), w_pre_max=Vi[..., :n_rec].copy())
    trades = [[] for _ in strategies]

    step = 0
    for ys, geo, W, G, HW in market:
        for j in range(len(ys)):
            t1 = (step + 1) * dt
            Sigma = geo.Sigma[j * B:(j + 1) * B]

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
                    over = np.abs(err[band]) > HW[:, j]
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
                if edged:  # band rows trade back to the band edge (err = w_star - w)
                    shift = np.sign(w_star - w) * HW[:, j, bi].T
                    u = np.where(is_band[si, None], w_star - shift, w_star)
                sz = _rebalance_batch(w, u, row_rate, tm)
                cost = row_rate * sz
                keep = 1.0 - cost
                w_post = np.where(tm, u, w / keep[:, None])
                v_new = V.reshape(-1)[flat] * keep
                rel.reshape(-1)[flat] -= cost
                rel2.reshape(-1)[flat] += cost * cost
                tac.reshape(-1)[flat] += cost
                n_trades.reshape(-1)[flat] += 1
                Vi[si, :, bi] = w_post * v_new[:, None]
                V0.reshape(-1)[flat] = v_new * (1.0 - w_post.sum(axis=1))
                V.reshape(-1)[flat] = v_new
                gap = (w_star - w_post).T  # a constant Sigma is read as its broadcast column
                f_post.reshape(-1)[flat] = _quad_form(gap, Sigma if const else Sigma[bi])
                broke = flat[keep <= 0.0]  # the trade cost all the wealth: the path fails
                if broke.size:
                    V0.reshape(-1)[broke] = V.reshape(-1)[broke] = 0.0
                    Vi[broke // B, :, broke % B] = 0.0
                for k, rule in timed:  # at the traded rows of the chunk's geometry
                    if (mine := si == k).any():
                        next_t.reshape(-1)[flat[mine]] += rule.waiting_time(
                            ys[j, bi[mine]], eps, model=model, st=geo, rows=rows[mine])
                if n_rec:
                    dl = np.where(tm, u * keep[:, None] - w, 0.0)
                    for i in np.flatnonzero(bi < n_rec):
                        trade = (step + 1, lo + int(bi[i]), dl[i].copy(), float(sz[i]))
                        trades[si[i]].append(trade)
            if n_rec:
                rec["growth"][step] = G[:, j, :n_rec]
                rec["wealth"][:, step + 1] = V[:, :n_rec]
                rec["positions"][:, step + 1] = Vi[..., :n_rec]
                np.minimum(rec["w_pre_min"], w_pre[..., :n_rec], out=rec["w_pre_min"])
                np.maximum(rec["w_pre_max"], w_pre[..., :n_rec], out=rec["w_pre_max"])
            step += 1
        del ys, geo, W, G, HW  # let the pass free this chunk as it forms the next

    ledger = dict(rel_sum=rel, rel_sq_sum=rel2, tac=tac, de=de, n_trades=n_trades, failed=V <= 0.0)
    return ledger, sums, rec, trades


def _ranges(n_paths, n_workers, cap, pairs):
    """Paths ``0 .. n_paths - 1`` in ``(lo, hi)`` ranges of one size, the last maybe shorter: at
    most ``cap`` and ``ceil(n_paths / n_workers)`` paths, rounded up to whole pairs if ``pairs``."""
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    size = min(cap, -(-n_paths // n_workers))
    size += size % 2 if pairs else 0
    return [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _worker_pool(n_workers, pool=None):
    """A context that yields ``pool`` if given (left open), else a new process pool of
    ``n_workers`` (default start method), shut down on exit, or ``None`` for one worker."""
    if pool is not None or n_workers <= 1:
        return nullcontext(pool)
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n_workers)


def _on_ranges(fn, ranges, n_workers, pool=None):
    """``[fn(lo, hi) for lo, hi in ranges]``, in this process for one worker or one range,
    else on ``pool``, left open, or on a pool opened and shut down here."""
    if n_workers <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with _worker_pool(min(n_workers, len(ranges)), pool) as workers:
        return list(workers.map(fn, *zip(*ranges)))


def run_strategies(model, config, strategies, record_paths=0, *, pool=None):
    """Simulate several strategies on shared market draws.

    Returns ``(outcomes, records)``: ``outcomes`` maps each strategy label to a
    :class:`StrategyOutcome`, and ``records`` is the :class:`PathRecords` of the first
    ``record_paths`` paths (``None`` if zero). Both are the blocks' arrays joined in path order
    (weights: positions over wealth, zero where it is not positive); trades are sorted by
    step, then path, so neither depends on the block size. The blocks run on ``pool`` if given.
    """
    labels = [s.label for s in strategies]
    if not labels:
        raise ParameterError("no strategies to simulate")
    if len(set(labels)) != len(labels):
        raise ParameterError("strategy labels must be unique")
    if fault := _move_fault([s.kind for s in strategies], model.m):
        raise ParameterError(fault)
    integer = isinstance(record_paths, (int, np.integer)) and not isinstance(record_paths, bool)
    if not integer or record_paths < 0:
        raise ParameterError(f"record_paths must be a nonnegative integer, got {record_paths!r}")
    ranges = _ranges(config.n_paths, config.n_workers, _BLOCK, config.antithetic)
    run_block = partial(_run_block, model, config, strategies, record_upto=record_paths)
    results = _on_ranges(run_block, ranges, config.n_workers, pool)

    ledger, sums, rec = ({name: np.concatenate([r[i][name] for r in results], axis=-1)
                          for name in results[0][i]} for i in (0, 1, 2))  # along the path axis
    outcomes = {label: StrategyOutcome(label, **{name: a[k] for name, a in ledger.items()}, **sums)
                for k, label in enumerate(labels)}
    if not record_paths:
        return outcomes, None
    pos, wealth = rec.pop("positions"), rec["wealth"][:, :, None]
    rec["weights"] = np.divide(pos, wealth, out=np.zeros_like(pos), where=wealth > 0)
    records = PathRecords(
        np.linspace(0.0, config.horizon, config.n_steps + 1), np.moveaxis(rec.pop("growth"), -1, 0),
        **{name: dict(zip(labels, np.moveaxis(a, -1, 1))) for name, a in rec.items()},
        trades={label: sorted((t for r in results for t in r[3][k]), key=lambda t: t[:2])
                for k, label in enumerate(labels)})
    return outcomes, records


def run_strategy(model, config, strategy, record_paths=0):
    """Simulate a single strategy; see :func:`run_strategies`."""
    outcomes, records = run_strategies(model, config, [strategy], record_paths)
    out = outcomes[strategy.label]
    return (out, records) if record_paths else out
