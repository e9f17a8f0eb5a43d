"""Closed-form leading-order rebalancing frequencies and their costs.

With proportional cost ``eps``, waiting times between rebalances are
parametrised as ``eps^(2/3) * A`` for a positive process ``A``. The exponent
2/3 is the unique choice that balances the leading orders of transaction
costs and tracking error, and is hard-fixed here; other exponents appear
only in the scaling diagnostics of :mod:`rebalfreq.evaluate`.

Writing ``N(y) = sqrt(2/pi) ||beta(y)||_{2,1}`` and ``D(y) = (gamma/2)
tr(beta' Sigma beta)(y)``, the leading-order total cost of a rule ``A``
over ``[0, T]`` (per unit of ``eps^(2/3)``) is

    TC(A) = E[ integral_0^T  D(y)/2 * A + N(y) / sqrt(A)  dt ],

minimised pointwise by ``A*(y) = (N(y)/D(y))^(2/3)`` with minimal cost
``(3/2) E[ integral N^(2/3) D^(1/3) dt ]``. At the optimum the transaction
cost rate is exactly twice the tracking-error rate.

Expectations over the state are means of per-path integrals on simulated
state paths, drawn with the wealth simulator's per-path streams and Euler
step and reduced block by block as they are drawn. Bit identity: each path's
integral is one trapezoid row reduction of that path's values, so it is the
same bits whether the paths are drawn in one call or in ranges over workers,
in drawing or reduction blocks of any size, and for one model or for several
models that share one pass of their common state process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import AssumptionError, DegenerateTargetError, ParameterError, RebalfreqError
from .markets import _as_batch
from .merton import l21_norm, merton_state, tr_beta_sigma_beta


ALPHA = 2.0 / 3.0

_SQRT_2_PI = np.sqrt(2.0 / np.pi)

# Default number of simulated state paths behind expectations over the state.
_GRID_PATHS = 2000


@dataclass(frozen=True)
class DiscretizationRule:
    """Waiting-time generator ``(y, eps) -> eps^alpha * A(y)``.

    ``A`` is either a scalar (``kind="constant"``) or a batched callable of
    the state (``kind="adaptive"``). ``alpha`` defaults to the optimal 2/3
    and should only be changed by scaling diagnostics.
    """

    kind: str
    A: Union[float, Callable[[np.ndarray], np.ndarray]]
    alpha: float = ALPHA

    def A_of(self, y):
        if callable(self.A):
            return self.A(y)
        return self.A

    def waiting_time(self, y, epsilon):
        """Time until the next rebalance, in years."""
        return epsilon**self.alpha * self.A_of(y)

    def with_alpha(self, alpha):
        if not 0.0 < alpha < 2.0:
            raise ParameterError("waiting-time exponent must lie in (0, 2)")
        return DiscretizationRule(self.kind, self.A, alpha)


@dataclass(frozen=True)
class CostBreakdown:
    """Leading-order cost rates per unit time, before the eps^(2/3) factor.

    ``tac_rate = N / sqrt(A)`` and ``de_rate = D/2 * A``; at the optimal
    ``A*`` the first is exactly twice the second.
    """

    tac_rate: np.ndarray
    de_rate: np.ndarray

    @property
    def tc_rate(self):
        return self.tac_rate + self.de_rate


def rate_parts(model, gamma, y, allow_flagged=False):
    """Numerator ``N`` and denominator ``D`` of the optimal-rule formula.

    Returns ``(N, D)`` with ``N = sqrt(2/pi) ||beta||_{2,1}`` and
    ``D = (gamma/2) tr(beta' Sigma beta)``, batched like ``y``. Raises
    :class:`AssumptionError` at states whose target weights short or
    leverage unless ``allow_flagged``, and :class:`DegenerateTargetError`
    where ``beta`` vanishes (buy-and-hold target; the small-cost regime
    does not apply).
    """
    return _rate_parts(merton_state(model, y, gamma), gamma, allow_flagged)


def _rate_parts(st, gamma, allow_flagged):
    """``(N, D)`` of :func:`rate_parts` from an evaluated :class:`MertonState`."""
    norm = l21_norm(st.beta)
    if np.any(norm <= 0.0):
        raise DegenerateTargetError(
            "beta vanishes: the target is buy-and-hold and no finite "
            "trading frequency is optimal"
        )
    if not allow_flagged and not np.all(st.assumption_ok):
        raise AssumptionError(
            "target weights short or leverage at evaluated states; pass "
            "allow_flagged=True to proceed anyway"
        )
    quad = tr_beta_sigma_beta(st.beta, st.Sigma)
    return _SQRT_2_PI * norm, 0.5 * gamma * quad


@dataclass(frozen=True)
class _AdaptiveProfile:
    """Picklable callable ``y -> A*(y)`` (lets rules cross process boundaries); :meth:`of_state`
    reads it off a :class:`~rebalfreq.merton.MertonState` of this model and gamma."""

    model: object
    gamma: float
    allow_flagged: bool = False

    def of_state(self, st):
        n, d = _rate_parts(st, self.gamma, self.allow_flagged)
        return (n / d) ** (2.0 / 3.0)

    def __call__(self, y):
        return self.of_state(merton_state(self.model, y, self.gamma))


def optimal_rule(model, gamma, allow_flagged=False):
    """State-adaptive rule ``A*(y) = (N/D)^(2/3)`` minimising the total cost."""
    return DiscretizationRule(
        kind="adaptive", A=_AdaptiveProfile(model, gamma, allow_flagged)
    )


def cost_breakdown(model, gamma, y, A=None, allow_flagged=False):
    """Leading-order cost rates at ``y`` under rule value ``A`` (default ``A*``)."""
    n, d = rate_parts(model, gamma, y, allow_flagged)
    if A is None:
        A = (n / d) ** (2.0 / 3.0)
    A = np.asarray(A, dtype=float)
    if np.any(A <= 0):
        raise ParameterError("rule values must be positive")
    return CostBreakdown(tac_rate=n / np.sqrt(A), de_rate=0.5 * d * A)


# Paths per drawing block of the prediction grid, each reduced to per-path integrals before
# the next is drawn: 20 MiB of one-factor states at T = 20. A smaller block holds less, but
# each block pays the Euler step's per-step overhead again.
_GRID_DRAW = 512

# States per block of the grid's reduction, whose geometry is a few MiB.
_GRID_BLOCK = 1 << 14

# States per path range of a pooled grid: 64 MiB of one-factor states, 1677 paths of
# T = 20 at dt = 1/250.
_GRID_TASK = 1 << 23


def _mean(per_path):
    return float(per_path.mean())


@dataclass(frozen=True)
class _RateGrid:
    """Per-path integrals over ``[0, T]`` on a state grid, each ``(n_paths,)``.

    ``n``, ``d``, ``f_rate`` and ``opt`` integrate ``N``, ``D``, the frictionless
    rate and the optimal cost rate ``1.5 N^(2/3) D^(1/3)``; ``tac`` and ``da``
    integrate ``N / sqrt(A)`` and ``D * A`` for the state-dependent ``rule`` the
    grid was built with (``None`` without one). A constant-coefficient model
    (``p = 0``) has one path of one state, held over ``[0, T]``.
    """

    n: np.ndarray
    d: np.ndarray
    f_rate: np.ndarray
    opt: np.ndarray
    tac: np.ndarray = None
    da: np.ndarray = None
    rule: object = None

    def rule_integrals(self, rule):
        """``(E[int N/sqrt(A) dt], E[int D*A dt])`` of a constant rule or of the grid's own."""
        if callable(rule.A):
            if rule is not self.rule:
                raise ParameterError("the grid holds no integrals of this state-dependent rule")
            return _mean(self.tac), _mean(self.da)
        a = float(rule.A)
        if not a > 0:
            raise ParameterError("rule values must be positive")
        return _mean(self.n) / np.sqrt(a), a * _mean(self.d)

    def constant_rule(self):
        """Best state-independent rule: ``A = (E[int N dt] / E[int D dt])^(2/3)``."""
        a = (_mean(self.n) / _mean(self.d)) ** (2.0 / 3.0)
        return DiscretizationRule(kind="constant", A=float(a))

    def total_cost(self, rule=None):
        """Leading-order total cost of ``rule`` (``None``: pointwise optimal)."""
        if rule is None:
            return _mean(self.opt)
        tac, da = self.rule_integrals(rule)
        return 0.5 * da + tac


def _block_integrals(model, gamma, allow_flagged, rule, states, weights):
    """Per-path integrals ``(4 or 6, paths)`` of :class:`_RateGrid` on ``states``, the states
    of whole paths, path after path, with the trapezoid ``weights`` of one path."""
    st = merton_state(model, states, gamma)
    n, d = _rate_parts(st, gamma, allow_flagged)
    parts = [n, d, st.f_rate, 1.5 * n ** (2.0 / 3.0) * d ** (1.0 / 3.0)]
    if rule is not None and callable(rule.A):
        a = np.broadcast_to(np.asarray(rule.A_of(states), dtype=float), n.shape)
        if np.any(a <= 0):
            raise ParameterError("rule values must be positive")
        parts += [n / np.sqrt(a), d * a]
    # a row-wise add.reduce: a matrix-vector product's bits depend on the row count
    return [np.add.reduce(v.reshape(-1, len(weights)) * weights, axis=1) for v in parts]


def _path_integrals(models, gamma, horizon_T, y0, dt, seed, allow_flagged, rule, lo, hi):
    """Per-path integrals ``(4 or 6, hi - lo)`` of :class:`_RateGrid` on state paths ``lo ..
    hi - 1``, one array for each of ``models``, which share their state process.

    One :func:`rebalfreq.simulate.simulate_state_grid` call draws the paths ``_GRID_DRAW`` at
    a time, and each drawn block is reduced for every model, ``_GRID_BLOCK`` states of whole
    paths at a time, before the next is drawn. A model whose evaluation raises a package
    error gets that error in place of its array. A state-dependent ``rule`` also has its
    ``N / sqrt(A)`` and ``D * A`` integrated, with ``A`` from ``rule.A_of``.
    """
    p = models[0].p
    rows = 6 if rule is not None and callable(rule.A) else 4
    out = [np.empty((rows, hi - lo if p else 1)) for _ in models]
    if p:
        weights = np.full(int(round(horizon_T / dt)) + 1, dt)
        weights[0] = weights[-1] = 0.5 * dt
    else:  # one path of one state, held over [0, T]
        weights = np.array([float(horizon_T)])

    def reduce(first, block):  # paths first .. first + len(block) - 1 of the range
        step = max(1, _GRID_BLOCK // len(weights))  # whole paths
        for i in range(first, first + len(block), step):
            paths = block[i - first:i - first + step]
            states = paths.reshape(len(paths) * len(weights), p)
            for k, model in enumerate(models):
                if not isinstance(out[k], RebalfreqError):
                    try:
                        out[k][:, i:i + len(paths)] = _block_integrals(
                            model, gamma, allow_flagged, rule, states, weights)
                    except RebalfreqError as exc:
                        out[k] = exc

    if p:
        from .simulate import simulate_state_grid

        simulate_state_grid(models[0], horizon_T, dt, hi - lo, y0, seed, _GRID_DRAW, lo, reduce)
    else:
        reduce(0, np.zeros((1, 1, 0)))
    return out


def _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged, rule=None,
               n_workers=1, pool=None):
    """Per-path integrals of ``N``, ``D`` and the frictionless rate on simulated state paths.

    With one worker :func:`_path_integrals` forms them all in this process. With
    ``n_workers > 1`` the workers of ``pool`` (or of a pool opened and shut down here)
    form them on contiguous path ranges, at least one per worker and each of at most
    ``_GRID_TASK`` states, joined in path order; a pooled ``rule`` must pickle. ``model``
    may also be a tuple of models whose state processes are the same (equal
    :func:`rebalfreq.simulate._state_key`): one pass of the grid serves them all, and a
    tuple holds each model's grid, or the package error its evaluation raised. Raises as
    :func:`rate_parts` does at any grid state.
    """
    from .simulate import _state_key, _worker_pool

    models = model if isinstance(model, tuple) else (model,)
    if len(models) > 1:
        keys = {_state_key(m, y0) for m in models}
        if None in keys or len(keys) > 1:
            raise ParameterError("the models of one grid pass must share their state process")
    task = partial(_path_integrals, models, gamma, horizon_T, y0, dt, seed, allow_flagged, rule)
    if n_workers <= 1 or models[0].p == 0:
        parts = [task(0, n_paths)]
    else:
        width = int(round(horizon_T / dt)) + 1  # states per path
        size = min(max(1, _GRID_TASK // width), -(-n_paths // n_workers))
        bounds = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
        with _worker_pool(n_workers, pool) as workers:
            parts = list(workers.map(task, *zip(*bounds)))
    grids = []
    for ranges in zip(*parts):  # one model's integrals, range by range
        failed = [r for r in ranges if isinstance(r, RebalfreqError)]
        grids.append(failed[0] if failed else
                     _RateGrid(*np.concatenate(ranges, axis=1), rule=rule))
    if isinstance(model, tuple):
        return tuple(grids)
    if isinstance(grids[0], RebalfreqError):
        raise grids[0]
    return grids[0]


def constant_rule(model, gamma, horizon_T, y0=None, n_paths=_GRID_PATHS, dt=1.0 / 250.0, seed=0,
                  allow_flagged=False):
    """Best state-independent rule over ``[0, T]``.

    ``A* = (E[int N dt] / E[int D dt])^(2/3)``; the expectations are exact
    for constant-coefficient models (then the rule coincides with
    :func:`optimal_rule` evaluated anywhere) and Monte Carlo estimates over
    ``n_paths`` simulated state paths started at ``y0`` otherwise, as means of
    per-path integrals.
    """
    return _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged).constant_rule()


def total_cost(model, gamma, rule=None, horizon_T=20.0, y0=None, n_paths=_GRID_PATHS,
               dt=1.0 / 250.0, seed=0, allow_flagged=False):
    """Leading-order total cost ``TC`` over ``[0, T]`` (eps-free).

    With ``rule=None`` the pointwise-optimal rule is assumed and the minimal
    cost ``(3/2) E[int N^(2/3) D^(1/3) dt]`` is evaluated directly; a constant
    rule ``A`` costs ``A/2 E[int D dt] + E[int N dt] / sqrt(A)``, and a
    state-dependent one the mean of its per-path integrals of
    ``D/2 * A + N/sqrt(A)``. The forms agree at ``A*`` to floating-point
    accuracy. Each expectation is a mean of per-path integrals. Multiply by
    ``eps^(2/3) / T`` for the annualised performance loss.
    """
    grid = _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged, rule)
    return grid.total_cost(rule)


def lemma_constants(model, gamma, rule, horizon_T, y0=None, n_paths=_GRID_PATHS, dt=1.0 / 250.0,
                    seed=0, allow_flagged=False):
    """Limiting constants of the small-cost expansions under a given rule.

    Returns ``(tac_constant, de_constant)`` where expected transaction costs
    behave like ``eps^(1 - alpha/2) * tac_constant`` and the tracking-error
    integral like ``eps^alpha * de_constant``:

        tac_constant = E[ int_0^T N(Y) / sqrt(A(Y)) dt ],
        de_constant  = E[ int_0^T (D(Y) / gamma) * A(Y) dt ],

    with ``N``, ``D`` as in :func:`rate_parts` (so ``D/gamma`` is half the
    tracking quadratic form). The expectations are means of per-path
    integrals, with a constant ``A`` taken out of the integral. Exact for
    constant-coefficient models.
    """
    grid = _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged, rule)
    tac, da = grid.rule_integrals(rule)
    return tac, da / gamma


@dataclass(frozen=True)
class Bs1dClosedForms:
    """Single-asset constant-coefficient specialisations."""

    w_star: float
    A_star: float
    waiting_time: float
    time_based_loss_rate: float
    move_based_loss_rate: float
    ratio: float


def bs1d_closed_forms(mu, sigma, gamma, epsilon):
    """Closed forms for one asset with constant ``mu`` and ``sigma``.

    Requires target weight ``w* = mu / (gamma sigma^2)`` strictly inside
    ``(0, 1)``. Returns the optimal ``A*``, the waiting time
    ``eps^(2/3) A*``, the annualised leading-order losses of the optimal
    time-based rule and of the optimal threshold (move-based) rule, and
    their universal ratio ``(12/pi)^(1/3)``.
    """
    if gamma <= 0:
        raise ParameterError("risk aversion must be positive")
    if sigma <= 0:
        raise ParameterError("volatility must be positive")
    if epsilon <= 0:
        raise ParameterError("cost rate must be positive")
    w = mu / (gamma * sigma**2)
    if not 0.0 < w < 1.0:
        raise AssumptionError(f"target weight w*={w:.4g} outside (0, 1)")
    k = w * (1.0 - w)
    a_star = (np.sqrt(8.0 / np.pi) / (gamma * sigma**3 * k)) ** (2.0 / 3.0)
    time_loss = sigma**2 * (27.0 / (8.0 * np.pi) * gamma * epsilon**2 * k**4) ** (1.0 / 3.0)
    move_loss = sigma**2 * (9.0 / 32.0 * gamma * epsilon**2 * k**4) ** (1.0 / 3.0)
    return Bs1dClosedForms(
        w_star=w,
        A_star=float(a_star),
        waiting_time=float(epsilon ** (2.0 / 3.0) * a_star),
        time_based_loss_rate=float(time_loss),
        move_based_loss_rate=float(move_loss),
        ratio=float(time_loss / move_loss),
    )


def schedule_trading_times(rule, epsilon, horizon_T, state_path=None):
    """Trading times ``tau_0 = 0, tau_j = tau_{j-1} + eps^alpha A(y)``.

    ``state_path`` maps a time to the state there (callable), or is a fixed
    state (array) for frozen/constant-coefficient settings, or ``None`` for
    constant rules. The sequence is strictly increasing, starts at 0, and is
    truncated before the first time ``>= T``.
    """
    if epsilon <= 0:
        raise ParameterError("cost rate must be positive")
    if callable(state_path):
        state_at = state_path
    else:
        state_at = lambda t: state_path  # noqa: E731 - fixed state
    times = [0.0]
    t = 0.0
    while True:
        dt = float(np.asarray(rule.waiting_time(state_at(t), epsilon)))
        if not dt > 0:
            raise ParameterError(f"rule produced non-positive waiting time {dt}")
        t = t + dt
        if t >= horizon_T:
            break
        times.append(t)
    return np.array(times)


def check_nondegeneracy(model, gamma, sample_states):
    """Diagnostic: is ``beta`` bounded away from zero on sampled states?

    Reports the minimal ``||beta||_{2,1}`` over the samples, the analytic
    lower bound ``min(w*1 w*2) * sigma_22`` available for two-asset models
    with a triangular diffusion matrix (``None`` when it does not apply,
    e.g. if a sampled weight is nonpositive), and a pass flag (min > 0).
    """
    batch, _ = _as_batch(sample_states, model.p)
    if len(batch) == 0:
        raise ParameterError("sample_states must be nonempty")
    st = merton_state(model, batch, gamma)
    norms = l21_norm(st.beta)
    bound = None
    if model.m == 2:
        off = st.sigma[:, 1, 1]
        w1, w2 = st.w_star[:, 0], st.w_star[:, 1]
        if np.all(w1 > 0) and np.all(w2 > 0) and np.all(off > 0):
            bound = float(np.min(w1 * w2 * off))
    min_norm = float(np.min(norms))
    return {
        "n_samples": int(len(batch)),
        "min_beta_l21": min_norm,
        "analytic_bound": bound,
        "all_assumption_ok": bool(np.all(st.assumption_ok)),
        "passes": bool(min_norm > 0.0),
    }
