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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import AssumptionError, DegenerateTargetError, ParameterError
from .markets import _as_batch
from .merton import l21_norm, merton_state, tr_beta_sigma_beta

__all__ = [
    "ALPHA",
    "DiscretizationRule",
    "CostBreakdown",
    "rate_parts",
    "cost_breakdown",
    "optimal_rule",
    "constant_rule",
    "total_cost",
    "bs1d_closed_forms",
    "Bs1dClosedForms",
    "schedule_trading_times",
    "check_nondegeneracy",
]

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


@dataclass(frozen=True)
class _RateGrid:
    """``N``, ``D`` and the frictionless rate at every state of a state grid.

    ``states`` is the flat ``(n_states, p)`` array of grid states, path by
    path, and ``n``, ``d``, ``f_rate`` are their values there. ``weights``
    is the trapezoid weight vector of one path, so ``values @ weights``
    integrates a pointwise quantity over ``[0, T]``. A constant-coefficient
    model (``p = 0``) has one state, held over the whole horizon.
    """

    states: np.ndarray
    n: np.ndarray
    d: np.ndarray
    f_rate: np.ndarray
    weights: np.ndarray

    def mean_integral(self, values):
        """``E[int_0^T values dt]`` over the grid's paths."""
        return float((values.reshape(-1, len(self.weights)) @ self.weights).mean())

    def rule_values(self, rule):
        """The rule's ``A`` at every grid state; must be positive."""
        a = np.broadcast_to(np.asarray(rule.A_of(self.states), dtype=float), self.n.shape)
        if np.any(a <= 0):
            raise ParameterError("rule values must be positive")
        return a

    def constant_rule(self):
        """Best state-independent rule: ``A = (E[int N dt] / E[int D dt])^(2/3)``."""
        a = (self.mean_integral(self.n) / self.mean_integral(self.d)) ** (2.0 / 3.0)
        return DiscretizationRule(kind="constant", A=float(a))

    def total_cost(self, rule=None):
        """Leading-order total cost of ``rule`` (``None``: pointwise optimal)."""
        if rule is None:
            return self.mean_integral(1.5 * self.n ** (2.0 / 3.0) * self.d ** (1.0 / 3.0))
        a = self.rule_values(rule)
        return self.mean_integral(0.5 * self.d * a + self.n / np.sqrt(a))


def _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged):
    """Evaluate ``N``, ``D`` and the frictionless rate on simulated state paths.

    The paths come from :func:`rebalfreq.simulate.simulate_state_grid`, which
    uses the same grid and per-path random streams as the wealth simulator,
    so asymptotic and simulated quantities share sampling-error structure.
    Raises as :func:`rate_parts` does at any grid state.
    """
    if model.p == 0:
        states, weights = np.zeros((1, 0)), np.array([float(horizon_T)])
    else:
        from .simulate import simulate_state_grid

        times, grid = simulate_state_grid(model, horizon_T, dt, n_paths, y0, seed)
        states = grid.reshape(-1, model.p)
        weights = np.full(len(times), dt)
        weights[0] = weights[-1] = 0.5 * dt
    st = merton_state(model, states, gamma)
    n, d = _rate_parts(st, gamma, allow_flagged)
    return _RateGrid(states, n, d, st.f_rate, weights)


def constant_rule(model, gamma, horizon_T, y0=None, n_paths=_GRID_PATHS, dt=1.0 / 250.0, seed=0,
                  allow_flagged=False):
    """Best state-independent rule over ``[0, T]``.

    ``A* = (E[int N dt] / E[int D dt])^(2/3)``; the expectations are exact
    for constant-coefficient models (then the rule coincides with
    :func:`optimal_rule` evaluated anywhere) and Monte Carlo estimates over
    ``n_paths`` simulated state paths started at ``y0`` otherwise.
    """
    return _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged).constant_rule()


def total_cost(model, gamma, rule=None, horizon_T=20.0, y0=None, n_paths=_GRID_PATHS,
               dt=1.0 / 250.0, seed=0, allow_flagged=False):
    """Leading-order total cost ``TC`` over ``[0, T]`` (eps-free).

    With ``rule=None`` the pointwise-optimal rule is assumed and the minimal
    cost ``(3/2) E[int N^(2/3) D^(1/3) dt]`` is evaluated directly; with an
    explicit rule the generic integrand ``D/2 * A + N/sqrt(A)`` is used. The
    two paths agree at ``A*`` to floating-point accuracy. Multiply by
    ``eps^(2/3) / T`` for the annualised performance loss.
    """
    grid = _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged)
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
    tracking quadratic form). Exact for constant-coefficient models.
    """
    grid = _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged)
    a = grid.rule_values(rule)
    return grid.mean_integral(grid.n / np.sqrt(a)), grid.mean_integral((grid.d / gamma) * a)


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
