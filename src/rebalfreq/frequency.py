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
cost rate is exactly twice the tracking-error rate. ``N``, ``D``, ``A*`` and
the no-leverage check live in :mod:`rebalfreq.merton`, with the geometry they read.

Expectations over the state are means of per-path integrals on simulated
state paths. The paths are the wealth simulator's, stepped as it steps them,
in blocks and chunks, and each chunk's rates are added into per-path running
sums step by step, by the trapezoid the simulator sums its frictionless rate
with. Bit identity: a path's integral is its own steps summed in step order,
so it is the same bits in any block, chunk or range of workers, and for one
model or for several models that share one pass of their common state
process; its frictionless integral is the simulator's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Union

import numpy as np

from . import simulate
from .errors import AssumptionError, ParameterError
from .markets import _as_batch, _checked
from .merton import (_AdaptiveProfile, _constant_block, _geometry, _optimal_A, _rate_parts,
                     l21_norm, merton_state)


ALPHA = 2.0 / 3.0

# Default number of simulated state paths behind expectations over the state.
_GRID_PATHS = 2000


@dataclass(frozen=True)
class DiscretizationRule:
    """Waiting-time generator ``(y, eps) -> eps^alpha * A(y)``.

    ``A`` is either a scalar (``kind="constant"``) or a batched callable of the state
    (``kind="adaptive"``), read by :meth:`A_of` alone. ``alpha``, in ``(0, 2)``, defaults to the
    optimal 2/3 and should only be changed by scaling diagnostics.
    """

    kind: str
    A: Union[float, Callable[[np.ndarray], np.ndarray]]
    alpha: float = ALPHA

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ParameterError(f"waiting-time exponent must lie in (0, 2), got {self.alpha}")

    def reads(self, model, gamma):
        """Whether ``A`` is ``model``'s own ``A*`` at ``gamma``, read off a formed geometry."""
        A = self.A
        return isinstance(A, _AdaptiveProfile) and A.model is model and A.gamma == gamma

    def A_of(self, y, *, model=None, st=None, rows=None, parts=None):
        """``A`` at the states ``y``; :class:`ParameterError` unless positive and finite. Given
        the states' geometry ``st`` and a rule that :meth:`reads` ``model``'s own ``A*``, it is read
        off ``st``, at its ``rows`` or from the ``(N, D)`` formed there
        (:meth:`~rebalfreq.merton._AdaptiveProfile.off`); else it is ``A(y)`` or the constant."""
        if st is not None and self.reads(model, st.gamma):
            return _checked("rule values", self.A.off(st, rows, parts))
        return _checked("rule values", self.A(y) if callable(self.A) else self.A)

    def waiting_time(self, y, epsilon, *, model=None, st=None, rows=None):
        """Time until the next rebalance at the states ``y``, ``eps^alpha A`` in years, with ``A``
        from :meth:`A_of` (which takes the same geometry arguments); :class:`ParameterError`
        unless ``epsilon`` is nonnegative and finite."""
        _checked("epsilon", epsilon, "nonnegative")
        return epsilon**self.alpha * self.A_of(y, model=model, st=st, rows=rows)

    def with_alpha(self, alpha):
        return replace(self, alpha=alpha)


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


def optimal_rule(model, gamma, allow_flagged=False):
    """State-adaptive rule ``A*(y) = (N/D)^(2/3)`` minimising the total cost."""
    return DiscretizationRule(
        kind="adaptive", A=_AdaptiveProfile(model, gamma, allow_flagged)
    )


def cost_breakdown(model, gamma, y, A=None, allow_flagged=False):
    """Leading-order cost rates at ``y`` under rule value ``A`` (default ``A*``)."""
    n, d = rate_parts(model, gamma, y, allow_flagged)
    A = _checked("rule values", _optimal_A(n, d) if A is None else A)
    return CostBreakdown(tac_rate=n / np.sqrt(A), de_rate=0.5 * d * A)


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
            return float(self.tac.mean()), float(self.da.mean())
        a = float(rule.A_of(None))
        return float(self.n.mean()) / np.sqrt(a), a * float(self.d.mean())

    def constant_rule(self):
        """Best state-independent rule: ``A = (E[int N dt] / E[int D dt])^(2/3)``."""
        n, d = float(self.n.mean()), float(self.d.mean())
        return DiscretizationRule("constant", _optimal_A(n, d))

    def total_cost(self, rule=None):
        """Leading-order total cost of ``rule`` (``None``: pointwise optimal)."""
        if rule is None:
            return float(self.opt.mean())
        tac, da = self.rule_integrals(rule)
        return 0.5 * da + tac


def _path_integrals(models, gamma, horizon_T, y0, dt, seed, allow_flagged, rule, lo, hi):
    """Per-path integrals ``(4 or 6, hi - lo)`` of :class:`_RateGrid` on state paths ``lo ..
    hi - 1``, one array for each of ``models``, which share their state process.

    One :func:`rebalfreq.simulate.simulate_state_grid` call runs the engine's block walk (see
    :mod:`rebalfreq.simulate`) and hands each chunk to every model. A model forms the chunk's
    rates in one geometry call, with its constant block formed at the block's start states,
    and adds each step into its per-path sums in step order
    (:func:`rebalfreq.simulate._trapezoid`), as the engine sums the frictionless rate. A
    state-dependent ``rule`` also has its ``N / sqrt(A)`` and ``D * A`` integrated, with ``A`` read
    by :meth:`DiscretizationRule.A_of`: a model's own ``A*`` from the ``N`` and ``D`` just formed.
    Any model's error raises at once and ends the pass for all of them.
    """
    by_state = rule is not None and callable(rule.A)
    out = [np.zeros((6 if by_state else 4, hi - lo)) for _ in models]
    held = [None] * len(models)  # each model's constant block and its rates before the chunk

    def rates(model, const, states):  # (4 or 6, states)
        st = _geometry(model, states, gamma, const)
        n, d = _rate_parts(st, gamma, allow_flagged)
        parts = [n, d, st.f_rate, 1.5 * n ** (2.0 / 3.0) * d ** (1.0 / 3.0)]
        if by_state:
            a = np.broadcast_to(rule.A_of(states, model=model, st=st, parts=(n, d)), n.shape)
            parts += [n / np.sqrt(a), d * a]
        return np.stack(parts)

    def reduce(a, step, ys):  # paths a .. a + B - 1 of the range at steps step .. step + k - 1
        k, B, p = ys.shape
        for i, model in enumerate(models):
            if step == 0:  # a block's start states
                const = _constant_block(model, ys[0])
                held[i] = const, rates(model, const, ys[0])
            else:
                const, left = held[i]
                right = rates(model, const, ys.reshape(k * B, p)).reshape(-1, k, B)
                held[i] = const, simulate._trapezoid(out[i][:, a:a + B], left, right, dt)

    if models[0].p:
        simulate.simulate_state_grid(models[0], horizon_T, dt, hi - lo, y0, seed, lo, reduce)
        return out
    reduce(0, 0, np.zeros((1, 1, 0)))  # one path of one state, held over [0, T]
    return [h[1] * horizon_T for h in held]


def _rate_grid(model, gamma, horizon_T, y0, n_paths, dt, seed, allow_flagged, rule=None,
               n_workers=1, pool=None):
    """Per-path integrals of ``N``, ``D`` and the frictionless rate on simulated state paths.

    :func:`_path_integrals` forms them on the path ranges of ``n_workers``, run by
    :func:`rebalfreq.simulate._on_ranges` (a pooled ``rule`` must pickle). ``model`` may also
    be a tuple of models whose state processes are the same (equal
    :func:`rebalfreq.simulate._state_key`): one pass of the grid serves them all, and a
    tuple of their grids is returned. Raises as :func:`rate_parts` does at the first grid
    state where any model fails; :func:`rebalfreq.evaluate._predictions` alone turns such an
    error into blank table cells.
    """
    simulate._n_steps(horizon_T, dt)  # also for a constant state, integrated as rate * horizon_T
    _checked("gamma", gamma)
    models = model if isinstance(model, tuple) else (model,)
    if len(models) > 1:
        keys = {simulate._state_key(m, y0) for m in models}
        if None in keys or len(keys) > 1:
            raise ParameterError("the models of one grid pass must share their state process")
    task = partial(_path_integrals, models, gamma, horizon_T, y0, dt, seed, allow_flagged, rule)
    n = n_paths if models[0].p else 1  # a constant state is one path
    parts = simulate._on_ranges(task, simulate._ranges(n, n_workers, n, False), n_workers, pool)
    # one model's integrals, range by range
    grids = tuple(_RateGrid(*np.concatenate(ranges, axis=1), rule=rule) for ranges in zip(*parts))
    return grids if isinstance(model, tuple) else grids[0]


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
    for name, value, kind in (("mu", mu, ""), ("sigma", sigma, "positive"),
                              ("gamma", gamma, "positive"), ("epsilon", epsilon, "positive")):
        _checked(name, value, kind)
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
    _checked("epsilon", epsilon)
    _checked("horizon_T", horizon_T)
    if state_path is None and callable(rule.A):
        raise ParameterError("a state-dependent rule needs a state_path")
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
