"""Frictionless optimal portfolio and the diffusion geometry around it.

The local mean-variance objective is maximised pointwise by the weight
vector ``w* = Sigma^{-1} mu / gamma``. Everything the small-cost frequency
formulas need is derived here:

* ``sigma_tilde`` -- the diffusion coefficient of ``t -> w*(Y_t)``, obtained
  from the chain rule ``(dw*/dy) g(y)``;
* ``beta`` -- the gap between ``sigma_tilde`` and the diffusion coefficient
  of the weights of an untraded (buy-and-hold) portfolio held at ``w*``:
  ``beta^i = sigma_tilde^i - w*^i (sigma^i - sum_k w*^k sigma^k)``.

``beta`` is stored with the sign the definition produces; downstream
formulas consume only row norms and the quadratic form ``tr(beta' Sigma
beta)``, which are sign-insensitive.

All of these are formed in one function, ``_geometry``, which :func:`merton_state`, the
engine and its prediction grid call. For a ``constant_sigma`` model it broadcasts ``sigma``,
``g``, ``Sigma`` and ``Sigma^{-1}`` formed at one state (:func:`_constant_block`) to its
batch: per call in :func:`merton_state`, per path block in the engine and the grid.
Bit identity: all share one formula, summed over the small axes in
einsum's fixed order with the states last (:func:`_fixed_sum`), so a state's
result depends neither on its batch nor on the way it was evaluated.

The optimal rule is read off this geometry too: ``N = sqrt(2/pi) ||beta||_{2,1}``
and ``D = (gamma/2) tr(beta' Sigma beta)`` (:func:`_rate_parts`) give ``A* =
(N/D)^(2/3)`` (:func:`_optimal_A`), at evaluated states or off a geometry the engine or the
grid formed (:class:`_AdaptiveProfile`, read by :class:`~rebalfreq.frequency.DiscretizationRule`).
They and the band widths refuse targets that short or leverage unless ``allow_flagged``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DegenerateTargetError
from .markets import _as_batch, _check_finite, _checked, evaluate_coefficients, jacobians


class AssumptionWarning(UserWarning):
    """Raised (as a warning) when target weights short or leverage."""


def _fixed_sum(terms, lanes=1):
    """Sum ``terms`` (new arrays, summed into) in einsum's order, whatever the layout.

    Lane ``j`` adds every ``lanes``-th term from the ``j``-th, then the lanes are added:
    ``lanes=2`` is numpy's two-lane (x86-64-v2) loop over an innermost summed axis, ``lanes=1``
    its loop over an outer one. A sum of -0.0 terms stays -0.0, where einsum's is +0.0.
    """
    acc = []
    for j, term in enumerate(terms):
        if j < lanes:
            acc.append(term)
        else:
            acc[j % lanes] += term
    for part in acc[1:]:
        acc[0] += part
    return acc[0]


def _last(x):
    """``x`` ``(n, ...)`` states last, or one ``(..., 1)`` column if broadcast over states."""
    return x[0][..., None] if x.strides[0] == 0 and x.size else x.transpose(*range(1, x.ndim), 0)


def l21_norm(a):
    """Sum over rows of Euclidean row norms, batched over leading axes.

    For a matrix this is ``sum_i sqrt(sum_j a_ij^2)``; the row index is the
    second-to-last axis.
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.sum(a * a, axis=-1)).sum(axis=-1)


def tr_beta_sigma_beta(beta, Sigma):
    """Quadratic form ``tr(beta^T Sigma beta)``, batched over leading axes."""
    return np.einsum("...md,...mk,...kd->...", beta, Sigma, beta)


@dataclass(frozen=True)
class MertonState:
    """Everything derived from the frictionless optimiser at a state point.

    Field shapes carry a leading batch axis iff the query did. Units:
    ``Sigma`` in 1/years, ``sigma_tilde`` and ``beta`` in 1/sqrt(years),
    ``f_rate`` (the frictionless objective rate ``mu' Sigma^{-1} mu / 2
    gamma``) in 1/years. ``mu`` and ``sigma`` are the model's coefficients at
    the state, which the engine's growth reads.
    ``assumption_ok`` is True where the weights neither short nor leverage
    (each component in ``[0, 1)``, total in ``(0, 1]``). Rows that :meth:`_AdaptiveProfile.off`
    takes of a geometry hold only the ``w_star``, ``Sigma`` and ``beta`` the rate parts read.
    """

    gamma: float
    w_star: np.ndarray
    Sigma: np.ndarray
    beta: np.ndarray
    Sigma_inv: np.ndarray = None
    sigma_tilde: np.ndarray = None
    f_rate: np.ndarray = None
    mu: np.ndarray = None
    sigma: np.ndarray = None

    @property
    def assumption_ok(self):
        w = self.w_star
        total = w.sum(axis=-1)
        return np.all((w >= 0.0) & (w < 1.0), axis=-1) & (total > 0.0) & (total <= 1.0)


def merton_state(model, y, gamma):
    """Compute the frictionless target and its diffusion geometry at ``y``.

    ``y`` may be a single state of shape ``(p,)`` (or a scalar for ``p = 1``)
    or a batch ``(n, p)``. Requires a positive, finite ``gamma`` and a positive definite
    covariance at every evaluated state.
    """
    _checked("gamma", gamma)
    batch, batched = _as_batch(y, model.p)
    st = _geometry(model, batch, gamma, _constant_block(model, batch))
    return st if batched else MertonState(
        **{k: v if k == "gamma" or v is None else v[0] for k, v in vars(st).items()})


def _constant_block(model, y):
    """``(sigma, g, Sigma, Sigma_inv)`` of a ``constant_sigma`` model (constant ``sigma`` and
    ``g``) at the states ``y``, formed at the first and broadcast over all as read-only views
    (``None`` otherwise). :func:`_geometry` broadcasts them again to its own batch."""
    if not model.constant_sigma:
        return None
    c = evaluate_coefficients(model, y[:1])
    return tuple(
        np.broadcast_to(v, (len(y),) + v.shape[1:]) for v in (c.sigma, c.g, c.Sigma, c.Sigma_inv)
    )


def _geometry(model, y, gamma, const, with_beta=True):
    """The :class:`MertonState` at the states ``y`` ``(n, p)``: the one formula.

    ``const`` is :func:`_constant_block` of the model at any states, broadcast
    here to these ``n``. When it is given, only ``mu`` and its Jacobian are
    evaluated per state, in one ``fused_coeffs`` sweep, and Sigma has no
    Jacobian; otherwise every coefficient is evaluated and Sigma inverted
    at each state. The support and finiteness checks run at every state
    either way. Fields are views of states-last arrays; ``with_beta=False``
    leaves ``sigma_tilde`` and ``beta`` ``None``.
    """
    m = model.m
    if const is None:
        c = evaluate_coefficients(model, y)
        dmu, dsig = jacobians(model, y)
        mu, sigma, g, Sigma, Sigma_inv = c.mu, c.sigma, c.g, c.Sigma, c.Sigma_inv
    else:
        model.check_support(y)
        mu, dmu = model.fused_coeffs(y)
        _check_finite(mu)
        dsig = None
        sigma, g, Sigma, Sigma_inv = (np.broadcast_to(c[:1], (len(y), *c.shape[1:])) for c in const)
    a, mu_, sig = _last(Sigma_inv) / gamma, _last(mu), _last(sigma)  # last axis n or 1
    # w* = (Sigma^{-1} / gamma) mu, and by the chain rule
    #   dw*/dy_j = (Sigma^{-1} / gamma) (dmu/dy_j - gamma (dSigma/dy_j) w*)
    w = _fixed_sum((a[:, k] * mu_[k] for k in range(m)), 2)
    f_rate = 0.5 * _fixed_sum((mu_[k] * w[k] for k in range(m)), 2)
    sigma_tilde = beta = None
    if with_beta:
        dmu = _last(dmu)
        if dsig is not None:
            dmu = dmu - gamma * _fixed_sum((_last(dsig)[:, k] * w[k] for k in range(m)), 2)
        if model.p:
            dw, g = _fixed_sum((a[:, k, None] * dmu[k] for k in range(m)), 2), _last(g)
            st = _fixed_sum(dw[:, j, None] * g[j] for j in range(model.p))
        else:
            st = np.zeros(sig.shape[:2] + w.shape[1:])
        beta = sig - _fixed_sum(w[k] * sig[k] for k in range(m))  # then in place, so a large
        beta *= w[:, None]  # state grid has no temporary beyond beta itself
        beta = np.subtract(st, beta, out=beta)
        sigma_tilde, beta = st.transpose(2, 0, 1), beta.transpose(2, 0, 1)
    return MertonState(gamma=gamma, w_star=w.T, Sigma=Sigma, beta=beta, Sigma_inv=Sigma_inv,
                       sigma_tilde=sigma_tilde, f_rate=f_rate, mu=mu, sigma=sigma)


_SQRT_2_PI = np.sqrt(2.0 / np.pi)


def _no_leverage(st, allow_flagged):
    """Raise :class:`AssumptionError` unless the target weights of the :class:`MertonState`
    ``st`` neither short nor leverage at any state, or ``allow_flagged``."""
    if not allow_flagged and not np.all(st.assumption_ok):
        raise AssumptionError("target weights short or leverage at evaluated states; pass "
                              "allow_flagged=True to proceed anyway")


def _rate_parts(st, gamma, allow_flagged):
    """``(N, D)`` of :func:`rebalfreq.frequency.rate_parts` from a :class:`MertonState`."""
    norm = l21_norm(st.beta)
    if np.any(norm <= 0.0):
        raise DegenerateTargetError("beta vanishes: the target is buy-and-hold and no finite "
                                    "trading frequency is optimal")
    _no_leverage(st, allow_flagged)
    quad = tr_beta_sigma_beta(st.beta, st.Sigma)
    return _SQRT_2_PI * norm, 0.5 * gamma * quad


def _optimal_A(n, d):
    """The optimal rule ``A* = (N/D)^(2/3)`` from its rate parts."""
    return (n / d) ** (2.0 / 3.0)


@dataclass(frozen=True)
class _AdaptiveProfile:
    """Picklable callable ``y -> A*(y)`` (lets rules cross process boundaries); :meth:`of_state`
    reads it off a :class:`MertonState` of this model and gamma."""

    model: object
    gamma: float
    allow_flagged: bool = False

    def of_state(self, st):
        return _optimal_A(*_rate_parts(st, self.gamma, self.allow_flagged))

    def off(self, st, rows=None, parts=None):
        """``A*`` off a geometry ``st`` of this model and gamma that a caller formed: at its
        ``rows`` (all if ``None``), or from the rate parts ``(N, D)`` formed there, under this
        profile's own no-leverage check."""
        if parts is not None:
            _no_leverage(st, self.allow_flagged)
            return _optimal_A(*parts)
        if rows is not None:
            st = MertonState(self.gamma, st.w_star[rows], st.Sigma[rows], st.beta[rows])
        return self.of_state(st)

    def __call__(self, y):
        return self.of_state(merton_state(self.model, y, self.gamma))


def merton_weights(model, y, gamma):
    """Target weights ``Sigma^{-1}(y) mu(y) / gamma``.

    Emits an :class:`AssumptionWarning` (never clips) when any evaluated
    state shorts or leverages; use :func:`merton_state` to inspect the flag
    programmatically.
    """
    st = merton_state(model, y, gamma)
    if not np.all(st.assumption_ok):
        warnings.warn(
            "target weights short or leverage at some evaluated states "
            "(components outside [0, 1) or total outside (0, 1])",
            AssumptionWarning,
            stacklevel=2,
        )
    return st.w_star


def merton_diffusion(model, y, gamma):
    """Diffusion coefficient of the target-weight process, shape (m, d)."""
    return merton_state(model, y, gamma).sigma_tilde


def beta_matrix(model, y, gamma):
    """Target-versus-drift diffusion gap, shape (m, d); rows in asset order."""
    return merton_state(model, y, gamma).beta


def frictionless_rate(model, y, gamma):
    """Annualised frictionless objective rate ``mu' Sigma^{-1} mu / (2 gamma)``."""
    return merton_state(model, y, gamma).f_rate
