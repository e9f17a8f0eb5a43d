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

All of these are formed in one function, ``_geometry``, which both
:func:`merton_state` and the simulation engine call. For a ``constant_sigma``
model it takes ``sigma``, ``g``, ``Sigma`` and ``Sigma^{-1}`` formed at one
state: :func:`merton_state` forms them per call, the engine per path block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .markets import _as_batch, _check_finite, evaluate_coefficients, jacobians

__all__ = [
    "MertonState",
    "AssumptionWarning",
    "merton_state",
    "merton_weights",
    "merton_diffusion",
    "beta_matrix",
    "frictionless_rate",
    "l21_norm",
    "tr_beta_sigma_beta",
]


class AssumptionWarning(UserWarning):
    """Raised (as a warning) when target weights short or leverage."""


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
    gamma``) in 1/years. ``mu``, ``sigma`` and ``b`` are the model's
    coefficients at the state, which the simulation engine steps with.
    ``assumption_ok`` is True where the weights neither short nor leverage
    (each component in ``[0, 1)``, total in ``(0, 1]``).
    """

    y: np.ndarray
    gamma: float
    w_star: np.ndarray
    Sigma: np.ndarray
    Sigma_inv: np.ndarray
    sigma_tilde: np.ndarray
    beta: np.ndarray
    f_rate: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    b: np.ndarray

    @property
    def assumption_ok(self):
        w = self.w_star
        total = w.sum(axis=-1)
        return np.all((w >= 0.0) & (w < 1.0), axis=-1) & (total > 0.0) & (total <= 1.0)

    @property
    def beta_l21(self):
        return l21_norm(self.beta)


def merton_state(model, y, gamma):
    """Compute the frictionless target and its diffusion geometry at ``y``.

    ``y`` may be a single state of shape ``(p,)`` (or a scalar for ``p = 1``)
    or a batch ``(n, p)``. Requires ``gamma > 0`` and a positive definite
    covariance at every evaluated state.
    """
    if gamma <= 0:
        raise ParameterError(f"risk aversion must be positive, got gamma={gamma}")
    batch, batched = _as_batch(y, model.p)
    st = _geometry(model, batch, gamma, _constant_block(model, batch))
    if batched:
        return st
    return MertonState(**{k: v if k == "gamma" else v[0] for k, v in vars(st).items()})


def _constant_block(model, y):
    """``(sigma, g, Sigma, Sigma_inv)`` of a ``constant_sigma`` model at the states ``y``.

    They are formed at the first state and broadcast over all of them as
    read-only views; ``None`` for a state-dependent covariance.
    """
    if not model.constant_sigma:
        return None
    c = evaluate_coefficients(model, y[:1])
    return tuple(
        np.broadcast_to(v, (len(y),) + v.shape[1:]) for v in (c.sigma, c.g, c.Sigma, c.Sigma_inv)
    )


def _geometry(model, y, gamma, const):
    """The :class:`MertonState` at the states ``y`` ``(n, p)``: the one formula.

    ``const`` is :func:`_constant_block` of the model at these ``n``
    states. When it is given only ``mu``, its Jacobian and ``b`` are
    evaluated per state, in one ``fused_coeffs`` sweep, and Sigma has no
    Jacobian; otherwise every coefficient is evaluated and Sigma inverted
    at each state. The support and finiteness checks run at every state
    either way. Contractions are fixed-order einsum loops, so a state's
    result depends neither on the batch it sits in nor on which of the two
    ways it was evaluated.
    """
    if const is None:
        c = evaluate_coefficients(model, y)
        dmu, dsig = jacobians(model, y)
        mu, b, sigma, g, Sigma, Sigma_inv = c.mu, c.b, c.sigma, c.g, c.Sigma, c.Sigma_inv
        a = Sigma_inv / gamma
    else:
        model.check_support(y)
        mu, dmu, b = model.fused_coeffs(y)
        _check_finite(mu)
        dsig = None
        sigma, g, Sigma, Sigma_inv = const
        a = np.broadcast_to(Sigma_inv[:1] / gamma, Sigma_inv.shape)  # one division, not n
    # w* = (Sigma^{-1} / gamma) mu, and by the chain rule
    #   dw*/dy_j = (Sigma^{-1} / gamma) (dmu/dy_j - gamma (dSigma/dy_j) w*)
    w = np.einsum("nik,nk->ni", a, mu)
    if dsig is not None:
        dmu = dmu - gamma * np.einsum("nklp,nl->nkp", dsig, w)
    dw = np.einsum("nik,nkp->nip", a, dmu)
    sigma_tilde = np.einsum("nip,npd->nid", dw, g)

    sbar = np.einsum("nm,nmd->nd", w, sigma)
    beta = sigma_tilde - w[:, :, None] * (sigma - sbar[:, None, :])
    f_rate = 0.5 * np.einsum("nm,nm->n", mu, w)
    return MertonState(
        y=y, gamma=gamma, w_star=w, Sigma=Sigma, Sigma_inv=Sigma_inv,
        sigma_tilde=sigma_tilde, beta=beta, f_rate=f_rate, mu=mu, sigma=sigma, b=b,
    )


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
