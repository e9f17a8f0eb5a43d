"""Market models: coefficient functions of the state variable and their derivatives.

A model describes ``m`` risky assets driven by ``d`` Brownian factors, with
drift/diffusion coefficients that may depend on an autonomous state variable
of dimension ``p``:

    dS^i / S^i = mu^i(Y) dt + sigma^i(Y) dB,      i = 1..m
    dY         = b(Y) dt + g(Y) dB.

Two concrete families are provided: a constant-coefficient model
(:class:`BlackScholesModel`, ``p = 0``) and a model with mean-reverting
expected returns driven by a scalar state (:class:`TruncatedKimOmbergModel`,
``p = 1``), in which the raw state is passed through a smooth cutoff so the
drift stays bounded.

All coefficient methods are batched: they accept a state array of shape
``(p,)`` or ``(n, p)`` and return arrays with the matching leading dimension.
Models are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCovarianceError, DomainError, InputError, ParameterError


def _smoothstep(t):
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3 on [0, 1]."""
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _smoothstep_integral(t):
    """Antiderivative of the quintic smoothstep, zero at t = 0."""
    return t * t * t * t * (t * (t - 3.0) + 2.5)


def smooth_cutoff(y, y_min, y_max, xi):
    """Smoothly truncated identity: ``(value, derivative)`` at the points ``y``, elementwise.

    Equals ``y`` on ``[y_min + xi, y_max - xi]``, is constant outside
    ``(y_min, y_max)``, and joins the two regimes with a quintic-smoothstep
    ramp of the derivative on each transition band of width ``xi > 0``
    (``y_min + 2 xi < y_max``), so the result is (at least) twice continuously
    differentiable with derivative in ``[0, 1]``. The plateau levels are
    ``y_min + xi/2`` and ``y_max - xi/2``; with bands placed symmetrically
    about a centre ``c`` the map is odd about ``(c, c)``.
    """
    if xi <= 0:
        raise ParameterError(f"cutoff width must be positive, got xi={xi}")
    if not y_min + 2.0 * xi < y_max:
        raise ParameterError(
            f"cutoff bands overlap: need y_min + 2*xi < y_max, got "
            f"[{y_min}, {y_max}] with xi={xi}"
        )
    value, deriv = _cutoff_fast(np.asarray(y, dtype=float), y_min, y_max, xi)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _cutoff_fast(y, y_min, y_max, xi, deriv=True):
    """The map of :func:`smooth_cutoff` on a float array, without its checks.

    Starts from the identity and patches only the off-interior subsets, so
    the common case (state well inside the bands) costs a copy, and no
    masks when every state is. ``deriv=False`` leaves the derivative out
    (``None``) for a caller that reads the value alone. Parameter validation
    is the caller's job.
    """
    value = y.copy()
    slope = np.ones_like(y) if deriv else None
    if y.size and y.min() >= y_min + xi and y.max() <= y_max - xi:
        return value, slope
    below, above = y <= y_min, y >= y_max
    in_lo, in_hi = (y > y_min) & (y < y_min + xi), (y > y_max - xi) & (y < y_max)
    t_lo, t_hi = (y[in_lo] - y_min) / xi, (y[in_hi] - (y_max - xi)) / xi
    value[below], value[above] = y_min + 0.5 * xi, y_max - 0.5 * xi
    value[in_lo] = y_min + 0.5 * xi + xi * _smoothstep_integral(t_lo)
    value[in_hi] = (y_max - xi) + xi * (t_hi - _smoothstep_integral(t_hi))
    if deriv:
        slope[below] = slope[above] = 0.0
        slope[in_lo], slope[in_hi] = _smoothstep(t_lo), 1.0 - _smoothstep(t_hi)
    return value, slope


def _checked(name, x, kind="positive"):
    """``x`` as floats; :class:`ParameterError` naming ``name`` and its first value that is not
    finite and of ``kind``: ``"positive"``, ``"nonnegative"`` or ``""`` (any sign)."""
    a = np.asarray(x, dtype=float)
    ok = np.isfinite(a)
    if kind:
        ok &= (a > 0) if kind == "positive" else (a >= 0)
        kind += " and "
    if not ok.all():
        raise ParameterError(f"{name} must be {kind}finite, got {a[~ok].flat[0]}")
    return a


def _as_batch(y, p):
    """Normalise a state argument to shape (n, p); report whether it was batched."""
    arr = np.asarray(y, dtype=float)
    if p == 0:
        if arr.ndim <= 1:
            return arr.reshape(1, 0), False
        return arr.reshape(len(arr), 0), True
    if arr.ndim == 0:
        if p != 1:
            raise ParameterError(f"scalar state given but model has p={p}")
        return arr.reshape(1, 1), False
    if arr.ndim == 1:
        if arr.shape[0] != p:
            raise ParameterError(f"state has length {arr.shape[0]}, expected {p}")
        return arr.reshape(1, p), False
    if arr.shape[-1] != p:
        raise ParameterError(f"state has trailing dim {arr.shape[-1]}, expected {p}")
    return arr.reshape(-1, p), True


def _n_states(y, p):
    """The number of states in a state argument."""
    return len(_as_batch(y, p)[0])


class MarketModel:
    """Base class for asset/state coefficient functions.

    Subclasses must set ``m`` (assets), ``d`` (Brownian factors), ``p``
    (state dimension), and ``support`` (``(p, 2)`` box or ``None``), and
    implement the batched coefficient methods ``mu``, ``sigma``, ``b``,
    ``g``; with ``has_analytic_jacobians`` also ``dmu_dy`` / ``dsigma_dy``,
    else :func:`jacobians` takes central finite differences.
    """

    m: int
    d: int
    p: int
    support: np.ndarray | None = None
    has_analytic_jacobians = False

    # --- coefficients (must be overridden; shapes are (n, ...)) ---
    def mu(self, y):  # (n, p) -> (n, m)
        raise NotImplementedError

    def sigma(self, y):  # (n, p) -> (n, m, d)
        raise NotImplementedError

    def b(self, y):  # (n, p) -> (n, p)
        raise NotImplementedError

    def g(self, y):  # (n, p) -> (n, p, d)
        raise NotImplementedError

    def fused_coeffs(self, y):
        """``(mu, dmu_dy)`` at the states ``y``; override to share one sweep."""
        return self.mu(y), jacobians(self, y)[0]

    @property
    def constant_sigma(self):
        """True if ``sigma`` and ``g`` do not vary with the state; one state's values serve all."""
        return False

    def _state_params(self):
        """The parameters that ``b`` and ``g`` read, as bytes, or ``None`` where they are not
        named; models with equal ones may share one state grid."""
        return None

    def check_support(self, y):
        """Raise :class:`DomainError` for states outside the declared box."""
        if self.support is None or self.p == 0:
            return
        batch, _ = _as_batch(y, self.p)
        lo, hi = self.support[:, 0], self.support[:, 1]
        if np.any(batch < lo) or np.any(batch > hi):
            raise DomainError(
                f"state outside declared support box {self.support.tolist()}"
            )


class Coefficients(NamedTuple):
    mu: np.ndarray
    sigma: np.ndarray
    g: np.ndarray
    Sigma: np.ndarray
    Sigma_inv: np.ndarray


class _ConstantVolatility(MarketModel):
    """A model whose ``sigma`` and ``g`` are its constant ``sigma_const`` and ``g_const``."""

    has_analytic_jacobians = True
    constant_sigma = True

    def sigma(self, y):
        return np.broadcast_to(self.sigma_const, (_n_states(y, self.p), self.m, self.d)).copy()

    def g(self, y):
        return np.broadcast_to(self.g_const, (_n_states(y, self.p), self.p, self.d)).copy()

    def dsigma_dy(self, y):
        return np.zeros((_n_states(y, self.p), self.m, self.m, self.p))


def _validate_correlation(corr, m):
    corr = np.eye(m) if corr is None else np.asarray(corr, dtype=float)
    if corr.shape != (m, m):
        raise ParameterError(f"correlation matrix must be {m}x{m}, got {corr.shape}")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ParameterError("correlation matrix must be symmetric")
    if np.max(np.abs(np.diag(corr) - 1.0)) > 1e-12:
        raise ParameterError("correlation matrix diagonal must be 1")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(
            "correlation matrix is not positive definite"
        ) from exc
    return corr, chol


class BlackScholesModel(_ConstantVolatility):
    """Constant expected returns and volatilities; no state variable.

    The diffusion matrix is built as ``diag(vol) @ L`` with ``L`` the lower
    Cholesky factor of the correlation matrix, so asset 1 loads only on the
    first Brownian factor, asset 2 on the first two, and so on.
    """

    def __init__(self, mu, vol, correlation=None):
        mu, vol = np.atleast_1d(_checked("mu", mu, "")), np.atleast_1d(_checked("vol", vol))
        if mu.shape != vol.shape or mu.ndim != 1:
            raise ParameterError("mu and vol must be 1-D arrays of equal length")
        self.m = len(mu)
        self.d = self.m
        self.p = 0
        self.correlation, chol = _validate_correlation(correlation, self.m)
        self._mu = mu
        self.vol = vol
        self.sigma_const = vol[:, None] * chol
        self.Sigma_const = self.sigma_const @ self.sigma_const.T
        self.g_const = np.zeros((0, self.d))

    def mu(self, y):
        return np.broadcast_to(self._mu, (_n_states(y, 0), self.m)).copy()

    def b(self, y):
        return np.zeros((_n_states(y, 0), 0))

    def _state_params(self):
        return b""

    def dmu_dy(self, y):
        return np.zeros((_n_states(y, 0), self.m, 0))


class TruncatedKimOmbergModel(_ConstantVolatility):
    """Mean-reverting expected returns driven by one shared scalar state.

    Each asset's expected excess return is a smooth cutoff of the state
    ``Y``, which itself follows a modified Ornstein-Uhlenbeck process

        dY = mean_reversion * (long_run_mean - mu_1(Y)) dt
             + state_vol * (eta dB^1 + sqrt(1 - eta^2) dB^2),

    so the restoring drift uses the truncated value. Volatilities are
    constant; the asset diffusion matrix uses the same lower-triangular
    correlation factorisation as :class:`BlackScholesModel`.

    Cutoff bands default to four stationary standard deviations either side
    of the long-run mean with width ``xi`` of half a standard deviation;
    that keeps the truncation far enough out not to distort moments near the
    mean while bounding all coefficients. Pass explicit ``cutoff_low`` /
    ``cutoff_high`` / ``cutoff_width`` (scalars or per-asset arrays) to
    control the bands, e.g. to enforce weights in (0, 1); a level not given
    keeps its default.
    """

    def __init__(
        self,
        vol,
        mean_reversion,
        long_run_mean,
        state_vol,
        state_correlation,
        correlation=None,
        cutoff_low=None,
        cutoff_high=None,
        cutoff_width=None,
    ):
        vol = np.atleast_1d(_checked("vol", vol))
        if not -1.0 < state_correlation < 1.0:
            raise ParameterError("state_correlation must lie in (-1, 1)")
        self.m = len(vol)
        self.d = max(self.m, 2)
        self.p = 1
        self.vol = vol
        self.mean_reversion = float(_checked("mean_reversion", mean_reversion, "nonnegative"))
        self.long_run_mean = float(_checked("long_run_mean", long_run_mean, ""))
        self.state_vol = float(_checked("state_vol", state_vol, "nonnegative"))
        self.eta = float(state_correlation)

        self.correlation, chol = _validate_correlation(correlation, self.m)
        self.sigma_const = np.zeros((self.m, self.d))
        self.sigma_const[:, : self.m] = vol[:, None] * chol
        self.Sigma_const = self.sigma_const @ self.sigma_const.T
        self.g_const = np.zeros((1, self.d))
        self.g_const[0, 0] = self.state_vol * self.eta
        self.g_const[0, 1] = self.state_vol * np.sqrt(1.0 - self.eta**2)

        stat_sd = (
            self.state_vol / np.sqrt(2.0 * self.mean_reversion)
            if self.mean_reversion > 0 and self.state_vol > 0
            else 0.0
        )
        if (cutoff_low is None or cutoff_high is None) and stat_sd == 0.0:
            raise ParameterError(
                "explicit cutoff levels are required when the state is "
                "deterministic (state_vol == 0 or mean_reversion == 0)"
            )
        cutoff_low = self.long_run_mean - 4.0 * stat_sd if cutoff_low is None else cutoff_low
        cutoff_high = self.long_run_mean + 4.0 * stat_sd if cutoff_high is None else cutoff_high
        if cutoff_width is None:
            cutoff_width = (
                0.5 * stat_sd
                if stat_sd > 0
                else 0.05 * (np.max(np.atleast_1d(cutoff_high)) - np.min(np.atleast_1d(cutoff_low)))
            )
        self.cutoff_low, self.cutoff_high, self.cutoff_width = (
            np.broadcast_to(_checked(name, v, kind), (self.m,)).copy() for name, v, kind in
            (("cutoff_low", cutoff_low, ""), ("cutoff_high", cutoff_high, ""),
             ("cutoff_width", cutoff_width, "positive"))
        )
        for lo, hi, xi in zip(self.cutoff_low, self.cutoff_high, self.cutoff_width):
            if not lo + 2 * xi < hi:
                raise ParameterError("cutoff bands overlap: need low + 2*width < high")
        margin = 10.0 * stat_sd if stat_sd > 0 else np.max(self.cutoff_width)
        self.support = np.array(
            [[np.min(self.cutoff_low) - margin, np.max(self.cutoff_high) + margin]]
        )

    def _cutoffs(self, y):
        """Per-asset (value, derivative) of the truncated state: ``(n, m)`` views
        of arrays with the states last. Assets with the same bands share one
        evaluation."""
        vals, ders = np.empty((self.m, len(y))), np.empty((self.m, len(y)))
        first = {}
        for i, band in enumerate(zip(self.cutoff_low, self.cutoff_high, self.cutoff_width)):
            j = first.setdefault(band, i)
            vals[i], ders[i] = (vals[j], ders[j]) if j < i else _cutoff_fast(y[:, 0], *band)
        return vals.T, ders.T

    def fused_coeffs(self, y):
        """One-sweep evaluation of ``(mu, dmu/dy)`` for the hot loop: the asset drifts and
        their derivatives share the cutoff evaluation."""
        vals, ders = self._cutoffs(y)
        return vals, ders[:, :, None]

    def mu(self, y):
        batch, _ = _as_batch(y, 1)
        vals, _ = self._cutoffs(batch)
        return vals

    def b(self, y):
        batch, _ = _as_batch(y, 1)
        v, _ = _cutoff_fast(batch[:, 0], self.cutoff_low[0], self.cutoff_high[0],
                            self.cutoff_width[0], deriv=False)
        return (self.mean_reversion * (self.long_run_mean - v))[:, None]

    def dmu_dy(self, y):
        batch, _ = _as_batch(y, 1)
        _, ders = self._cutoffs(batch)
        return ders[:, :, None]

    def _state_params(self):  # b reads the first asset's cutoff
        drift = [self.mean_reversion, self.long_run_mean, self.cutoff_low[0],
                 self.cutoff_high[0], self.cutoff_width[0]]
        return np.array(drift).tobytes() + self.g_const.tobytes()


def _spd_inverse(Sigma):
    """Inverse of a batch of SPD matrices via Cholesky; rejects non-PD input."""
    Sigma = np.asarray(Sigma, dtype=float)
    try:
        chol = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(
            "asset covariance matrix is not positive definite"
        ) from exc
    m = Sigma.shape[-1]
    eye = np.broadcast_to(np.eye(m), Sigma.shape)
    z = np.linalg.solve(chol, eye)
    return np.linalg.solve(np.swapaxes(chol, -1, -2), z)


def _check_finite(*coefficients):
    """Raise :class:`DomainError` unless every coefficient value is finite."""
    if not all(np.all(np.isfinite(c)) for c in coefficients):
        raise DomainError("non-finite coefficient evaluation")


def evaluate_coefficients(model, y):
    """Evaluate ``mu``, ``sigma`` and ``g`` (not the state drift ``b``) at a state or a batch.

    Returns a :class:`Coefficients` tuple ``(mu, sigma, g, Sigma, Sigma_inv)``.
    Raises :class:`DomainError` outside the model's support or where ``mu``
    or ``sigma`` is not finite, both checked at every state, and
    :class:`DegenerateCovarianceError` if ``sigma sigma^T`` is not positive
    definite. For ``constant_sigma`` models the covariance is formed, checked
    and inverted once; ``Sigma`` / ``Sigma_inv`` are read-only views of that
    one matrix broadcast over the batch.
    """
    model.check_support(y)
    batch, batched = _as_batch(y, model.p)
    mu = model.mu(batch)
    sigma = model.sigma(batch)
    g = model.g(batch)
    _check_finite(mu, sigma)
    sig = sigma[:1] if model.constant_sigma else sigma
    Sigma = np.einsum("nij,nkj->nik", sig, sig)
    Sigma_inv = _spd_inverse(Sigma)
    if model.constant_sigma:
        shape = (len(batch),) + Sigma.shape[1:]
        Sigma, Sigma_inv = np.broadcast_to(Sigma, shape), np.broadcast_to(Sigma_inv, shape)
    out = Coefficients(mu, sigma, g, Sigma, Sigma_inv)
    if not batched:
        out = Coefficients(*(a[0] for a in out))
    return out


def finite_difference_jacobians(model, y):
    """Central finite-difference Jacobians of mu and Sigma w.r.t. the state.

    Uses step ``h = 1e-6 * max(1, |y_i|)`` per component. Serves both as
    the fallback for models without analytic derivatives and as the
    independent oracle in tests. Returns ``(dmu_dy, dSigma_dy)`` with shapes
    ``(n, m, p)`` and ``(n, m, m, p)``.
    """
    batch, batched = _as_batch(y, model.p)
    n = len(batch)
    dmu = np.zeros((n, model.m, model.p))
    dsig = np.zeros((n, model.m, model.m, model.p))
    for j in range(model.p):
        h = 1e-6 * np.maximum(1.0, np.abs(batch[:, j]))
        up = batch.copy()
        dn = batch.copy()
        up[:, j] += h
        dn[:, j] -= h
        mu_up, mu_dn = model.mu(up), model.mu(dn)
        s_up, s_dn = model.sigma(up), model.sigma(dn)
        Sig_up = np.einsum("nij,nkj->nik", s_up, s_up)
        Sig_dn = np.einsum("nij,nkj->nik", s_dn, s_dn)
        inv2h = 1.0 / (2.0 * h)
        dmu[:, :, j] = (mu_up - mu_dn) * inv2h[:, None]
        dsig[:, :, :, j] = (Sig_up - Sig_dn) * inv2h[:, None, None]
    if not batched:
        return dmu[0], dsig[0]
    return dmu, dsig


def jacobians(model, y):
    """Jacobians ``(dmu_dy, dSigma_dy)`` at a state point or batch.

    Uses the model's analytic derivatives when available, otherwise the
    central finite-difference fallback. ``dSigma_dy`` is symmetric in its
    first two indices.
    """
    batch, batched = _as_batch(y, model.p)
    if model.has_analytic_jacobians:
        dmu = model.dmu_dy(batch)
        dsig = model.dsigma_dy(batch)
    else:
        dmu, dsig = finite_difference_jacobians(model, batch)
        dsig = 0.5 * (dsig + np.swapaxes(dsig, 1, 2))
    if not batched:
        return dmu[0], dsig[0]
    return dmu, dsig


# Required and optional keys of each model kind, besides ``kind``; they are
# the keyword arguments of the kind's class, with ``correlation_file`` read
# into ``correlation``.
_MODEL_KINDS = {
    "black_scholes": (BlackScholesModel, ("mu", "vol"), ("correlation", "correlation_file")),
    "kim_omberg": (
        TruncatedKimOmbergModel,
        ("vol", "mean_reversion", "long_run_mean", "state_vol", "state_correlation"),
        ("correlation", "correlation_file", "cutoff_low", "cutoff_high", "cutoff_width"),
    ),
}


def model_from_config(cfg, base_dir=None):
    """Build a market model from a configuration mapping.

    Expected keys: ``kind`` (``black_scholes`` or ``kim_omberg``), per-asset
    ``mu`` (Black-Scholes only) and ``vol``, and optionally either
    ``correlation`` (nested lists) or ``correlation_file`` (CSV path,
    resolved against ``base_dir``). Kim-Omberg models additionally take
    ``mean_reversion``, ``long_run_mean``, ``state_vol``,
    ``state_correlation``, and optional ``cutoff_low`` / ``cutoff_high`` /
    ``cutoff_width``. A missing required key, a key the kind does not read
    (such as ``mu`` for ``kim_omberg``), and both correlation keys at once
    are :class:`InputError`.
    """
    if not isinstance(cfg, dict):
        raise InputError("model section must be a mapping")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise InputError(f"unknown model.kind: {kind!r} (expected black_scholes or kim_omberg)")
    cls, required, optional = _MODEL_KINDS[kind]
    unread = sorted(set(cfg) - {"kind", *required, *optional})
    if unread:
        raise InputError(f"{kind} models do not read " + ", ".join(f"model.{k}" for k in unread))
    missing = [k for k in required if k not in cfg]
    if missing:
        raise InputError(f"{kind} model missing keys: " + ", ".join(f"model.{k}" for k in missing))
    kwargs = {k: v for k, v in cfg.items() if k != "kind"}
    if "correlation_file" in kwargs:
        if kwargs.get("correlation") is not None:
            raise InputError("give model.correlation or model.correlation_file, not both")
        path = kwargs.pop("correlation_file")
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            kwargs["correlation"] = np.atleast_2d(np.loadtxt(path, delimiter=","))
        except OSError as exc:
            what = "not found" if isinstance(exc, FileNotFoundError) else "cannot be read"
            raise InputError(
                f"correlation matrix file {what}: {path!r}; supply a CSV matrix "
                "via model.correlation_file (comma-separated, one row per line)"
            ) from exc
    return cls(**kwargs)
