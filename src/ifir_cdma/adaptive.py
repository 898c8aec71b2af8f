"""Online adaptation of the interpolator/receiver pair.

Four algorithms operate on one received vector at a time:

* trained stochastic gradient (`lms_step`), normalised by default,
* trained exponentially weighted recursive least squares (`rls_step`),
* blind constrained-minimum-variance gradient (`cmv_sg_step`),
* blind CMV recursive least squares (`cmv_rls_step`).

Within a step the output and error are computed with the pre-update
filters, and both filters are updated from those same pre-update
quantities (Jacobi ordering).  State objects are single-owner and
mutated in place; every step returns the scalar the caller needs
(error for trained, output for blind).  Every step takes `adapt_v`;
with it false the interpolator v stays where it is and only w adapts.
Every exponentially weighted inverse-covariance update goes through
`rls_update`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmv import ConstraintSet
from .interpolation import DecimationOperator, ReceiverState, build_re_matrix, impulse

_TINY = 1e-30


def _start(n_i: int, v0: np.ndarray | None, w: np.ndarray,
           unit_norm: bool = False) -> ReceiverState:
    """Initial (v, w): a copy of v0 (the impulse by default), rescaled to
    unit norm for the blind receivers."""
    st = ReceiverState(v=impulse(n_i) if v0 is None else np.asarray(v0, dtype=complex).copy(),
                       w=w)
    if unit_norm:
        st.v = st.v / np.linalg.norm(st.v)
    return st


# ---------------------------------------------------------------------------
# trained algorithms
# ---------------------------------------------------------------------------

@dataclass
class TrainedSgState:
    """Gradient-descent state; mu0/eta0 are convergence factors.

    With `normalized` the effective steps are mu0/||rbar||^2 and
    eta0/||u||^2 (values in (0, 2) keep the normalised recursion
    stable); otherwise mu0/eta0 are used as raw step sizes.
    """

    state: ReceiverState
    dec: DecimationOperator
    mu0: float
    eta0: float
    normalized: bool = True


def make_trained_sg(dec: DecimationOperator, n_i: int, mu0: float, eta0: float,
                    normalized: bool = True, v0: np.ndarray | None = None) -> TrainedSgState:
    return TrainedSgState(state=_start(n_i, v0, np.zeros(dec.m_red, dtype=complex)),
                          dec=dec, mu0=mu0, eta0=eta0, normalized=normalized)


def lms_step(s: TrainedSgState, r: np.ndarray, b: float,
             adapt_v: bool = True) -> complex:
    """One gradient update of both filters; returns the a-priori error.

    e = b - w^H rbar, then v <- v + eta conj(e) u and
    w <- w + mu conj(e) rbar.  A zero-norm regressor skips that filter's
    update (the error is still reported).
    """
    st = s.state
    re = build_re_matrix(r, st.n_i, s.dec)
    u = re @ st.w.conj()
    rbar = re.T @ st.v.conj()
    e = b - np.vdot(st.w, rbar)
    ce = np.conj(e)
    nr = np.real(np.vdot(rbar, rbar))
    nu = np.real(np.vdot(u, u))
    if s.normalized:
        if adapt_v and nu > _TINY:
            st.v = st.v + (s.eta0 / nu) * ce * u
        if nr > _TINY:
            st.w = st.w + (s.mu0 / nr) * ce * rbar
    else:
        if adapt_v:
            st.v = st.v + s.eta0 * ce * u
        st.w = st.w + s.mu0 * ce * rbar
    return complex(e)


@dataclass
class TrainedRlsState:
    """RLS state: p/p_u track the inverse of the weighted sample covariances."""

    state: ReceiverState
    dec: DecimationOperator
    p: np.ndarray
    p_u: np.ndarray
    alpha: float = 0.998
    delta: float = 100.0
    breakdowns: int = 0


def make_trained_rls(dec: DecimationOperator, n_i: int, alpha: float = 0.998,
                     delta: float = 100.0, v0: np.ndarray | None = None) -> TrainedRlsState:
    if not 0 < alpha <= 1:
        raise ValueError("forgetting factor must be in (0, 1]")
    return TrainedRlsState(state=_start(n_i, v0, np.zeros(dec.m_red, dtype=complex)),
                           dec=dec, p=delta * np.eye(dec.m_red, dtype=complex),
                           p_u=delta * np.eye(n_i, dtype=complex),
                           alpha=alpha, delta=delta)


def rls_update(p: np.ndarray, x: np.ndarray, alpha: float, delta: float):
    """Exponentially weighted RLS update of an inverse covariance p.

    With px = p x and denom = alpha + x^H p x, the gain is
    k = px / denom and p <- (p - k px^H) / alpha, re-symmetrised.  A
    non-positive denominator is a breakdown: p restarts at delta*I and
    k is None.  Returns (p, k, px, denom).
    """
    px = p @ x
    denom = alpha + np.real(np.vdot(x, px))
    if denom <= 0:
        return delta * np.eye(p.shape[0], dtype=complex), None, px, denom
    gain = px / denom
    # 0.5 * (q + q^H) with q = (p - outer(gain, px^*)) / alpha, bit for
    # bit, in place on one fresh array.  It stays C-ordered: an F-ordered
    # p would change BLAS's summation order in the next p @ x.
    p = p - gain[:, None] * px.conj()
    p /= alpha
    p += p.conj().T
    p *= 0.5
    return p, gain, px, denom


def rls_step(s: TrainedRlsState, r: np.ndarray, b: float,
             adapt_v: bool = True) -> complex:
    """One exponentially weighted RLS update of both filters.

    `rls_update` advances P with rbar, then w <- w + k conj(xi) with the
    a-priori error xi; the interpolator follows the mirrored recursion
    on u (skipped while u is zero).  Breakdowns are counted in
    `breakdowns`.
    """
    st = s.state
    re = build_re_matrix(r, st.n_i, s.dec)
    u = re @ st.w.conj()
    rbar = re.T @ st.v.conj()
    xi = b - np.vdot(st.w, rbar)
    cxi = np.conj(xi)

    s.p, gain, _, _ = rls_update(s.p, rbar, s.alpha, s.delta)
    if gain is None:
        s.breakdowns += 1
    else:
        st.w = st.w + gain * cxi

    if adapt_v and np.real(np.vdot(u, u)) > _TINY:
        s.p_u, gain_u, _, _ = rls_update(s.p_u, u, s.alpha, s.delta)
        if gain_u is None:
            s.breakdowns += 1
        else:
            st.v = st.v + gain_u * cxi
    return complex(xi)


# ---------------------------------------------------------------------------
# blind channel tracking
# ---------------------------------------------------------------------------

class SgChannelTracker:
    """Running channel estimate for the gradient-based blind receiver.

    Keeps an exponentially weighted estimate of the despread covariance
    C^H E[r r^H] C and applies one whitened power step per symbol,
    g <- (C^H C)^-1 V g, normalised to unit norm.  The desired user's
    energy enters V only along (C^H C) g, so the dominant generalized
    mode is the channel direction; per-step work after the despreading
    is O(L_p^2).
    """

    def __init__(self, c: np.ndarray, alpha: float = 0.998):
        self.c = np.asarray(c, dtype=complex)
        l_p = self.c.shape[1]
        gram = self.c.conj().T @ self.c
        tr = np.trace(gram).real
        self.gram_inv = np.linalg.inv(gram + 1e-10 * (tr / l_p) * np.eye(l_p))
        self.alpha = alpha
        self.v_acc = np.zeros((l_p, l_p), dtype=complex)
        self.g_hat = impulse(l_p)

    def update(self, r: np.ndarray) -> np.ndarray:
        y = self.c.conj().T @ r
        self.v_acc = self.alpha * self.v_acc + np.outer(y, y.conj())
        cand = self.gram_inv @ (self.v_acc @ self.g_hat)
        nrm = np.linalg.norm(cand)
        if nrm > _TINY:
            self.g_hat = cand / nrm
        return self.g_hat


# ---------------------------------------------------------------------------
# blind algorithms
# ---------------------------------------------------------------------------

@dataclass
class BlindSgState:
    """Constrained gradient state; the constraint DC^H w = g_hat is
    re-anchored every step.  g_hat is set as in `BlindRlsState`."""

    state: ReceiverState
    cons: ConstraintSet
    mu0: float
    eta0: float
    normalized: bool = True
    tracker: SgChannelTracker | None = None
    g_hat: np.ndarray = None


def make_blind_sg(cons: ConstraintSet, n_i: int, mu0: float, eta0: float,
                  normalized: bool = True, tracker: SgChannelTracker | None = None,
                  v0: np.ndarray | None = None) -> BlindSgState:
    g0 = np.array(cons.g if tracker is None else tracker.g_hat, dtype=complex)
    w0 = cons.anchor @ g0  # minimum-norm feasible start
    return BlindSgState(state=_start(n_i, v0, w0, unit_norm=True), cons=cons,
                        mu0=mu0, eta0=eta0, normalized=normalized, tracker=tracker, g_hat=g0)


def cmv_sg_step(s: BlindSgState, r: np.ndarray, adapt_v: bool = True) -> complex:
    """One constrained-gradient update; returns the pre-update output x.

    v <- (v - eta conj(x) u) / ||.|| and
    w <- Pi (w - mu conj(x) rbar) + DC (DC^H DC)^-1 g_hat, so the
    constraint DC^H w = g_hat holds exactly after every step.  Normalised
    steps use mu0 / (rbar^H Pi rbar) and eta0 / ||u||^2; a vanishing
    denominator skips that filter's gradient (the constraint re-anchoring
    still runs).
    """
    st = s.state
    cons = s.cons
    if s.tracker is not None:
        s.g_hat = s.tracker.update(r).copy()
    re = build_re_matrix(r, st.n_i, cons.dec)
    u = re @ st.w.conj()
    rbar = re.T @ st.v.conj()
    x = np.vdot(st.w, rbar)
    cx = np.conj(x)

    if adapt_v:
        nu = np.real(np.vdot(u, u))
        if s.normalized:
            eta = s.eta0 / nu if nu > _TINY else 0.0
        else:
            eta = s.eta0
        v_new = st.v - eta * cx * u
        nrm = np.linalg.norm(v_new)
        if nrm > _TINY:
            st.v = v_new / nrm

    pr = cons.pi @ rbar
    npr = np.real(np.vdot(rbar, pr))
    if s.normalized:
        mu = s.mu0 / npr if npr > _TINY else 0.0
    else:
        mu = s.mu0
    st.w = cons.pi @ (st.w - mu * cx * rbar) + cons.anchor @ s.g_hat
    return complex(x)


@dataclass
class BlindRlsState:
    """Blind RLS state.

    p tracks the inverse weighted covariance of rbar; gamma_inv tracks
    (DC^H p DC)^-1 through exact rank-one updates, so the filter
    w = p DC gamma_inv g_hat coincides with the batch constrained solution
    on the same weighted sample covariance.  ru_acc accumulates the u
    covariance for the interpolator shift iteration.  g_hat holds the
    constraint values: the tracker's estimate (refreshed every step) with
    a tracker, else a copy of cons.g that the caller may replace.
    """

    state: ReceiverState
    cons: ConstraintSet
    p: np.ndarray
    gamma_inv: np.ndarray
    ru_acc: np.ndarray
    alpha: float = 0.998
    delta: float = 100.0
    tracker: SgChannelTracker | None = None
    g_hat: np.ndarray = None
    breakdowns: int = 0


def make_blind_rls(cons: ConstraintSet, n_i: int, alpha: float = 0.998,
                   delta: float = 100.0, tracker: SgChannelTracker | None = None,
                   v0: np.ndarray | None = None) -> BlindRlsState:
    if not 0 < alpha < 1:
        raise ValueError("blind RLS needs a forgetting factor in (0, 1)")
    m_red = cons.dec.m_red
    g0 = np.array(cons.g if tracker is None else tracker.g_hat, dtype=complex)
    w0 = cons.anchor @ g0
    return BlindRlsState(state=_start(n_i, v0, w0, unit_norm=True), cons=cons,
                         p=delta * np.eye(m_red, dtype=complex),
                         gamma_inv=cons.gram_inv / delta,
                         ru_acc=(1.0 / delta) * np.eye(n_i, dtype=complex),
                         alpha=alpha, delta=delta,
                         tracker=tracker, g_hat=g0)


def _reinit_gamma(s: BlindRlsState) -> None:
    """Breakdown recovery: recompute gamma_inv = (DC^H p DC)^-1 from p."""
    gamma = s.cons.dc.conj().T @ (s.p @ s.cons.dc)
    s.gamma_inv = np.linalg.inv(0.5 * (gamma + gamma.conj().T))
    s.breakdowns += 1


def cmv_rls_step(s: BlindRlsState, r: np.ndarray, adapt_v: bool = True) -> complex:
    """One blind RLS update; returns the output of the refreshed filter.

    Order per symbol: advance the channel estimate (when tracking);
    accumulate the u covariance and advance the interpolator one shift
    iteration (then renormalise; both skipped without `adapt_v`);
    project with the new interpolator; rank-one update p (`rls_update`)
    and gamma_inv; rebuild w = p DC gamma_inv g_hat.  A breakdown of either
    update (non-positive denominator; p then restarts at delta*I)
    recomputes gamma_inv from p.
    """
    st = s.state
    cons = s.cons
    if s.tracker is not None:
        s.g_hat = s.tracker.update(r).copy()
    re = build_re_matrix(r, st.n_i, cons.dec)
    u = re @ st.w.conj()

    if adapt_v:
        s.ru_acc = s.alpha * s.ru_acc + np.outer(u, u.conj())
        tr_u = np.trace(s.ru_acc).real
        if tr_u <= 0:
            raise np.linalg.LinAlgError("u covariance estimate lost positivity")
        v_new = st.v - (1.0 / tr_u) * (s.ru_acc @ st.v)
        nrm = np.linalg.norm(v_new)
        if nrm > _TINY:
            st.v = v_new / nrm

    rbar = re.T @ st.v.conj()
    s.p, gain, pr, denom = rls_update(s.p, rbar, s.alpha, s.delta)
    z = cons.dc.conj().T @ pr
    giz = s.gamma_inv @ z
    down = denom - np.real(np.vdot(z, giz))
    if gain is None or down <= 0:
        _reinit_gamma(s)
    else:
        s.gamma_inv = s.alpha * (s.gamma_inv + np.outer(giz, giz.conj()) / down)

    st.w = s.p @ (cons.dc @ (s.gamma_inv @ s.g_hat))
    return complex(np.vdot(st.w, rbar))
