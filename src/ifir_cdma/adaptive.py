"""Online adaptation of the interpolator/receiver pair.

Four algorithms operate on one received vector at a time:

* trained stochastic gradient (`lms_step`), normalised by default,
* trained exponentially weighted recursive least squares (`rls_step`),
* blind constrained-minimum-variance gradient (`cmv_sg_step`),
* blind CMV recursive least squares (`cmv_rls_step`).

Within a step the output and error are computed with the pre-update
filters.  The trained steps update both filters from those same
pre-update quantities (Jacobi ordering).  The blind steps update v and
then w, each onto its own hyperplane of the one constraint on the
channel-combined signature (see `cmv`), so the constraint holds after
every step.  State objects are single-owner and mutated in place; every
step returns the scalar the caller needs (error for trained, output for
blind).  Every step takes `adapt_v`; with it false the interpolator v
stays where it is and only w adapts.  Every exponentially weighted
inverse-covariance update goes through `rls_update`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmv import ConstraintSet
from .interpolation import DecimationOperator, ReceiverState, build_re_matrix, impulse

_TINY = 1e-30


def _start(n_i: int, v0: np.ndarray | None, w: np.ndarray) -> ReceiverState:
    """Initial (v, w): a copy of v0 (the impulse by default) and w."""
    return ReceiverState(v=impulse(n_i) if v0 is None else np.asarray(v0, dtype=complex).copy(),
                         w=w)


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
        self.inv_gram = np.linalg.inv(gram + 1e-10 * (tr / l_p) * np.eye(l_p))
        self.alpha = alpha
        self.v_acc = np.zeros((l_p, l_p), dtype=complex)
        self.g_hat = impulse(l_p)

    def update(self, r: np.ndarray) -> np.ndarray:
        y = self.c.conj().T @ r
        self.v_acc = self.alpha * self.v_acc + np.outer(y, y.conj())
        cand = self.inv_gram @ (self.v_acc @ self.g_hat)
        nrm = np.linalg.norm(cand)
        if nrm > _TINY:
            self.g_hat = cand / nrm
        return self.g_hat


# ---------------------------------------------------------------------------
# blind algorithms
# ---------------------------------------------------------------------------

@dataclass
class BlindState:
    """What both blind receivers share: the one constraint on p = C g_hat.

    g_hat starts at cons.g, or at the tracker's estimate, and re_p, the
    segment matrix of p, is recomputed from the once-per-run gather
    `segs = cons.segments(n_i)` only when g_hat changes.  w starts at the
    minimum-norm filter meeting the constraint.
    """

    state: ReceiverState
    cons: ConstraintSet
    tracker: SgChannelTracker | None

    def __post_init__(self):
        self.segs = self.cons.segments(self.state.n_i)
        self._constrain(self.cons.g if self.tracker is None else self.tracker.g_hat)
        a_w = self.re_p.T @ self.state.v.conj()
        self.state.w = a_w / np.vdot(a_w, a_w).real

    def _constrain(self, g: np.ndarray | None) -> None:
        """Hold the constraint at new values g; None keeps the current ones."""
        if g is not None:
            self.g_hat = np.array(g, dtype=complex)
            self.re_p = (self.segs @ self.g_hat).reshape(self.state.n_i, -1)


@dataclass
class BlindSgState(BlindState):
    """Constrained gradient state; mu0/eta0 as in `TrainedSgState`."""

    mu0: float
    eta0: float
    normalized: bool = True


def make_blind_sg(cons: ConstraintSet, n_i: int, mu0: float, eta0: float,
                  normalized: bool = True, tracker: SgChannelTracker | None = None,
                  v0: np.ndarray | None = None) -> BlindSgState:
    return BlindSgState(state=_start(n_i, v0, None), cons=cons, tracker=tracker,
                        mu0=mu0, eta0=eta0, normalized=normalized)


def _projected_descent(f: np.ndarray, grad: np.ndarray, cx: complex, a: np.ndarray,
                       step0: float, normalized: bool) -> np.ndarray:
    """f - step conj(x) grad, projected onto a^H f = 1.  The normalised step
    is step0 / (grad^H Pi grad) with Pi = I - a a^H / ||a||^2; a vanishing
    denominator skips the gradient (the projection still runs)."""
    aa = np.vdot(a, a).real
    ag = np.vdot(a, grad)
    if normalized:
        den = np.vdot(grad, grad).real - abs(ag) ** 2 / aa
        step0 = step0 / den if den > _TINY else 0.0
    step = step0 * cx
    # the projection adds the multiple of a that restores a^H f = 1
    return f - step * grad + ((1.0 - np.vdot(a, f) + step * ag) / aa) * a


def cmv_sg_step(s: BlindSgState, r: np.ndarray, adapt_v: bool = True,
                g: np.ndarray | None = None) -> complex:
    """One constrained-gradient update; returns the pre-update output x.

    `g`, when given, replaces the constraint values first (a tracker's
    estimate does so every step).  Then v takes a gradient step on
    |x|^2 projected onto v^H a_v = 1, a_v = Re_p conj(w), and w one
    projected onto w^H a_w = 1, a_w = Re_p^T conj(v) with the new v, so
    the constraint holds exactly after every step.  Both gradients use
    the pre-update output.
    """
    s._constrain(g if s.tracker is None else s.tracker.update(r))
    st = s.state
    re = build_re_matrix(r, st.n_i, s.cons.dec)
    rbar = re.T @ st.v.conj()
    x = np.vdot(st.w, rbar)
    cx = np.conj(x)
    if adapt_v:
        wc = st.w.conj()
        st.v = _projected_descent(st.v, re @ wc, cx, s.re_p @ wc, s.eta0, s.normalized)
    st.w = _projected_descent(st.w, rbar, cx, s.re_p.T @ st.v.conj(), s.mu0, s.normalized)
    return complex(x)


@dataclass
class BlindRlsState(BlindState):
    """Blind RLS state: p and p_u track the inverse weighted covariances of
    rbar and u, as in `TrainedRlsState`."""

    p: np.ndarray
    p_u: np.ndarray
    alpha: float = 0.998
    delta: float = 100.0
    breakdowns: int = 0


def make_blind_rls(cons: ConstraintSet, n_i: int, alpha: float = 0.998,
                   delta: float = 100.0, tracker: SgChannelTracker | None = None,
                   v0: np.ndarray | None = None) -> BlindRlsState:
    if not 0 < alpha < 1:
        raise ValueError("blind RLS needs a forgetting factor in (0, 1)")
    return BlindRlsState(state=_start(n_i, v0, None), cons=cons, tracker=tracker,
                         p=delta * np.eye(cons.dec.m_red, dtype=complex),
                         p_u=delta * np.eye(n_i, dtype=complex), alpha=alpha, delta=delta)


def _min_variance(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """p a / (a^H p a): the filter meeting a^H f = 1 with the least
    variance on the covariance whose inverse is p."""
    pa = p @ a
    return pa / np.vdot(a, pa).real


def cmv_rls_step(s: BlindRlsState, r: np.ndarray, adapt_v: bool = True,
                 g: np.ndarray | None = None) -> complex:
    """One blind RLS update; returns the output of the refreshed filter.

    After `g` (as in `cmv_sg_step`): `rls_update` advances p_u with u and
    v <- p_u a_v / (a_v^H p_u a_v) (both skipped without `adapt_v`);
    then it advances p with rbar of the new v, and
    w <- p a_w / (a_w^H p a_w).  A breakdown (non-positive denominator;
    that inverse restarts at delta*I) is counted in `breakdowns`.
    """
    s._constrain(g if s.tracker is None else s.tracker.update(r))
    st = s.state
    re = build_re_matrix(r, st.n_i, s.cons.dec)
    if adapt_v:
        wc = st.w.conj()
        s.p_u, gain_u, _, _ = rls_update(s.p_u, re @ wc, s.alpha, s.delta)
        s.breakdowns += gain_u is None
        st.v = _min_variance(s.p_u, s.re_p @ wc)
    rbar = re.T @ st.v.conj()
    s.p, gain, _, _ = rls_update(s.p, rbar, s.alpha, s.delta)
    s.breakdowns += gain is None
    st.w = _min_variance(s.p, s.re_p.T @ st.v.conj())
    return complex(np.vdot(st.w, rbar))
