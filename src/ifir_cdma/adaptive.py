"""Online adaptation of the interpolator/receiver pair.

Four algorithms operate on one received vector at a time:

* trained stochastic gradient (`lms_step`), normalised by default,
* trained exponentially weighted recursive least squares (`rls_step`),
* blind constrained-minimum-variance gradient (`cmv_sg_step`),
* blind CMV recursive least squares (`cmv_rls_step`).

Each rule has one state type, `SgState` or `RlsState`; a blind state is
the trained one plus the one constraint on the channel-combined
signature (see `cmv`).  `_gradient` is the one gradient update (blind, it
takes reference 0 and projects back onto the constraint), `_rls_filter`
the one trained RLS filter update and `rls_update` the one
inverse-covariance update.  Within a step the output and error are
computed with the pre-update filters.  The trained steps update both
filters from those same pre-update quantities (Jacobi ordering).  The
blind steps take their constraint values g from the caller, as the
trained steps take their reference symbol, and update v and then w, each
onto its own hyperplane of the constraint, so the constraint holds after
every step.  States are single-owner and mutated in place; the trained
steps return the a-priori error, the blind steps nothing.  Every step
takes `adapt_v`; with it false the interpolator v stays where it is and
only w adapts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmv import ConstraintSet
from .interpolation import DecimationOperator, ReceiverState, build_re_matrix, impulse

_TINY = 1e-30


# ---------------------------------------------------------------------------
# update kernels and states
# ---------------------------------------------------------------------------

def _gradient(f: np.ndarray, x: np.ndarray, ce: complex, step0: float, normalized: bool,
              a: np.ndarray | None = None) -> np.ndarray:
    """f + step conj(e) x, given ce = conj(e).

    The step is step0, or step0 / (x^H Pi x) when normalised, Pi being
    the projector off the constraint vector a (I without one); a
    vanishing denominator skips the gradient.  With a, the multiple of a
    that restores a^H f = 1 is added, also when the gradient is skipped.
    """
    if a is None:
        if normalized:
            den = np.vdot(x, x).real
            if den <= _TINY:
                return f
            step0 = step0 / den
        return f + (step0 * ce) * x
    aa = np.vdot(a, a).real
    ax = np.vdot(a, x)
    if normalized:
        den = np.vdot(x, x).real - abs(ax) ** 2 / aa
        step0 = step0 / den if den > _TINY else 0.0
    step = step0 * ce
    return f + step * x + ((1.0 - np.vdot(a, f) - step * ax) / aa) * a


def rls_update(p: np.ndarray, x: np.ndarray, alpha: float, delta: float):
    """Exponentially weighted RLS update of an inverse covariance p.

    With px = p x and denom = alpha + x^H p x, the gain is
    k = px / denom and p <- (p - k px^H) / alpha, re-symmetrised.  A
    non-positive denominator is a breakdown: p restarts at delta*I and
    k is None.  Returns (p, k).
    """
    px = p @ x
    denom = alpha + np.real(np.vdot(x, px))
    if denom <= 0:
        return delta * np.eye(p.shape[0], dtype=complex), None
    gain = px / denom
    # 0.5 * (q + q^H) with q = (p - outer(gain, px^*)) / alpha, bit for
    # bit, in place on one fresh array.  It stays C-ordered: an F-ordered
    # p would change BLAS's summation order in the next p @ x.
    p = p - gain[:, None] * px.conj()
    p /= alpha
    p += p.conj().T
    p *= 0.5
    return p, gain


def _rls_filter(p: np.ndarray, f: np.ndarray, x: np.ndarray, ce: complex,
                alpha: float, delta: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Trained RLS update of a filter f with regressor x and ce = conj(e).

    `rls_update` advances p with x, then f <- f + k conj(e).  Returns the
    new p, the new f and whether p broke down (f then stays).
    """
    p, gain = rls_update(p, x, alpha, delta)
    if gain is None:
        return p, f, True
    return p, f + gain * ce, False


@dataclass
class SgState(ReceiverState):
    """Gradient state; mu0/eta0 are convergence factors.

    With `normalized` the effective steps are mu0/||rbar||^2 and
    eta0/||u||^2, the norms taken off the constraint vectors when blind
    (values in (0, 2) keep the normalised recursion stable); otherwise
    mu0/eta0 are used as raw step sizes.
    """

    mu0: float
    eta0: float
    normalized: bool


@dataclass
class RlsState(ReceiverState):
    """RLS state: p/p_u track the inverse of the weighted sample
    covariances of rbar and u."""

    p: np.ndarray
    p_u: np.ndarray
    alpha: float
    delta: float
    breakdowns: int = 0


def _blind(s: SgState | RlsState, cons: ConstraintSet):
    """s with a blind receiver's constraint part: the once-per-run gather
    `segs = cons.segments(n_i)`, and `g_hat` and `re_p` (see `_constrain`),
    g_hat starting at cons.g.  w restarts at the minimum-norm filter
    meeting it."""
    s.segs = cons.segments(s.n_i)
    _constrain(s, cons.g)
    a_w = s.re_p.T @ s.v.conj()
    s.w = a_w / np.vdot(a_w, a_w).real
    return s


def _constrain(s: SgState | RlsState, g: np.ndarray | None) -> None:
    """Hold the constraint at new values g_hat = g, re_p being the segment
    matrix of p = C g_hat; None keeps the current ones."""
    if g is not None:
        s.g_hat = np.array(g, dtype=complex)
        s.re_p = (s.segs @ s.g_hat).reshape(s.n_i, -1)


# ---------------------------------------------------------------------------
# blind channel tracking
# ---------------------------------------------------------------------------

class SgChannelTracker:
    """Running channel estimate for the blind receivers.

    Keeps an exponentially weighted estimate of the despread covariance
    C^H E[r r^H] C and applies one whitened power step per symbol,
    g <- (C^H C)^-1 V g, normalised to unit norm.  The desired user's
    energy enters V only along (C^H C) g, so the dominant generalized
    mode is the channel direction; per-step work after the despreading
    is O(L_p^2).
    """

    def __init__(self, c: np.ndarray, alpha: float):
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
# gradient algorithms
# ---------------------------------------------------------------------------

def make_trained_sg(dec: DecimationOperator, v0: np.ndarray, mu0: float, eta0: float,
                    normalized: bool) -> SgState:
    return SgState(v=np.array(v0, dtype=complex), w=np.zeros(dec.m_red, dtype=complex),
                   dec=dec, mu0=mu0, eta0=eta0, normalized=normalized)


def make_blind_sg(cons: ConstraintSet, v0: np.ndarray, mu0: float, eta0: float,
                  normalized: bool) -> SgState:
    return _blind(SgState(v=np.array(v0, dtype=complex), w=None, dec=cons.dec, mu0=mu0,
                          eta0=eta0, normalized=normalized), cons)


def _sg_step(s: SgState, r: np.ndarray, b: float | None, adapt_v: bool) -> complex:
    """The body of `lms_step` and, with b None, of `cmv_sg_step`: the error
    e = b - x (e = -x when blind: reference 0) moves v along u and w along
    rbar through `_gradient`, blind onto the hyperplanes of
    a_v = Re_p conj(w) and of a_w = Re_p^T conj(v) with the new v.
    Returns e."""
    re = build_re_matrix(r, s.n_i, s.dec)
    wc = s.w.conj()
    rbar = re.T @ s.v.conj()
    x = np.vdot(s.w, rbar)
    blind = b is None
    e = -x if blind else b - x
    ce = np.conj(e)
    if adapt_v:
        s.v = _gradient(s.v, re @ wc, ce, s.eta0, s.normalized, s.re_p @ wc if blind else None)
    s.w = _gradient(s.w, rbar, ce, s.mu0, s.normalized,
                    s.re_p.T @ s.v.conj() if blind else None)
    return complex(e)


def lms_step(s: SgState, r: np.ndarray, b: float, adapt_v: bool = True) -> complex:
    """One gradient update of both filters; returns the a-priori error.

    e = b - w^H rbar, then v <- v + eta conj(e) u and
    w <- w + mu conj(e) rbar.  Normalised, a zero-norm regressor skips
    that filter's update (the error is still reported).
    """
    return _sg_step(s, r, b, adapt_v)


def cmv_sg_step(s: SgState, r: np.ndarray, adapt_v: bool = True,
                g: np.ndarray | None = None) -> None:
    """One constrained-gradient update.

    `g`, when given, replaces the constraint values first (the true
    gains of a faded symbol, or a channel tracker's estimate); None keeps
    the current ones.  Then v takes a gradient step on
    |x|^2 projected onto v^H a_v = 1, a_v = Re_p conj(w), and w one
    projected onto w^H a_w = 1, a_w = Re_p^T conj(v) with the new v, so
    the constraint holds exactly after every step.  Both gradients use
    the pre-update output.
    """
    _constrain(s, g)
    _sg_step(s, r, None, adapt_v)


# ---------------------------------------------------------------------------
# RLS algorithms
# ---------------------------------------------------------------------------

def make_trained_rls(dec: DecimationOperator, v0: np.ndarray, alpha: float,
                     delta: float) -> RlsState:
    if not 0 < alpha <= 1:
        raise ValueError("forgetting factor must be in (0, 1]")
    return _rls_state(dec, v0, alpha, delta)


def make_blind_rls(cons: ConstraintSet, v0: np.ndarray, alpha: float,
                   delta: float) -> RlsState:
    if not 0 < alpha < 1:
        raise ValueError("blind RLS needs a forgetting factor in (0, 1)")
    return _blind(_rls_state(cons.dec, v0, alpha, delta), cons)


def _rls_state(dec: DecimationOperator, v0: np.ndarray, alpha: float,
               delta: float) -> RlsState:
    return RlsState(v=np.array(v0, dtype=complex), w=np.zeros(dec.m_red, dtype=complex),
                    dec=dec, p=delta * np.eye(dec.m_red, dtype=complex),
                    p_u=delta * np.eye(len(v0), dtype=complex), alpha=alpha, delta=delta)


def rls_step(s: RlsState, r: np.ndarray, b: float, adapt_v: bool = True) -> complex:
    """One exponentially weighted RLS update of both filters.

    `_rls_filter` updates w with rbar and the a-priori error xi; the
    interpolator follows the mirrored update on u (skipped while u is
    zero).  Breakdowns are counted in `breakdowns`.
    """
    re = build_re_matrix(r, s.n_i, s.dec)
    u = re @ s.w.conj()
    rbar = re.T @ s.v.conj()
    xi = b - np.vdot(s.w, rbar)
    cxi = np.conj(xi)
    s.p, s.w, broke = _rls_filter(s.p, s.w, rbar, cxi, s.alpha, s.delta)
    s.breakdowns += broke
    if adapt_v and np.real(np.vdot(u, u)) > _TINY:
        s.p_u, s.v, broke = _rls_filter(s.p_u, s.v, u, cxi, s.alpha, s.delta)
        s.breakdowns += broke
    return complex(xi)


def _min_variance(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """p a / (a^H p a): the filter meeting a^H f = 1 with the least
    variance on the covariance whose inverse is p."""
    pa = p @ a
    return pa / np.vdot(a, pa).real


def cmv_rls_step(s: RlsState, r: np.ndarray, adapt_v: bool = True,
                 g: np.ndarray | None = None) -> None:
    """One blind RLS update.

    After `g` (as in `cmv_sg_step`): `rls_update` advances p_u with u and
    v <- p_u a_v / (a_v^H p_u a_v) (both skipped without `adapt_v`);
    then it advances p with rbar of the new v, and
    w <- p a_w / (a_w^H p a_w) (Gauss-Seidel ordering).  A breakdown
    (non-positive denominator; that inverse restarts at delta*I) is
    counted in `breakdowns`.
    """
    _constrain(s, g)
    re = build_re_matrix(r, s.n_i, s.dec)
    if adapt_v:
        wc = s.w.conj()
        s.p_u, gain_u = rls_update(s.p_u, re @ wc, s.alpha, s.delta)
        s.breakdowns += gain_u is None
        s.v = _min_variance(s.p_u, s.re_p @ wc)
    rbar = re.T @ s.v.conj()
    s.p, gain = rls_update(s.p, rbar, s.alpha, s.delta)
    s.breakdowns += gain is None
    s.w = _min_variance(s.p, s.re_p.T @ s.v.conj())
