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
inverse-covariance update; `_gradients`, `_rls_filters` (which returns a
mask of breakdowns) and `rls_updates` are their forms on a stack of runs.
Within a step the output and error are computed with the pre-update
filters.  The trained steps update both filters from those same
pre-update quantities (Jacobi ordering).  The blind steps take their
constraint values g from the caller, as the trained steps take their
reference symbol, and update v and then w, each onto its own hyperplane
of the constraint, so the constraint holds after every step.  States are
single-owner and mutated in place; the trained steps return the a-priori
error, the blind steps nothing.  Every step takes `adapt_v`; with it
false the interpolator v stays where it is and only w adapts.

Each step also has a form on a block of runs (`lms_steps`, `rls_steps`,
`cmv_sg_steps`, `cmv_rls_steps`), which takes the runs' states stacked
along a leading axis (`stack`) and the segment matrix Re of one received
vector per run; the harness's interpolated blocks gather every run's Re
once per sub-chunk of symbols for them.  Each returns the runs' a-priori
outputs x = w^H rbar, formed with the pre-update filters, so the caller
forms none; the trained forms take, with `directed`, the decisions on x
as their references (decision-directed mode), decided before the update.
Each run's arrays equal what its own step makes of them, bit for bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .cmv import ConstraintSet
from .interpolation import (DecimationOperator, ReceiverState, _cmul, _detects, _matvecs,
                            _powers, _vdots, build_re_matrix, impulse)

_TINY = 1e-30
# Below this fraction of x^H x, x^H Pi x is rounding noise, not a direction
# off the constraint: x^H x - |a^H x|^2 / a^H a cancels when x lies along a,
# as it always does at N_I = 1, and rounds to ~1e-16 x^H x either way.
_OFF_CONSTRAINT = 1e-10


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
        xx = np.vdot(x, x).real
        den = xx - abs(ax) ** 2 / aa
        step0 = step0 / den if den > max(_TINY, _OFF_CONSTRAINT * xx) else 0.0
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


def rls_updates(p: np.ndarray, x: np.ndarray, alpha: float, delta: float):
    """`rls_update` on a stack of runs: p is (runs, d, d) and x (runs, d).

    Each run's p and gain equal `rls_update`'s bit for bit.  A run whose
    denominator is not positive restarts at delta*I, and its gain row is
    not to be used.  Returns (p, gain, broke), broke the indices of the
    runs that broke down.
    """
    px = p @ x[:, :, None]
    denom = (x.conj()[:, None, :] @ px)[:, 0, 0].real + alpha
    broke = (denom <= 0).nonzero()[0]   # np.flatnonzero, less its ~1 us of wrapping
    if broke.size:
        denom[broke] = 1.0
    gain = px / denom[:, None, None]
    pxh = px.conj().transpose(0, 2, 1)
    # rls_update's outer product rounds as this one's, except at d = 1,
    # where numpy rounds it as a product of two complex scalars
    p = p - (_cmul(gain, pxh) if p.shape[1] == 1 else gain * pxh)
    p /= alpha
    p += p.conj().transpose(0, 2, 1)
    p *= 0.5
    if broke.size:
        p[broke] = delta * np.eye(p.shape[1], dtype=complex)
    return p, gain[:, :, 0], broke


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

    def updates(self, rs: np.ndarray) -> np.ndarray:
        """`update` of every run of a stacked tracker (see `stack`), rs
        holding a row per run; each run's estimate equals its own bit for bit."""
        y = _matvecs(self.c.conj().T, rs)
        self.v_acc = self.alpha * self.v_acc + y[:, :, None] * y.conj()[:, None, :]
        cand = _matvecs(self.inv_gram, _matvecs(self.v_acc, self.g_hat))
        # np.linalg.norm of a complex vector: the dots of its real and imaginary parts
        re, im = cand.real[:, None], cand.imag[:, None]
        nrm = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
        # a run whose candidate vanishes keeps its estimate, and divides by nothing
        self.g_hat = np.divide(cand, nrm[:, None], out=self.g_hat.copy(),
                               where=(nrm > _TINY)[:, None])
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


# ---------------------------------------------------------------------------
# stacked runs
# ---------------------------------------------------------------------------
# The steps of a block of runs taken together: `stack` gives the runs'
# states (or channel trackers) one leading run axis, and the `*_steps`
# kernels take one segment matrix Re per run, which they build none of: the
# caller gathers every run's at once (`_segment_matrices`).  Each returns
# the runs' a-priori outputs x and keeps the arithmetic order of its per-run
# step, so each run's arrays equal what that step makes of its own state,
# bit for bit: the batched products are `_matvecs` and `_vdots`, a modulus
# squared is `_powers` and a product of two complex scalars `_cmul`.

_RUN_ARRAYS = ("v", "w", "p", "p_u", "g_hat", "re_p", "v_acc")


def stack(states: list):
    """A copy of states[0] whose arrays (v, w, p, p_u, a blind state's
    g_hat and re_p, a tracker's v_acc and g_hat) stack the runs' along a
    leading axis, and whose `breakdowns`, if any, is an int array.  The
    runs of a block share every other field."""
    s = copy.copy(states[0])
    for name in _RUN_ARRAYS:
        if hasattr(s, name):
            setattr(s, name, np.stack([getattr(t, name) for t in states]))
    if hasattr(s, "breakdowns"):
        s.breakdowns = np.array([t.breakdowns for t in states])
    return s


def unstack(s, states: list) -> None:
    """Write the stacked s back into the runs' states."""
    for k, t in enumerate(states):
        for name in _RUN_ARRAYS:
            if hasattr(t, name):
                setattr(t, name, getattr(s, name)[k])
        if hasattr(t, "breakdowns"):
            t.breakdowns = int(s.breakdowns[k])


def _gradients(f, x, ce, step0: float, normalized: bool, a=None) -> np.ndarray:
    """`_gradient` of every run: f, x and a hold a row per run, ce an entry;
    an unnormalised step0 may hold one too."""
    if a is None:
        if normalized:
            den = _vdots(x, x).real
            skip = den <= _TINY
            # np.count_nonzero costs a fifth of a mask's .any() or .all() on a row per run
            if not np.count_nonzero(skip):
                return f + ((step0 / den) * ce)[:, None] * x
            den[skip] = 1.0   # a skipped row keeps f, and divides by nothing on the way
            return np.where(skip[:, None], f, f + ((step0 / den) * ce)[:, None] * x)
        return f + (step0 * ce)[:, None] * x
    # a^H a, a^H x, x^H x and a^H f in one batched product
    aa, ax, xx, af = _vdots(np.array([a, a, x, a]), np.array([a, x, x, f]))
    aa = aa.real
    if normalized:
        xx = xx.real
        den = xx - _powers(ax) / aa
        live = den > np.maximum(_TINY, _OFF_CONSTRAINT * xx)
        # a skipped row takes step 0, and divides by nothing
        step0 = (step0 / den if np.count_nonzero(live) == len(live)
                 else np.divide(step0, den, out=np.zeros(len(den)), where=live))
    step = step0 * ce
    return f + step[:, None] * x + ((1.0 - af - _cmul(step, ax)) / aa)[:, None] * a


def _constrains(s, g) -> None:
    """`_constrain` of every run: g holds a row of constraint values per run."""
    if g is not None:
        s.g_hat = np.array(g, dtype=complex)
        s.re_p = _matvecs(s.segs, s.g_hat).reshape(len(s.g_hat), s.n_i, -1)


def _sg_steps(s: SgState, res: np.ndarray, b, adapt_v: bool, directed: bool = False) -> np.ndarray:
    """`_sg_step` of every run, b holding a reference per run (None when
    blind), or with `directed` the decisions on x.  Returns x."""
    wc = s.w.conj()
    rbar = _matvecs(res.swapaxes(1, 2), s.v.conj())
    x = _vdots(s.w, rbar)
    blind = b is None
    e = -x if blind else (_detects(x) if directed else b) - x
    ce = np.conj(e)
    if adapt_v:
        s.v = _gradients(s.v, _matvecs(res, wc), ce, s.eta0, s.normalized,
                         _matvecs(s.re_p, wc) if blind else None)
    s.w = _gradients(s.w, rbar, ce, s.mu0, s.normalized,
                     _matvecs(s.re_p.swapaxes(1, 2), s.v.conj()) if blind else None)
    return x


def lms_steps(s: SgState, res: np.ndarray, b, adapt_v: bool = True,
              directed: bool = False) -> np.ndarray:
    """`lms_step` of every run of a stacked state, on the references b or,
    `directed`, on the decisions `_detects(x)`; returns the runs' a-priori
    outputs x."""
    return _sg_steps(s, res, b, adapt_v, directed)


def cmv_sg_steps(s: SgState, res: np.ndarray, adapt_v: bool = True, g=None) -> np.ndarray:
    """`cmv_sg_step` of every run of a stacked state, g a row per run or
    None; returns the runs' a-priori outputs x, which g does not move."""
    _constrains(s, g)
    return _sg_steps(s, res, None, adapt_v)


def _rls_filters(p, f, x, ce, alpha: float, delta: float, live=None):
    """`_rls_filter` of every run.  Runs outside the mask `live` keep p and
    f.  Returns the new p, the new f and a mask of the runs whose p broke
    down (f then stays)."""
    moved_p, gain, broke = rls_updates(p, x, alpha, delta)
    moved = f + gain * ce[:, None]
    mask = np.zeros(len(f), dtype=bool)
    if broke.size:   # a broken-down run's f stays
        mask[broke] = True
        moved[broke] = f[broke]
    if live is not None and np.count_nonzero(live) < len(live):
        moved_p[~live] = p[~live]
        moved[~live] = f[~live]
        mask &= live
    return moved_p, moved, mask


def rls_steps(s: RlsState, res: np.ndarray, b, adapt_v: bool = True,
              directed: bool = False) -> np.ndarray:
    """`rls_step` of every run of a stacked state, on the references b or,
    `directed`, on the decisions `_detects(x)`; returns the runs' a-priori
    outputs x."""
    u = _matvecs(res, s.w.conj())
    rbar = _matvecs(res.swapaxes(1, 2), s.v.conj())
    x = _vdots(s.w, rbar)
    xi = (_detects(x) if directed else b) - x
    cxi = np.conj(xi)
    s.p, s.w, broke = _rls_filters(s.p, s.w, rbar, cxi, s.alpha, s.delta)
    s.breakdowns += broke
    if adapt_v:
        s.p_u, s.v, broke = _rls_filters(s.p_u, s.v, u, cxi, s.alpha, s.delta,
                                         live=_vdots(u, u).real > _TINY)
        s.breakdowns += broke
    return x


def _min_variances(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """`_min_variance` of every run."""
    pa = _matvecs(p, a)
    return pa / _vdots(a, pa).real[:, None]


def cmv_rls_steps(s: RlsState, res: np.ndarray, adapt_v: bool = True, g=None) -> np.ndarray:
    """`cmv_rls_step` of every run of a stacked state, g a row per run or
    None; returns the runs' a-priori outputs x, formed before any update
    as `receiver_outputs` forms them."""
    _constrains(s, g)
    rbar = _matvecs(res.swapaxes(1, 2), s.v.conj())
    x = _vdots(s.w, rbar)
    if adapt_v:
        wc = s.w.conj()
        s.p_u, _, broke = rls_updates(s.p_u, _matvecs(res, wc), s.alpha, s.delta)
        s.breakdowns[broke] += 1
        s.v = _min_variances(s.p_u, _matvecs(s.re_p, wc))
        rbar = _matvecs(res.swapaxes(1, 2), s.v.conj())   # of the new v
    s.p, _, broke = rls_updates(s.p, rbar, s.alpha, s.delta)
    s.breakdowns[broke] += 1
    s.w = _min_variances(s.p, _matvecs(s.re_p.swapaxes(1, 2), s.v.conj()))
    return x
