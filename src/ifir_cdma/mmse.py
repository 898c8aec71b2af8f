"""Batch interpolated MMSE design.

The receiver and interpolator Wiener solutions are coupled: each one is
the minimiser of the sample mean squared error with the other filter
held fixed.  `alternate_mmse` iterates the two closed forms on a fixed
sample batch, which can only decrease the sample MSE at every half
sweep.  Every statistic comes from the sample covariance of r and its
cross-correlation with the symbols, formed once and read through the
filter maps of `interpolation.filter_maps`.
"""

from __future__ import annotations

import numpy as np

from .interpolation import DecimationOperator, ReceiverState, filter_maps, impulse

RIDGE = 1e-8


def solve_regularized(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Solve r x = p, falling back to a trace-scaled diagonal load.

    The plain solve keeps well-posed systems exact; singular or
    numerically hopeless covariances get RIDGE * tr(r)/dim added once,
    and failure after that propagates.
    """
    r = np.asarray(r)
    dim = r.shape[0]
    tr = np.trace(r).real
    if not np.isfinite(tr) or tr <= 0:
        raise np.linalg.LinAlgError("covariance has non-positive trace")
    try:
        x = np.linalg.solve(r, p)
        if np.all(np.isfinite(x)):
            return x
    except np.linalg.LinAlgError:
        pass
    return np.linalg.solve(r + (RIDGE * tr / dim) * np.eye(dim), p)


def alternate_mmse(received: np.ndarray, bits: np.ndarray, dec: DecimationOperator,
                   n_i: int, v0: np.ndarray | None = None, max_iter: int = 1000,
                   tol: float = 1e-8):
    """Alternate the two Wiener solutions on a fixed sample batch.

    Starts from a pure-decimation interpolator unless `v0` is given (it
    must be nonzero).  After every interpolator update v is rescaled to
    unit norm and w is rescaled by the inverse factor, which leaves the
    receiver output unchanged.

    The per-sweep improvements decay geometrically near the optimum, so
    iteration stops once the projected remaining gap (extrapolated from
    the last two decrements) falls below `tol` relative to the current
    MSE, not merely the last decrement itself.

    Returns (ReceiverState, final MSE, list of per-half-sweep MSEs).
    """
    received = np.asarray(received)
    bits = np.asarray(bits)
    t = len(bits)
    r_cov = received.T @ received.conj() / t
    p = received.T @ bits.conj() / t
    sigma_b2 = float(np.mean(np.abs(bits) ** 2))
    v = impulse(n_i) if v0 is None else np.asarray(v0, dtype=complex).copy()
    if not np.any(v):
        raise ValueError("v0 must be nonzero")
    w = np.zeros(dec.m_red, dtype=complex)
    history = []
    sweeps = []
    for _ in range(max_iter):
        d_v, _ = filter_maps(v, w, dec)
        p_bar = d_v @ p
        w = solve_regularized(d_v @ r_cov @ d_v.conj().T, p_bar)
        history.append(sigma_b2 - float(np.real(np.vdot(p_bar, w))))
        _, e_w = filter_maps(v, w, dec)
        p_u = e_w @ p
        v_new = solve_regularized(e_w @ r_cov @ e_w.conj().T, p_u)
        j_v = sigma_b2 - float(np.real(np.vdot(p_u, v_new)))
        scale = np.linalg.norm(v_new)
        v = v_new / scale
        w = w * scale
        history.append(j_v)
        sweeps.append(j_v)
        if len(sweeps) >= 3:
            d1 = sweeps[-2] - sweeps[-1]
            d0 = sweeps[-3] - sweeps[-2]
            floor = tol * max(abs(j_v), 1e-30)
            if d1 <= floor:
                if d1 <= 0 or d0 <= d1:
                    break
                ratio = d1 / d0
                if d1 * ratio / (1.0 - ratio) <= floor:
                    break
    return ReceiverState(v=v, w=w), history[-1], history
