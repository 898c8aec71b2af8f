"""Batch interpolated MMSE design.

The receiver and interpolator Wiener solutions are coupled: each one is
the minimiser of the sample mean squared error with the other filter
held fixed.  `alternate_mmse` iterates the two closed forms on a fixed
sample batch, which can only decrease the sample MSE at every half
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interpolation import DecimationOperator, ReceiverState, build_re_matrix, impulse

RIDGE = 1e-8


@dataclass
class MmseStatistics:
    """Second-order sample statistics for one (v, w) operating point."""

    r_bar: np.ndarray        # M_red x M_red, E[rbar rbar^H]
    p_bar: np.ndarray        # M_red, E[conj(b) rbar]
    r_u: np.ndarray          # N_I x N_I, E[u u^H]
    p_u: np.ndarray          # N_I, E[conj(b) u]
    sigma_b2: float


def solve_regularized(r: np.ndarray, p: np.ndarray, ridge: float = RIDGE) -> np.ndarray:
    """Solve r x = p, falling back to a trace-scaled diagonal load.

    The plain solve keeps well-posed systems exact; singular or
    numerically hopeless covariances get ridge * tr(r)/dim added once,
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
    return np.linalg.solve(r + (ridge * tr / dim) * np.eye(dim), p)


def segment_stack(received: np.ndarray, n_i: int, dec: DecimationOperator) -> np.ndarray:
    """Segment matrices for a batch of received vectors, shape T x N_I x M_red."""
    received = np.asarray(received)
    return np.stack([build_re_matrix(r, n_i, dec) for r in received])


def estimate_statistics(res: np.ndarray, bits: np.ndarray, v: np.ndarray,
                        w: np.ndarray) -> MmseStatistics:
    """Sample-average statistics from stacked segment matrices.

    `res` is the T x N_I x M_red output of `segment_stack`; all four
    moments are built from the same samples.
    """
    bits = np.asarray(bits)
    t = len(bits)
    rbar = np.einsum("tnm,n->tm", res, np.conj(v))
    u = np.einsum("tnm,m->tn", res, np.conj(w))
    r_bar = np.einsum("tm,tn->mn", rbar, rbar.conj()) / t
    p_bar = np.einsum("t,tm->m", bits.conj(), rbar) / t
    r_u = np.einsum("tm,tn->mn", u, u.conj()) / t
    p_u = np.einsum("t,tm->m", bits.conj(), u) / t
    return MmseStatistics(r_bar=r_bar, p_bar=p_bar, r_u=r_u, p_u=p_u,
                          sigma_b2=float(np.mean(np.abs(bits) ** 2)))


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
    res = segment_stack(received, n_i, dec)
    bits = np.asarray(bits)
    v = impulse(n_i) if v0 is None else np.asarray(v0, dtype=complex).copy()
    if not np.any(v):
        raise ValueError("v0 must be nonzero")
    w = np.zeros(dec.m_red, dtype=complex)
    history = []
    sweeps = []
    for _ in range(max_iter):
        stats = estimate_statistics(res, bits, v, w)
        w = solve_regularized(stats.r_bar, stats.p_bar)
        history.append(stats.sigma_b2 - float(np.real(np.vdot(stats.p_bar, w))))
        stats = estimate_statistics(res, bits, v, w)
        v_new = solve_regularized(stats.r_u, stats.p_u)
        j_v = stats.sigma_b2 - float(np.real(np.vdot(stats.p_u, v_new)))
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
