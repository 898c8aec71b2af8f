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

from .interpolation import DecimationOperator, ReceiverState, filter_maps

# J = sigma_b^2 - p_bar^H w is a difference of terms of the symbol power's
# size, taken from solves.  Over sample orders of a 1500-symbol batch at
# 15 dB it moved by ~5 ulps of that power, so a decrement under 2^10 ulps
# is rounding, not descent.  Near-singular statistics round far more (a
# noiseless batch's J moved by ~4e5 ulps), which no fixed floor covers.
_ROUNDING_ULPS = 2 ** 10


def solve_wiener(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The Wiener solution x of r x = p.

    Raises LinAlgError when r is singular or the solution is not finite.
    """
    x = np.linalg.solve(r, p)
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("Wiener solution is not finite")
    return x


def alternate_mmse(received: np.ndarray, bits: np.ndarray, dec: DecimationOperator,
                   v0: np.ndarray, max_iter: int = 1000, tol: float = 1e-8):
    """Alternate the two Wiener solutions on a fixed sample batch.

    Starts from the nonzero interpolator v0, whose length is N_I.  After
    every interpolator update v is rescaled to unit norm and w is
    rescaled by the inverse factor, which leaves the receiver output
    unchanged.

    The per-sweep improvements decay geometrically near the optimum, so
    iteration stops once the projected remaining gap falls below `tol`
    relative to the current MSE, not merely the last decrement itself.
    The gap is extrapolated from the last decrement of the per-sweep MSEs
    (`history[1::2]`) at their mean decay ratio since the sweep halfway
    back, which rounding barely moves.  It also stops once that
    decrement falls under J's rounding floor (`_ROUNDING_ULPS` ulps of
    the symbol power), where J can show no more descent.  So the stop
    is a property of the data, not of the order in which the samples
    are summed.

    Returns (ReceiverState on `dec`, final MSE, per-half-sweep MSEs
    `history`); ValueError unless max_iter >= 1.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    received = np.asarray(received)
    bits = np.asarray(bits)
    t = len(bits)
    r_cov = received.T @ received.conj() / t
    p = received.T @ bits.conj() / t
    sigma_b2 = float(np.mean(np.abs(bits) ** 2))
    v = np.array(v0, dtype=complex)
    if not np.any(v):
        raise ValueError("v0 must be nonzero")
    w = np.zeros(dec.m_red, dtype=complex)
    rounding = _ROUNDING_ULPS * np.finfo(float).eps * sigma_b2
    history = []
    for _ in range(max_iter):
        d_v, _ = filter_maps(v, w, dec)
        p_bar = d_v @ p
        w = solve_wiener(d_v @ r_cov @ d_v.conj().T, p_bar)
        history.append(sigma_b2 - float(np.real(np.vdot(p_bar, w))))
        _, e_w = filter_maps(v, w, dec)
        p_u = e_w @ p
        v_new = solve_wiener(e_w @ r_cov @ e_w.conj().T, p_u)
        j_v = sigma_b2 - float(np.real(np.vdot(p_u, v_new)))
        scale = np.linalg.norm(v_new)
        v = v_new / scale
        w = w * scale
        history.append(j_v)
        sweeps = history[1::2]
        if len(sweeps) >= 3:
            d1 = sweeps[-2] - sweeps[-1]
            if d1 <= rounding:
                break
            # the decrement k sweeps back, k half the sweeps so far
            k = (len(sweeps) - 1) // 2
            d0 = sweeps[-2 - k] - sweeps[-1 - k]
            floor = tol * max(abs(j_v), 1e-30)
            if d1 <= floor:
                if d0 <= d1:
                    break
                ratio = (d1 / d0) ** (1.0 / k)
                if d1 * ratio / (1.0 - ratio) <= floor:
                    break
    return ReceiverState(v=v, w=w, dec=dec), history[-1], history
