"""Batch constrained-minimum-variance design and blind channel estimation.

The receiver minimises the output variance w^H R_bar w subject to
C^H D^H w = g, where the columns of C are one-chip shifted copies of
the desired signature and g carries the channel parameters.  The
interpolator solution is the unit-norm eigenvector of R_u with the
smallest eigenvalue; `shift_iteration_min_eigvec` extracts it without
an eigendecomposition by powering I - R/tr(R).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interpolation import DecimationOperator, impulse
from .mmse import RIDGE


def _fix_phase(vec: np.ndarray, prefer_first: bool = False) -> np.ndarray:
    """Rotate a vector's global phase so a reference entry is real positive.

    The reference is the first entry when `prefer_first` and it is not
    negligible, otherwise the largest-magnitude entry.
    """
    vec = np.asarray(vec, dtype=complex)
    mags = np.abs(vec)
    idx = int(np.argmax(mags))
    if prefer_first and mags[0] > 1e-8 * mags[idx]:
        idx = 0
    ref = vec[idx]
    if abs(ref) == 0:
        return vec
    return vec * (abs(ref) / ref)


@dataclass
class ConstraintSet:
    """Shifted-signature constraints and derived projection machinery.

    dc = D C is the constraint matrix seen by the reduced-rank filter;
    pi projects onto its null space, so pi @ dc = 0 and pi is
    idempotent.  anchor = dc (dc^H dc)^-1 maps constraint values to the
    minimum-norm filter satisfying them.
    """

    c: np.ndarray            # M x L_p
    g: np.ndarray            # L_p constraint values (channel parameters)
    dec: DecimationOperator
    dc: np.ndarray           # M_red x L_p
    gram: np.ndarray         # dc^H dc
    gram_inv: np.ndarray
    anchor: np.ndarray       # dc @ gram_inv
    pi: np.ndarray           # M_red x M_red projector


def shifted_signatures(code: np.ndarray, l_p: int) -> np.ndarray:
    """M x L_p matrix whose column j is the code delayed by j chips."""
    code = np.asarray(code, dtype=complex)
    n = code.size
    m = n + l_p - 1
    c = np.zeros((m, l_p), dtype=complex)
    for j in range(l_p):
        c[j:j + n, j] = code
    return c


def build_constraints(code: np.ndarray, l_p: int, dec: DecimationOperator,
                      g: np.ndarray | None = None) -> ConstraintSet:
    """Constraint set for the desired user's code and delay spread l_p.

    Raises if the decimated constraint matrix loses column rank even
    after a small diagonal load (then the constraints cannot all be
    enforced in the reduced space).
    """
    c = shifted_signatures(code, l_p)
    if c.shape[0] != dec.m:
        raise ValueError(f"decimation built for M={dec.m}, constraints for M={c.shape[0]}")
    dc = c[dec.indices, :]
    gram = dc.conj().T @ dc
    tr = np.trace(gram).real
    if tr <= 0:
        raise np.linalg.LinAlgError("constraint matrix is zero after decimation")
    cond = np.linalg.cond(gram)
    if np.isfinite(cond) and cond < 1e12:
        gram_inv = np.linalg.inv(gram)
    else:
        gram_r = gram + (RIDGE * tr / l_p) * np.eye(l_p)
        cond = np.linalg.cond(gram_r)
        if not np.isfinite(cond) or cond > 1e12:
            raise np.linalg.LinAlgError("decimated constraints are rank deficient")
        gram_inv = np.linalg.inv(gram_r)
    anchor = dc @ gram_inv
    pi = np.eye(dec.m_red) - anchor @ dc.conj().T
    if g is None:
        g = impulse(l_p)
    return ConstraintSet(c=c, g=np.asarray(g, dtype=complex), dec=dec, dc=dc,
                         gram=gram, gram_inv=gram_inv, anchor=anchor, pi=pi)


def cmv_receiver(r_bar: np.ndarray, cons: ConstraintSet,
                 g: np.ndarray | None = None) -> np.ndarray:
    """Minimum-variance filter meeting the constraints exactly.

    w = R^-1 DC (C^H D^H R^-1 DC)^-1 g.  Its output variance equals
    g^H (C^H D^H R^-1 DC)^-1 g, the smallest over all feasible filters.
    """
    g = cons.g if g is None else np.asarray(g, dtype=complex)
    x = np.linalg.solve(r_bar, cons.dc)
    inner = cons.dc.conj().T @ x
    return x @ np.linalg.solve(inner, g)


def min_output_variance(r_bar: np.ndarray, cons: ConstraintSet,
                        g: np.ndarray | None = None) -> float:
    """Constrained minimum of w^H R w, i.e. g^H (DC^H R^-1 DC)^-1 g."""
    g = cons.g if g is None else np.asarray(g, dtype=complex)
    inner = cons.dc.conj().T @ np.linalg.solve(r_bar, cons.dc)
    return float(np.real(np.vdot(g, np.linalg.solve(inner, g))))


def cmv_interpolator(r_u: np.ndarray) -> np.ndarray:
    """Unit-norm minimum eigenvector of R_u, phase fixed for determinism.

    With a degenerate smallest eigenvalue any minimising unit vector is
    a valid answer; the eigensolver's choice is returned.
    """
    _, vecs = np.linalg.eigh(r_u)
    v = vecs[:, 0]
    return _fix_phase(v / np.linalg.norm(v))


def shift_iteration_min_eigvec(r: np.ndarray, v0: np.ndarray, iters: int) -> np.ndarray:
    """Power the matrix I - R/tr(R) to expose the minimum eigenvector.

    The map sends eigenvalue lam to 1 - lam/tr(R), a value in [0, 1]
    that is largest for lam = lam_min, so repeated application with
    renormalisation converges geometrically whenever v0 is not
    orthogonal to the target and lam_min is simple.
    """
    r = np.asarray(r)
    tr = np.trace(r).real
    if tr <= 0:
        raise np.linalg.LinAlgError("shift iteration needs a positive trace")
    nu = 1.0 / tr
    v = np.asarray(v0, dtype=complex).copy()
    for _ in range(iters):
        v = v - nu * (r @ v)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise np.linalg.LinAlgError("iterate vanished; v0 orthogonal to target?")
        v = v / nrm
    return v


def blind_channel_estimate(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Channel parameters as the minimum eigenvector of C^H R^-1 C.

    A small trace-scaled diagonal load keeps R invertible for noiseless
    sample covariances.  The estimate has unit norm and the phase of its
    first entry is used as the reference (rotated to be real positive).
    """
    r = np.asarray(r)
    dim = r.shape[0]
    tr = np.trace(r).real
    if tr <= 0:
        raise np.linalg.LinAlgError("covariance has non-positive trace")
    r_loaded = r + (RIDGE * tr / dim) * np.eye(dim)
    x = np.linalg.solve(r_loaded, np.asarray(c, dtype=complex))
    omega = c.conj().T @ x
    omega = 0.5 * (omega + omega.conj().T)
    _, vecs = np.linalg.eigh(omega)
    ghat = vecs[:, 0]
    return _fix_phase(ghat / np.linalg.norm(ghat), prefer_first=True)
