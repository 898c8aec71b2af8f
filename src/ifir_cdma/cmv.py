"""Batch constrained-minimum-variance design.

The receiver minimises the output variance w^H R_bar w subject to
C^H D^H w = g, where the columns of C are one-chip shifted copies of
the desired signature and g carries the channel parameters.  The
interpolator solution is the unit-norm eigenvector of R_u with the
smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interpolation import DecimationOperator, impulse


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
    gram_inv: np.ndarray     # (dc^H dc)^-1
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

    Raises LinAlgError if the decimated constraint matrix loses column
    rank (cond(DC^H DC) >= 1e12): then the constraints cannot all be
    enforced in the reduced space.
    """
    c = shifted_signatures(code, l_p)
    if c.shape[0] != dec.m:
        raise ValueError(f"decimation built for M={dec.m}, constraints for M={c.shape[0]}")
    dc = c[dec.indices, :]
    gram = dc.conj().T @ dc
    if not np.linalg.cond(gram) < 1e12:      # a zero matrix reads inf
        raise np.linalg.LinAlgError("decimated constraints are rank deficient")
    gram_inv = np.linalg.inv(gram)
    anchor = dc @ gram_inv
    pi = np.eye(dec.m_red) - anchor @ dc.conj().T
    if g is None:
        g = impulse(l_p)
    return ConstraintSet(c=c, g=np.array(g, dtype=complex), dec=dec, dc=dc,
                         gram_inv=gram_inv, anchor=anchor, pi=pi)


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
    v = np.asarray(vecs[:, 0] / np.linalg.norm(vecs[:, 0]), dtype=complex)
    ref = v[int(np.argmax(np.abs(v)))]       # rotated to be real positive
    return v * (abs(ref) / ref)

