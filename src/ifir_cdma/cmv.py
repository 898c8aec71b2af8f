"""Batch constrained-minimum-variance design.

The receiver minimises its output variance subject to one constraint:
its response to the channel-combined signature p = C g is 1, where the
columns of C are one-chip shifted copies of the desired code and g
carries the channel parameters.  With Re_p the segment matrix of p, the
bilinear identity turns that response, v^H Re_p conj(w), into
w^H a_w with a_w = Re_p^T conj(v), or into v^H a_v with
a_v = Re_p conj(w).  With the other filter held, each filter therefore
meets the constraint on a hyperplane a^H f = 1, and its batch design is
the same formula for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interpolation import DecimationOperator, impulse


@dataclass
class ConstraintSet:
    """Shifted signatures of the desired code and default constraint values."""

    c: np.ndarray            # M x L_p
    g: np.ndarray            # L_p constraint values (channel parameters)
    dec: DecimationOperator

    def segments(self, n_i: int) -> np.ndarray:
        """(n_i * M_red) x L_p gather of C's rows through `dec.segment_index`.

        (segments(n_i) @ g).reshape(n_i, M_red) is the segment matrix
        `build_re_matrix(C @ g, n_i, dec)`, rows past M reading zero.
        """
        idx, buf = self.dec.segment_index(n_i)
        padded = np.zeros((buf.size, self.c.shape[1]), dtype=complex)
        padded[:self.dec.m] = self.c
        return padded[idx.ravel()]


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
    """Constraint set for the desired user's code and delay spread l_p;
    g defaults to a single path at delay zero."""
    c = shifted_signatures(code, l_p)
    if c.shape[0] != dec.m:
        raise ValueError(f"decimation built for M={dec.m}, constraints for M={c.shape[0]}")
    if g is None:
        g = impulse(l_p)
    return ConstraintSet(c=c, g=np.array(g, dtype=complex), dec=dec)


def cmv_receiver(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Minimum-variance filter f = R^-1 a / (a^H R^-1 a), which meets
    a^H f = 1; R and a are either filter's covariance and constraint vector."""
    x = np.linalg.solve(r, a)
    return x / np.vdot(a, x).real


def min_output_variance(r: np.ndarray, a: np.ndarray) -> float:
    """Constrained minimum of f^H R f over a^H f = 1, i.e. 1 / (a^H R^-1 a)."""
    return 1.0 / float(np.vdot(a, np.linalg.solve(r, a)).real)
