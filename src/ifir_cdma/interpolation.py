"""Decimation and interpolation algebra for the reduced-rank receiver.

Conventions used throughout the package (all modules share them):

* the segment matrix ``Re`` is N_I x M_red with ``Re[n, s] = r[s*L + n]``
  (zero for indices past the end of r),
* the projected vector is ``rbar = Re.T @ conj(v)``: the anticausal FIR
  ``y[t] = sum_n conj(v[n]) r[t+n]`` with every L-th output kept, so a
  unit impulse interpolator gives plain decimation ``r[dec.indices]``,
* the interpolator image of the filter is ``u = Re @ conj(w)``,
* the receiver output is ``x = v^H Re conj(w) = w^H rbar = v^H u``.

The bilinear identity ``v^H Re conj(w) == w^H (Re^T conj(v))`` is exact,
so either evaluation order may be used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DecimationOperator:
    """Keep-one-in-L sample selector for length-M vectors.

    Row m of the (conceptual) selection matrix picks sample m*L.  The
    reduced dimension is round(M/L); rows are orthonormal unit selectors,
    hence D D^H = I.
    """

    m: int
    l: int
    indices: np.ndarray = field(compare=False)
    _segments: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def m_red(self) -> int:
        return self.indices.size

    def segment_index(self, n_i: int) -> tuple[np.ndarray, np.ndarray]:
        """(idx, buf) of `build_re_matrix`, built once per n_i: the read-only
        n_i x M_red gather index, entry [n, s] = indices[s] + n, and a complex
        buffer of max(M, idx.max() + 1) samples whose tail past M stays zero.
        Every call shares the buffer, so one operator serves one thread."""
        seg = self._segments.get(n_i)
        if seg is None:
            idx = self.indices[None, :] + np.arange(n_i)[:, None]
            idx.flags.writeable = False
            buf = np.zeros(max(self.m, idx.item(-1) + 1), dtype=complex)
            seg = self._segments[n_i] = idx, buf
        return seg


def make_decimation(m: int, l: int) -> DecimationOperator:
    """Decimation operator for length-m vectors, factor l.

    Non-integer m/l is rounded to the nearest integer (half away from
    zero).  Every selected index is in range: (round(m/l) - 1) * l is at
    most m - l/2.
    """
    if l < 1 or m < l:
        raise ValueError(f"need m >= l >= 1, got m={m}, l={l}")
    m_red = int(np.floor(m / l + 0.5))
    return DecimationOperator(m=m, l=l, indices=np.arange(m_red) * l)


def impulse(n: int) -> np.ndarray:
    """Length-n unit impulse [1, 0, ..., 0] (complex): the pure-decimation
    interpolator and the single-path constraint values."""
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return v


def build_re_matrix(r: np.ndarray, n_i: int, dec: DecimationOperator) -> np.ndarray:
    """Segment matrix (a fresh array): column s is the length-n_i slice of
    r, which has length M, starting at s*L.

    Slices reaching past the end of r are zero padded, which keeps the
    bilinear receiver output defined for every (L, n_i) combination.
    """
    idx, buf = dec.segment_index(n_i)
    buf[:dec.m] = r
    return buf[idx]


@dataclass
class ReceiverState:
    """Interpolator v (length N_I) and reduced-rank filter w (length M_red).

    A zero interpolator passes nothing, so it is rejected here, once,
    rather than on every projection.
    """

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if not np.any(self.v):
            raise ValueError("interpolator must be nonzero")

    @property
    def n_i(self) -> int:
        return self.v.size


def receiver_output(state: ReceiverState, r: np.ndarray,
                    dec: DecimationOperator) -> complex:
    """Bilinear receiver output x = w^H rbar, where rbar = Re^T conj(v) is r
    through the anticausal FIR conj(v) with every L-th output kept."""
    rbar = build_re_matrix(r, state.n_i, dec).T @ state.v.conj()
    return complex(np.vdot(state.w, rbar))


def detect(x: complex) -> float:
    """Symbol decision sgn(Re(x)); zero breaks the tie as +1."""
    return 1.0 if x.real >= 0.0 else -1.0
