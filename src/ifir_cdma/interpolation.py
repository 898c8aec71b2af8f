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

``Re`` is a linear gather of r, so for fixed filters both projections are
matrices acting on r: ``rbar = D_v r`` (M_red x M) and ``u = E_w r``
(N_I x M), built by `filter_maps`.  Every second-order statistic of the
two filters is then a sandwich of the covariance ``R = E[r r^H]`` and
cross-correlation ``p = E[conj(b) r]`` of r: ``E[rbar rbar^H] = D_v R D_v^H``,
``E[u u^H] = E_w R E_w^H``, ``E[rbar u^H] = D_v R E_w^H``,
``E[conj(b) rbar] = D_v p`` and ``E[conj(b) u] = E_w p``.
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


def filter_maps(v: np.ndarray, w: np.ndarray,
                dec: DecimationOperator) -> tuple[np.ndarray, np.ndarray]:
    """(d_v, e_w): the M_red x M and N_I x M matrices with
    ``d_v @ r == build_re_matrix(r).T @ conj(v)`` and
    ``e_w @ r == build_re_matrix(r) @ conj(w)`` for every r.

    Entry [n, s] of the gather index reads r[idx[n, s]], so it places
    conj(v[n]) in row s of d_v and conj(w[s]) in row n of e_w; within a
    row the indices are distinct.  Columns past M would only meet the
    zero tail of the gather buffer, so they are dropped.
    """
    n_i = len(v)
    idx, buf = dec.segment_index(n_i)
    d_v = np.zeros((dec.m_red, buf.size), dtype=complex)
    d_v[np.arange(dec.m_red), idx] = np.conj(v)[:, None]
    e_w = np.zeros((n_i, buf.size), dtype=complex)
    e_w[np.arange(n_i)[:, None], idx] = np.conj(w)
    return d_v[:, :dec.m], e_w[:, :dec.m]


@dataclass
class ReceiverState:
    """Interpolator v (length N_I), decimation `dec` and filter w (length M_red).

    A zero interpolator passes nothing, so it is rejected here, once,
    rather than on every projection.
    """

    v: np.ndarray
    w: np.ndarray
    dec: DecimationOperator

    def __post_init__(self):
        if not np.any(self.v):
            raise ValueError("interpolator must be nonzero")

    @property
    def n_i(self) -> int:
        return self.v.shape[-1]


def receiver_output(state: ReceiverState, r: np.ndarray) -> complex:
    """Bilinear receiver output x = w^H rbar, where rbar = Re^T conj(v) is r
    through the anticausal FIR conj(v) with every L-th output kept."""
    rbar = build_re_matrix(r, state.n_i, state.dec).T @ state.v.conj()
    return complex(np.vdot(state.w, rbar))


def receiver_outputs(vc: np.ndarray, wc: np.ndarray, res: np.ndarray) -> np.ndarray:
    """`receiver_output` of interpolators and filters given by their
    conjugates vc (..., N_I) and wc (..., M_red), on segment matrices res
    (..., N_I, M_red) of rows of r (`_segment_matrices`), the leading axes
    broadcast: a stacked block's filters after each symbol of a sub-chunk,
    say, conjugated in place, on the Re of its r.  Each output equals the
    per-run one bit for bit: it is `_vdots(w, rbar)` with the conjugate at
    hand."""
    return (wc[..., None, :] @ _matvecs(res.swapaxes(-1, -2), vc)[..., None])[..., 0, 0]


def _segment_matrices(rs: np.ndarray, n_i: int, dec: DecimationOperator,
                      out: np.ndarray | None = None) -> np.ndarray:
    """`build_re_matrix` of every row of rs (rows of r along the last axis,
    any leading axes), stacked, bit for bit: one gather of the zero-padded
    rows, as a stacked block makes once per sub-chunk of its r and of its
    effective signatures.
    Rows already as wide as the gather buffer (`dec.segment_index`), zero
    past M, are gathered as they are, and into `out` if given, so that a
    caller that reuses both arrays allocates nothing.  The result is
    C-contiguous, as each `build_re_matrix` is, so that every trailing
    (..., N_I, M_red) slice is too; so must `out` be."""
    idx, buf = dec.segment_index(n_i)
    if rs.shape[-1] < buf.size:
        pad = np.zeros((*rs.shape[:-1], buf.size), dtype=complex)
        pad[..., :dec.m] = rs
        rs = pad
    # not rs[..., idx]: it lays the row axes innermost, and products on it
    # round otherwise.  The indices are in range, so "clip" takes the same
    # entries, and unlike "raise" it writes into out without a buffer
    return np.take(rs, idx, axis=-1, out=out, mode="clip")


# Batched forms whose entries equal the unbatched ones bit for bit, as
# `np.einsum`, `(conj(w) * y).sum(1)`, `y @ conj(w)`, `np.abs(z)` and a
# product of complex arrays do not.

def _matvecs(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """a @ x for every row x of xs (rows along the last axis); a may be a
    stack of matrices, broadcast against the leading axes of xs."""
    return (a @ xs[..., None])[..., 0]


def _vdots(ws: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """np.vdot(w, y) for every pair of rows w of ws and y of ys, the
    leading axes broadcast."""
    return (ws.conj()[..., None, :] @ ys[..., None])[..., 0, 0]


def _powers(z: np.ndarray) -> np.ndarray:
    """|z|^2 of every entry, inf where it overflows.  Each equals Python's
    abs(z) ** 2 bit for bit: both take the hypot of the parts and libm's pow,
    where np.abs(z) ** 2 squares, and re^2 + im^2 rounds otherwise."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entry by entry, each rounded as a product of two complex
    scalars is; numpy's array product may fuse its multiply-adds."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def detect(x: complex) -> float:
    """Symbol decision sgn(Re(x)); zero breaks the tie as +1."""
    return 1.0 if x.real >= 0.0 else -1.0


def _detects(x: np.ndarray) -> np.ndarray:
    """`detect` of every entry of x.  On a symbol loop's few entries np.where
    costs less than the equal (x.real >= 0.0) * 2.0 - 1.0."""
    return np.where(x.real >= 0.0, 1.0, -1.0)
