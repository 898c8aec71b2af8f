"""Pieces of the synchronous DS-CDMA downlink signal model.

The chip-rate received vector for one symbol interval is

    r(i) = H(i) * sum_k A_k S_k b_k(i) + n(i),

where H(i) is the banded multipath convolution matrix, S_k stacks
non-overlapping shifted copies of user k's signature, b_k(i) is the
window of symbols whose energy reaches the current observation window
(past, current, future), and n(i) is circular complex Gaussian noise
with covariance sigma2 * I; r(i) has length M = N + L_p - 1 (N chips
per symbol, L_p channel paths).  This module provides the Gold
signatures, the multipath channel and its Doppler fading, the ISI span
and the effective signature; `harness._Link` synthesises r(i) from them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# Preferred-pair LFSR feedback taps (exponents of the primitive
# polynomials) per register degree.  Both pairs were checked to give the
# three-valued Gold cross-correlation family.
_PREFERRED_PAIRS = {
    5: ((5, 2), (5, 4, 3, 2)),
    6: ((6, 1), (6, 5, 2, 1)),
}


def isi_span(l_p: int, n: int) -> int:
    """Number of one-sided symbols whose multipath tail reaches the window.

    1 for a flat channel, 2 while the delay spread stays within one
    symbol, and one more for every additional N chips of spread.
    """
    if l_p <= 1:
        return 1
    return (l_p + n - 1) // n + 1


def _lfsr_sequence(taps, degree: int) -> np.ndarray:
    """One period of the m-sequence from a Fibonacci LFSR (all-ones seed)."""
    length = (1 << degree) - 1
    register = [1] * degree
    out = np.empty(length, dtype=np.int8)
    for i in range(length):
        out[i] = register[-1]
        fb = 0
        for t in taps:
            fb ^= register[t - 1]
        register = [fb] + register[:-1]
    return out


def gen_gold_set(degree: int, count: int) -> np.ndarray:
    """Generate `count` unit-norm Gold signatures of length N = 2**degree - 1.

    Returns the K x N code array, one user per row.  The family is
    [u, v, u + T^k v] for the fixed preferred pair of m-sequences, in
    that order, so the set is reproducible.  Chips are mapped
    0 -> +1/sqrt(N), 1 -> -1/sqrt(N).

    Raises
    ------
    ValueError
        If the degree is unsupported or `count` exceeds the family size.
    """
    if degree not in _PREFERRED_PAIRS:
        raise ValueError(f"unsupported Gold degree {degree}; choose from {sorted(_PREFERRED_PAIRS)}")
    n = (1 << degree) - 1
    if not 1 <= count <= n + 2:
        raise ValueError(f"count {count} outside family size {n + 2}")
    taps_u, taps_v = _PREFERRED_PAIRS[degree]
    u = _lfsr_sequence(taps_u, degree)
    v = _lfsr_sequence(taps_v, degree)
    family = [u, v]
    for k in range(n):
        if len(family) >= count:
            break
        family.append(u ^ np.roll(v, k))
    bits = np.array(family[:count])
    return (1.0 - 2.0 * bits.astype(float)) / np.sqrt(n)


# Largest phasor matrix (samples x in-band bins) a fading chunk is
# evaluated with; bounds memory for any Doppler below 0.5.
_CHUNK_ELEMENTS = 1 << 16
# Floor on 1 - (f/f_d)^2 inside the Doppler band.  The Jakes spectrum is
# singular at the band edge f = f_d, so the bins nearest it would take
# almost all of the power; the floor caps their mask at 0.01^(-1/4).
_CLIP = 0.01


def _period(doppler: float) -> int:
    """Samples N per fading period: a power of two in [2^16, 2^22], N f_d >= 64 if it fits."""
    size = 1 << 16
    while size * doppler < 64 and size < (1 << 22):
        size *= 2
    return size


@functools.lru_cache(maxsize=4)
def _inband(period: int, doppler: float):
    """In-band bins, shaping mask and chunk phasor matrix of one Doppler spectrum.

    The bins are the indices k (signed, in np.fft.fftfreq order) with
    |fftfreq(period)[k]| < doppler, found without building the length-
    `period` frequency axis.  The phasor matrix holds exp(2 pi i k j /
    period) for the chunk offsets j.  All three depend only on the
    arguments, so every path of a scenario shares one read-only copy.
    """
    step = 1.0 / period                       # fftfreq's spacing, exact for powers of 2
    reach = int(doppler * period) + 1
    k = np.arange(-reach, reach + 1)
    k = k[(k >= -(period // 2)) & (k <= (period - 1) // 2) & (np.abs(k * step) < doppler)]
    k = np.concatenate((k[k >= 0], k[k < 0]))
    mask = np.maximum(1.0 - (k * step / doppler) ** 2, _CLIP) ** -0.25
    chunk = max(1, _CHUNK_ELEMENTS // k.size)
    phasors = np.exp((2j * np.pi / period) * np.outer(np.arange(chunk), k))
    for a in (k, mask, phasors):
        a.flags.writeable = False
    return k, mask, phasors


@dataclass
class FadingProcess:
    """Doppler-shaped complex Gaussian gain track for one path.

    The process is periodic with period N (a power of two, at least 2^16,
    large enough that ~128 bins fall inside the Doppler band).  At the
    start of a period a white circular complex Gaussian spectrum is drawn
    on the in-band bins |k/N| < f_d only, shaped by the amplitude mask
    (1 - (k/(N f_d))^2)^(-1/4) (the square root of the Clarke/Jakes power
    spectrum 1/sqrt(1 - (f/f_d)^2), clipped near the band-edge
    singularity at _CLIP) and scaled by Parseval so the period has unit
    average power exactly.  The gain autocorrelation is then close to
    J0(2 pi f_d tau).  Samples are the inverse DFT of that spectrum,

        g[n] = sum_k S_k exp(2 pi i k n / N),

    evaluated on demand (Young & Beaulieu, IEEE TCOM 2000): a chunk of
    consecutive samples is one matrix-vector product of the shared
    (chunk x bins) phasor matrix with the spectrum turned by the chunk's
    start phase.  `_block` holds the current chunk and `_pos` indexes it.
    A run that uses T samples costs O(T * 2 f_d N) work and at most
    _CHUNK_ELEMENTS phasors of memory, instead of an N-point FFT.

    The law is that of filtering a white time-domain block in the
    frequency domain: the DFT of white circular Gaussian noise is white
    circular Gaussian, and out-of-band bins are masked to zero, so
    drawing only the in-band bins gives the same Gaussian process.  Only
    the seeded draws differ.
    """

    doppler: float                    # f_d * T, cycles per symbol
    _block: np.ndarray = field(default=None, repr=False)
    _pos: int = 0
    _start: int = 0                   # position of _block[0] in the period
    _spectrum: np.ndarray = field(default=None, repr=False)

    def next_gains(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """The next `count` samples, copied slice by slice out of the chunks.

        A chunk is made, and a new period's spectrum drawn from `rng`,
        only when its first sample is taken, so any split of the same
        samples into calls draws the same values in the same order.
        """
        if self.doppler <= 0:
            raise ValueError("static channel has no fading process")
        out = np.empty(count, dtype=complex)
        done = 0
        while done < count:
            if self._block is None or self._pos >= self._block.size:
                self._next_chunk(rng)
            take = min(count - done, self._block.size - self._pos)
            out[done:done + take] = self._block[self._pos:self._pos + take]
            self._pos += take
            done += take
        return out

    def next_gain(self, rng: np.random.Generator) -> complex:
        return self.next_gains(1, rng)[0]

    def _next_chunk(self, rng: np.random.Generator) -> None:
        period = _period(self.doppler)
        k, mask, phasors = _inband(period, self.doppler)
        start = 0 if self._block is None else (self._start + self._block.size) % period
        if start == 0:
            white = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
            shaped = mask * white
            self._spectrum = shaped / np.sqrt(np.vdot(shaped, shaped).real)
        size = min(phasors.shape[0], period - start)
        turn = np.exp((2j * np.pi / period) * ((k * start) % period))
        self._block = phasors[:size] @ (turn * self._spectrum)
        self._start = start
        self._pos = 0


@dataclass
class ChannelRealization:
    """Multipath channel: per-path amplitudes, delays, and fading state.

    `gains` holds the gains the channel was made with (a fading
    channel's first sample; `fading_gains` draws the ones after it).  It
    always has length l_p (the modelled delay spread); inactive delays
    hold zeros.  The amplitude profile has unit norm.
    """

    gains: np.ndarray                 # length l_p, complex, as made
    path_powers: np.ndarray = None    # amplitude profile p_l at active delays
    path_delays: np.ndarray = None
    fading: list = None               # FadingProcess per active path, None if static


def make_channel(path_powers, path_delays, l_p: int, doppler: float = 0.0,
                 rng: np.random.Generator | None = None) -> ChannelRealization:
    """Assemble a ChannelRealization from an amplitude/delay profile.

    The profile is normalised to unit total power.  With `doppler > 0`
    each active path gets an independent fading process whose first gain
    is drawn at once, so a fresh channel is already a valid realization.
    """
    powers = np.asarray(path_powers, dtype=float)
    delays = np.asarray(path_delays, dtype=int)
    if powers.shape != delays.shape:
        raise ValueError("path_powers and path_delays must have the same length")
    if np.any(delays < 0) or np.any(delays >= l_p):
        raise ValueError("path delays must lie in [0, l_p)")
    if len(set(delays.tolist())) != delays.size:
        raise ValueError("path delays must be distinct")
    powers = powers / np.linalg.norm(powers)
    gains = np.zeros(l_p, dtype=complex)
    fading = None
    if doppler > 0:
        if rng is None:
            raise ValueError("fading channels need an rng")
        fading = [FadingProcess(doppler) for _ in delays]
        for p, d, proc in zip(powers, delays, fading):
            gains[d] = p * proc.next_gain(rng)
    else:
        gains[delays] = powers
    return ChannelRealization(gains=gains, path_powers=powers, path_delays=delays,
                              fading=fading)


def fading_gains(channel: ChannelRealization, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """The next `count` gain vectors of a fading channel, as count x l_p rows.

    Rows are consecutive symbol intervals, each path's process going on
    where it stopped; inactive delays hold zeros.  The processes advance
    path by path, and `channel.gains` itself is left unchanged.
    """
    gains = np.zeros((count, channel.gains.size), dtype=complex)
    for p, d, proc in zip(channel.path_powers, channel.path_delays, channel.fading):
        gains[:, d] = p * proc.next_gains(count, rng)
    return gains


def effective_signature(code: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Signature convolved with the path gains (the current-symbol response)."""
    return np.convolve(np.asarray(code, dtype=complex), np.asarray(gains, dtype=complex))
