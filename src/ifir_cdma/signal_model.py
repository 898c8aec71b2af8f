"""Synchronous DS-CDMA downlink signal synthesis.

Generates the chip-rate received vector for one symbol interval,

    r(i) = H(i) * sum_k A_k S_k b_k(i) + n(i),

where H(i) is the banded multipath convolution matrix, S_k stacks
non-overlapping shifted copies of user k's signature, b_k(i) is the
window of symbols whose energy reaches the current observation window
(past, current, future), and n(i) is circular complex Gaussian noise
with covariance sigma2 * I.

Received vectors have length M = N + L_p - 1 (N chips per symbol,
L_p channel paths).  Symbol windows are stored in time order, oldest
symbol first, so the centre column of a frame is the current symbol.
"""

from __future__ import annotations

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


@dataclass
class SpreadingSet:
    """Per-user unit-norm signatures."""

    codes: np.ndarray                 # K x N, entries +-1/sqrt(N)


def gen_gold_set(degree: int, count: int) -> SpreadingSet:
    """Generate `count` Gold signatures of length 2**degree - 1.

    The family is [u, v, u + T^k v] for the fixed preferred pair of
    m-sequences, in that order, so the set is reproducible.  Chips are
    mapped 0 -> +1/sqrt(N), 1 -> -1/sqrt(N).

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
    codes = (1.0 - 2.0 * bits.astype(float)) / np.sqrt(n)
    return SpreadingSet(codes=codes)


@dataclass
class FadingProcess:
    """Doppler-shaped complex Gaussian gain track for one path.

    Samples are produced in blocks: a long white complex Gaussian block
    is shaped in the frequency domain by the Doppler transfer mask
    1/sqrt(1 - (f/f_d)^2), clipped near the band edge singularity, and
    empirically renormalised to unit average power.
    """

    doppler: float                    # f_d * T, cycles per symbol
    clip: float = 0.01                # floor on 1 - (f/f_d)^2 inside the band
    _block: np.ndarray = field(default=None, repr=False)
    _pos: int = 0

    def _block_size(self) -> int:
        size = 1 << 16
        while size * self.doppler < 64 and size < (1 << 22):
            size *= 2
        return size

    def next_gain(self, rng: np.random.Generator) -> complex:
        if self.doppler <= 0:
            raise ValueError("static channel has no fading process")
        if self._block is None or self._pos >= self._block.size:
            nblk = self._block_size()
            f = np.fft.fftfreq(nblk)
            mask = np.zeros(nblk)
            inband = np.abs(f) < self.doppler
            mask[inband] = 1.0 / np.sqrt(np.maximum(1.0 - (f[inband] / self.doppler) ** 2, self.clip))
            white = (rng.standard_normal(nblk) + 1j * rng.standard_normal(nblk)) / np.sqrt(2.0)
            shaped = np.fft.ifft(np.fft.fft(white) * mask)
            shaped /= np.sqrt(np.mean(np.abs(shaped) ** 2))
            self._block = shaped
            self._pos = 0
        g = self._block[self._pos]
        self._pos += 1
        return g


@dataclass
class ChannelRealization:
    """Multipath channel: per-path amplitudes, delays, and fading state.

    `gains` always has length l_p (the modelled delay spread); inactive
    delays hold zeros.  With fading enabled the amplitude profile is
    normalised so the average total path power is one.
    """

    gains: np.ndarray                 # length l_p, complex
    doppler: float = 0.0
    path_powers: np.ndarray = None    # amplitude profile p_l at active delays
    path_delays: np.ndarray = None
    fading: list = None               # FadingProcess per active path

    @property
    def l_p(self) -> int:
        return self.gains.size


def make_channel(path_powers, path_delays, l_p: int, doppler: float = 0.0,
                 rng: np.random.Generator | None = None,
                 normalize: bool | None = None) -> ChannelRealization:
    """Assemble a ChannelRealization from an amplitude/delay profile.

    With `doppler > 0` each active path gets an independent fading
    process and the profile is normalised to unit total power (override
    with `normalize`).  Initial fading gains are drawn immediately so a
    fresh channel is already a valid realization.
    """
    powers = np.asarray(path_powers, dtype=float)
    delays = np.asarray(path_delays, dtype=int)
    if powers.shape != delays.shape:
        raise ValueError("path_powers and path_delays must have the same length")
    if np.any(delays < 0) or np.any(delays >= l_p):
        raise ValueError("path delays must lie in [0, l_p)")
    if normalize is None:
        normalize = doppler > 0
    if normalize:
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
    return ChannelRealization(gains=gains, doppler=doppler, path_powers=powers,
                              path_delays=delays, fading=fading)


def fading_step(channel: ChannelRealization, rng: np.random.Generator) -> ChannelRealization:
    """Advance every path gain by one symbol interval.

    Zero Doppler leaves the channel untouched.  The channel object is
    updated in place and returned.
    """
    if channel.doppler <= 0 or channel.fading is None:
        return channel
    for p, d, proc in zip(channel.path_powers, channel.path_delays, channel.fading):
        channel.gains[d] = p * proc.next_gain(rng)
    return channel


@dataclass
class SymbolFrame:
    """Window of +-1 symbols per user, time ordered, centre = current."""

    bits: np.ndarray                  # K x (2*l_s - 1)
    amplitudes: np.ndarray            # K


def synthesize_received(spreading: SpreadingSet, channel: ChannelRealization,
                        frame: SymbolFrame, sigma2: float,
                        rng: np.random.Generator) -> np.ndarray:
    """One received vector r = H sum_k A_k S_k b_k + n, length N + L_p - 1.

    Noise is circular complex Gaussian with E[n n^H] = sigma2 * I.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    codes = spreading.codes
    k_users, n = codes.shape
    if frame.bits.shape[0] != k_users:
        raise ValueError("frame/user count mismatch")
    l_s = (frame.bits.shape[1] + 1) // 2
    if frame.bits.shape[1] != 2 * l_s - 1:
        raise ValueError("frame must hold an odd number of symbols")
    # Superpose chip streams, then convolve with the path gains; this is
    # the windowed product H @ (sum_k A_k S_k b_k) without forming H.
    stream = (frame.amplitudes[:, None, None] * frame.bits[:, :, None]
              * codes[:, None, :]).sum(axis=0).ravel()
    full = np.convolve(stream, channel.gains)
    off = (l_s - 1) * n
    m = n + channel.l_p - 1
    r = full[off:off + m].astype(complex)
    if sigma2 > 0:
        r = r + np.sqrt(sigma2 / 2.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return r


def effective_signature(code: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Signature convolved with the path gains (the current-symbol response)."""
    return np.convolve(np.asarray(code, dtype=complex), np.asarray(gains, dtype=complex))
