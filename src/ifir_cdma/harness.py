"""Monte-Carlo link simulation: scenarios, trials, baselines, export.

A scenario fixes the system (processing gain, users, channel profile,
noise), the receiver (structure, algorithm, mode) and the experiment
(symbols, runs, seed).  `run_trial` simulates one seeded run and records
MSE, windowed SINR and cumulative BER; `run_campaign` averages
independent runs with spawned sub-seeds.

A trial takes the link a noise chunk at a time, as arrays of received
vectors, of their desired-only components and of the channel gains.
Every receiver has one shape (`_receiver`): it first despreads a chunk's
arrays, in one product for the RAKE and partial-despreading baselines
and as the identity for the interpolated receivers.  One symbol loop
then drives every algorithm through two calls on a row: `output(r)`
applies the current receiver and `adapt(r, d, g)` updates it, g being
the symbol's gains.
Per symbol it takes the decision output, adapts with the reference
symbol (training symbol, or the decision in decision-directed mode past
`n_tr`; blind receivers ignore it), then applies the updated receiver
to r and to its desired-only component.  MSE, BER and SINR are metered
after the loop; MSE and BER are a-priori and SINR a-posteriori.

Everything is deterministic for a fixed (config, seed): one Generator
per trial drives channel, symbols and noise in a fixed order, and the
campaign reduction is ordered by run index regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import adaptive, cmv, signal_model
from .interpolation import detect, impulse, make_decimation, receiver_output

CSV_COLUMNS = ["iteration", "mse", "sinr_db", "ber", "algorithm", "L", "N_I", "seed"]
SINR_WINDOW = 0.98
SUMMARY_TAIL = 200                    # last symbols the summary's MSE and SINR average
# Symbols per link chunk; its noise draw is 256 x 2 x M doubles, ~150 kB at M=36.
# It divides every fading period (powers of two from 2^16), which `_Link`
# relies on to draw a faded chunk's noise before its gains.
NOISE_CHUNK = 256

ALGORITHMS = ("lms", "rls", "cmv-sg", "cmv-rls", "rake", "pd-lms", "pd-rls")
MODES = ("training", "decision-directed", "blind")


class ConfigError(ValueError):
    """Scenario configuration violates an invariant."""


def _is_int(x) -> bool:
    """Integral (numpy integers included) and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _real(name: str, x):
    """x as a Python number (numpy scalars included); ConfigError unless real, not a
    bool, and within the range of a double (an int stays an int)."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ConfigError(f"{name} must be a number")
    try:
        float(x)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a double") from None
    # a numpy scalar becomes its Python value, which the JSON export encodes
    return x.item() if isinstance(x, np.generic) else x


def _reals(name: str, values) -> list:
    """A list or tuple of real numbers as Python numbers; ConfigError for anything else."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers")
    return [_real(f"each {name} entry", x) for x in values]


@dataclass
class ScenarioConfig:
    """Full description of one simulated scenario.

    A `path_delays` list fixes one delay per path power (distinct integers
    in [0, l_p)).  Without one, 1 to 3 powers are kept and the delays are
    drawn per run (first path at zero, second uniform on 1..4 chips, third
    uniform up to delay 5, so l_p must exceed 4 for two paths and 5 for
    three), the layout of the randomised multipath experiments.
    Interferer powers are dB offsets against the desired user, either
    fixed per user (`interferer_db`) or log-normal with
    `interferer_sigma_db`, not both.
    """

    n: int = 31                       # processing gain (31 or 63)
    k: int = 8                        # number of users
    l_p: int = 6                      # modelled delay spread (chips)
    l: int = 2                        # decimation factor
    n_i: int = 3                      # interpolator length
    algorithm: str = "rls"
    mode: str = "training"
    n_tr: int = 200                   # training symbols before decision-directed
    ebn0_db: float = 12.0
    interferer_db: list = None        # fixed per-interferer offsets (len k-1)
    interferer_sigma_db: float = 0.0  # log-normal power spread, 0 = equal power
    f_dt: float = 0.0                 # normalized Doppler, cycles/symbol
    path_powers: list = field(default_factory=lambda: [1.0, 0.5012, 0.3162])
    path_delays: list = None          # fixed delays; None draws them per run
    symbols: int = 2000
    runs: int = 50
    seed: int = 1
    mu0: float = 0.1                  # gradient convergence factor (filter)
    eta0: float = 0.05                # gradient convergence factor (interpolator)
    normalized_steps: bool = True
    alpha: float = 0.998              # RLS forgetting factor
    delta: float = 100.0              # RLS inverse initialisation scale
    freeze_interpolator: bool = False
    interpolator_init: str = "impulse"   # or "linear"
    known_channel: bool = True        # blind modes: use the true current channel, not a tracker
    pd_rank: int = 8                  # projected dimension for the pd baselines

    def __post_init__(self):
        self.validate()

    @property
    def m(self) -> int:
        return self.n + self.l_p - 1

    @property
    def gold_degree(self) -> int:
        """Degree of the Gold family whose codes have length n."""
        return 5 if self.n == 31 else 6

    @property
    def first_decided(self) -> int:
        """Index of the first symbol that counts toward the BER (0 when blind)."""
        return 0 if self.mode == "blind" else self.n_tr

    def validate(self) -> None:
        # integers are stored as Python ints, which the JSON export encodes
        for name in ("n", "k", "l_p", "l", "n_i", "n_tr", "symbols", "runs", "pd_rank", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
            setattr(self, name, int(getattr(self, name)))
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("normalized_steps", "freeze_interpolator", "known_channel"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false")
        for name in ("ebn0_db", "interferer_sigma_db", "f_dt", "mu0", "eta0", "alpha", "delta"):
            setattr(self, name, _real(name, getattr(self, name)))
        if self.n not in (31, 63):
            raise ConfigError("processing gain must be 31 or 63")
        gold_family = self.n + 2
        if not 1 <= self.k <= gold_family:
            raise ConfigError(f"user count must be in [1, {gold_family}]")
        for name in ("l_p", "l", "n_i", "symbols", "runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        # SeedSequence.spawn takes at most intp's maximum runs, and numpy sizes
        # arrays of at most intp's maximum bytes: a run's largest, the static
        # link's chip stream, holds (symbols + 2 l_s - 2) N + l_p - 1 complex doubles
        intp_max = np.iinfo(np.intp).max
        l_s = signal_model.isi_span(self.l_p, self.n)
        max_symbols = (intp_max // 16 - self.l_p + 1) // self.n - 2 * l_s + 2
        for name, most in (("runs", intp_max), ("symbols", max_symbols)):
            if getattr(self, name) > most:
                raise ConfigError(f"{name} must be at most {most}")
        if self.l > self.m:
            raise ConfigError("decimation factor exceeds the received length")
        m_red = make_decimation(self.m, self.l).m_red
        if self.n_i > m_red:
            raise ConfigError(f"interpolator length {self.n_i} exceeds M/L = {m_red}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.algorithm in ("cmv-sg", "cmv-rls") and self.mode != "blind":
            raise ConfigError("CMV algorithms run in blind mode")
        if self.mode == "blind" and self.algorithm in ("lms", "rls", "rake", "pd-lms", "pd-rls"):
            raise ConfigError(f"{self.algorithm} needs training or decision-directed mode")
        if not 0 < self.alpha <= 1:
            raise ConfigError("forgetting factor must lie in (0, 1]")
        if self.algorithm == "cmv-rls" and self.alpha == 1:
            raise ConfigError("cmv-rls needs a forgetting factor below 1")
        if self.interpolator_init not in ("impulse", "linear"):
            raise ConfigError("interpolator_init must be 'impulse' or 'linear'")
        if self.algorithm == "rake" and self.n_tr < 1:
            raise ConfigError("rake needs at least one training symbol")
        if self.n_tr < 0 or (self.mode == "decision-directed" and self.n_tr > self.symbols):
            raise ConfigError("training length must fit in the symbol budget")
        # the noise variance 10^(-ebn0_db/10) must be a finite double
        if not -10 * sys.float_info.max_10_exp <= self.ebn0_db < math.inf:
            raise ConfigError(f"ebn0_db must be finite and at least "
                              f"{-10 * sys.float_info.max_10_exp} dB")
        if not 0 <= self.f_dt < 0.5:
            raise ConfigError("f_dt must lie in [0, 0.5) cycles per symbol")
        powers = self.path_powers = _reals("path_powers", self.path_powers)
        # the profile is scaled to unit norm, so its squared norm must be
        # a positive finite double
        if not (all(0 <= p < math.inf for p in powers)
                and 0 < math.fsum(p * p for p in map(float, powers)) < math.inf):
            raise ConfigError("path powers must be finite and non-negative, with a "
                              "positive finite sum of squares")
        n_paths = len(self.path_powers)
        if self.path_delays is not None:
            if not isinstance(self.path_delays, (list, tuple)):
                raise ConfigError("path_delays must be a list of integers")
            if len(self.path_delays) != n_paths:
                raise ConfigError("path_delays needs one delay per path power")
            if any(not (_is_int(d) and 0 <= d < self.l_p) for d in self.path_delays):
                raise ConfigError("path delays must be integers in [0, l_p)")
            if len(set(self.path_delays)) != n_paths:
                raise ConfigError("path delays must be distinct")
            self.path_delays = [int(d) for d in self.path_delays]
        elif not 1 <= n_paths <= 3 or self.l_p <= (0, 4, 5)[n_paths - 1]:
            raise ConfigError("drawn delays take 1 to 3 path powers and l_p above the "
                              "largest delay (4 for two paths, 5 for three)")
        if self.interferer_db is not None:
            offsets = self.interferer_db = _reals("interferer_db", self.interferer_db)
            if len(offsets) != self.k - 1:
                raise ConfigError("interferer_db must list k - 1 offsets")
            # the interferer power 10^(o/10) must be a finite double
            if not all(-math.inf < o <= 10 * sys.float_info.max_10_exp for o in offsets):
                raise ConfigError(f"interferer offsets must be finite and at most "
                                  f"{10 * sys.float_info.max_10_exp} dB")
        # a draw must pass 38 sigma to reach the offset cap above at 80 dB,
        # a chance below 1e-300; wider spreads overflow the amplitudes
        if not 0 <= self.interferer_sigma_db <= 80:
            raise ConfigError("interferer_sigma_db must lie in [0, 80] dB")
        if self.interferer_db is not None and self.interferer_sigma_db > 0:
            raise ConfigError("give interferer_db or interferer_sigma_db, not both")
        for name in ("mu0", "eta0", "delta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive")
        if not 1 <= self.pd_rank <= self.m:
            raise ConfigError("pd_rank must be in [1, M]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return cls(**d)


@dataclass
class MetricSeries:
    """Per-iteration metrics for one run (or a run average)."""

    mse: np.ndarray
    sinr_db: np.ndarray
    ber: np.ndarray
    metadata: dict

    def __post_init__(self):
        if not (len(self.mse) == len(self.sinr_db) == len(self.ber)):
            raise ValueError("metric series lengths differ")

    def summary(self) -> dict:
        """Tail means of MSE and SINR; final_ber is None if no symbol was decided."""
        tail = min(SUMMARY_TAIL, len(self.mse))
        return {
            "final_mse": float(np.mean(self.mse[-tail:])),
            "final_sinr_db": float(np.mean(self.sinr_db[-tail:])),
            "final_ber": float(self.ber[-1]) if self.metadata["decided"] else None,
        }


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

def _draw_channel(cfg: ScenarioConfig, rng: np.random.Generator) -> signal_model.ChannelRealization:
    delays = cfg.path_delays
    if delays is None:
        delays = [0]
        if len(cfg.path_powers) > 1:
            tau2 = int(rng.integers(1, 5))
            delays.append(tau2)
            if len(cfg.path_powers) > 2:
                delays.append(tau2 + int(rng.integers(1, 6 - tau2)))
    return signal_model.make_channel(cfg.path_powers, delays, cfg.l_p, doppler=cfg.f_dt, rng=rng)


def _draw_amplitudes(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    amps = np.ones(cfg.k)
    if cfg.k > 1:
        if cfg.interferer_db is not None:
            offs = np.asarray(cfg.interferer_db, dtype=float)
        elif cfg.interferer_sigma_db > 0:
            offs = rng.normal(0.0, cfg.interferer_sigma_db, cfg.k - 1)
        else:
            offs = np.zeros(cfg.k - 1)
        amps[1:] = 10.0 ** (offs / 20.0)
    return amps


def _interpolator_init(cfg: ScenarioConfig) -> np.ndarray:
    if cfg.interpolator_init == "impulse":
        return impulse(cfg.n_i)
    # triangular kernel, the classic fixed interpolator
    half = (cfg.n_i - 1) / 2.0
    v = np.array([1.0 - abs(i - half) / (half + 1.0) for i in range(cfg.n_i)],
                 dtype=complex)
    return v / np.linalg.norm(v)


class _Link:
    """One run's synthesized downlink, handed out a noise chunk at a time.

    `chunks()` yields a chunk's received vectors R = clean + noise
    (chunk x M), desired symbols b, desired-only components
    R_des = (A_0 b)[:, None] * signature and path gains G (chunk x l_p).
    Static clean rows are views of one convolved chip stream, and G a
    read-only view repeating `channel.gains`.  A faded link draws the
    chunk's path gains after its noise and forms its clean rows and
    signatures in batched products; `channel.gains` keeps the gains the
    channel was made with.

    Noise before gains keeps the generator order of per-symbol gain
    steps: gains draw only at a fading period's first sample (its
    spectrum), symbol period - 1, the last of a chunk, as NOISE_CHUNK
    divides the period.  Per-symbol draws would take that symbol's noise
    after the spectrum, so from there on a faded link's noise parts from
    them; a static link's never does.
    """

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.codes = signal_model.gen_gold_set(cfg.gold_degree, cfg.k)
        self.channel = _draw_channel(cfg, rng)
        self.amps = _draw_amplitudes(cfg, rng)
        self.sigma2 = 10.0 ** (-cfg.ebn0_db / 10.0)
        self.l_s = signal_model.isi_span(cfg.l_p, cfg.n)
        self.m = cfg.m
        span = 2 * self.l_s - 1
        self.bits = np.where(rng.random((cfg.k, cfg.symbols + span - 1)) < 0.5, -1.0, 1.0)
        self.desired = self.bits[0, self.l_s - 1:self.l_s - 1 + cfg.symbols]   # b of symbol i
        self._static = cfg.f_dt <= 0
        # superposed user by user: a K x symbols x N temporary costs ~4 MB
        stream = np.zeros(self.bits.shape[1] * cfg.n)
        for amp, bits, code in zip(self.amps, self.bits, self.codes):
            stream += np.outer(amp * bits, code).ravel()
        view = np.lib.stride_tricks.sliding_window_view   # read-only, within bounds
        if self._static:
            # row i of _clean is the convolved stream from chip (i + l_s - 1) N on
            conv = np.convolve(stream, self.channel.gains)
            self._clean = view(conv, self.m)[(self.l_s - 1) * cfg.n::cfg.n]
            self.signature = signal_model.effective_signature(self.codes[0], self.channel.gains)
        else:
            # windows[i] @ gains is the noiseless r of symbol i, and
            # code_matrix @ gains its desired signature: windows[i][m, l]
            # is the chip stream at (i + l_s - 1) N + m - l.
            first = (self.l_s - 1) * cfg.n - (cfg.l_p - 1)
            rows = view(stream[first:], self.m + cfg.l_p - 1)[::cfg.n]
            self._windows = view(rows, cfg.l_p, axis=1)[:, :, ::-1]
            self._code_matrix = cmv.shifted_signatures(self.codes[0], cfg.l_p)

    def chunks(self):
        """Yield (R, b, R_des, G) for each noise chunk, in symbol order."""
        for i in range(0, self.cfg.symbols, NOISE_CHUNK):
            size = min(NOISE_CHUNK, self.cfg.symbols - i)
            z = self.rng.standard_normal((size, 2, self.m))
            # R = sqrt(sigma2 / 2) (z_re + j z_im) + clean, formed in place to save peak memory
            rs = 1j * z[:, 1]
            rs += z[:, 0]
            rs *= np.sqrt(self.sigma2 / 2.0)
            b = self.desired[i:i + size]
            if self._static:
                clean, signature = self._clean[i:i + size], self.signature
                gains = np.broadcast_to(self.channel.gains, (size, self.cfg.l_p))
            else:
                gains = signal_model.fading_gains(self.channel, size, self.rng)
                # batched as a @ g[..., None], each product equals the
                # per-symbol a @ g bit for bit; g @ a.T sums in another order
                clean = (self._windows[i:i + size] @ gains[:, :, None])[..., 0]
                signature = (self._code_matrix @ gains[:, :, None])[..., 0]
            rs += clean
            yield rs, b, (self.amps[0] * b)[:, None] * signature, gains


def _sinr_db(p_des: list, p_rest: list) -> np.ndarray:
    """Exponentially windowed ground-truth SINR of a linear receiver, per symbol.

    `p_des` and `p_rest` hold the powers of the receiver's output for the
    desired-only component of r and for the rest, interference and noise.
    The window recursion runs on Python floats.
    """
    w = SINR_WINDOW
    num = den = 0.0
    ratio = []
    for des, rest in zip(p_des, p_rest):
        num = w * num + (1 - w) * des
        den = w * den + (1 - w) * rest
        ratio.append(max(num, 1e-300) / max(den, 1e-300))
    return 10.0 * np.log10(ratio)


def _pd_projection(code: np.ndarray, m: int, rank: int) -> np.ndarray:
    """Partial-despreading projection: columns hold disjoint signature segments.

    The M samples are split into `rank` contiguous segments; column j is
    the zero-padded signature restricted to segment j (an identity
    pass-through on segments past the signature support, so rank = M
    spans the full space and rank = 1 is the plain despreader).
    """
    code = np.asarray(code, dtype=complex)
    padded = np.zeros(m, dtype=complex)
    padded[:code.size] = code
    bounds = np.linspace(0, m, rank + 1).astype(int)
    t = np.zeros((m, rank), dtype=complex)
    for j in range(rank):
        seg = slice(bounds[j], bounds[j + 1])
        t[seg, j] = padded[seg] if np.any(padded[seg]) else 1.0
    return t


# ---------------------------------------------------------------------------
# receivers and the trial loop
# ---------------------------------------------------------------------------

class _Projected:
    """RAKE and partial-despreading baselines: a combiner w on y = proj^H r.

    RAKE's combiner is the least-squares channel estimate from the first
    n_tr symbols, scaled to unit gain; the normal matrix G = C^H C of its
    shifted signatures C is inverted once per run.  pd-lms and pd-rls
    adapt w with the kernels of `lms` and `rls` on the filter alone:
    `adaptive._gradient` (normalised by ||y||^2 under `normalized_steps`)
    and `adaptive._rls_filter` on the inverse covariance `p_inv`,
    counting breakdowns in `breakdowns`.  `despread` projects a chunk's
    received vectors at once; `output` and `adapt` then take one row y of
    it (`adapt` ignores the gains).
    """

    def __init__(self, cfg: ScenarioConfig, link: _Link):
        self.cfg = cfg
        code = link.codes[0]
        if cfg.algorithm == "rake":
            proj = cmv.shifted_signatures(code, cfg.l_p)
            self.gram_inv = np.linalg.inv(proj.conj().T @ proj)
            self.acc = np.zeros(cfg.l_p, dtype=complex)   # sum of conj(b) y so far
            self.trained = 0
        else:
            proj = _pd_projection(code, cfg.m, cfg.pd_rank)
            self.p_inv = cfg.delta * np.eye(cfg.pd_rank, dtype=complex)
        self.proj_h = proj.conj().T
        self.w = np.zeros(proj.shape[1], dtype=complex)
        self.breakdowns = 0

    def despread(self, rs: np.ndarray) -> np.ndarray:
        """proj^H r for every row r of rs; each row equals proj_h @ r bit for bit."""
        return (self.proj_h[None] @ rs[:, :, None])[..., 0]

    def output(self, y: np.ndarray) -> complex:
        return complex(np.vdot(self.w, y))

    def adapt(self, y: np.ndarray, d: float, g: np.ndarray) -> None:
        cfg = self.cfg
        if cfg.algorithm == "rake":
            if self.trained < cfg.n_tr:
                self.trained += 1
                self.acc += np.conj(d) * y
                a = self.acc / self.trained
                g_hat = self.gram_inv @ a
                # G g_hat = a, so the unit-gain scale g_hat^H G g_hat is g_hat^H a
                self.w = g_hat / max(np.real(np.vdot(g_hat, a)), 1e-12)
            return
        ce = np.conj(d - complex(np.vdot(self.w, y)))
        if cfg.algorithm == "pd-rls":
            self.p_inv, self.w, broke = adaptive._rls_filter(self.p_inv, self.w, y, ce,
                                                             cfg.alpha, cfg.delta)
            self.breakdowns += broke
        else:
            self.w = adaptive._gradient(self.w, y, ce, cfg.mu0, cfg.normalized_steps)


def _receiver(cfg: ScenarioConfig, link: _Link):
    """(despread, output, adapt, state) of the configured receiver.

    `despread(rs)` maps a chunk's received vectors to the rows the
    receiver takes: proj^H r for the baselines (`_Projected`), r itself
    for the interpolated receivers.  `output(r)` applies the current
    receiver to a row and `adapt(r, d, g)` runs one adaptive step with
    reference symbol d (the blind steps ignore it) on a symbol with
    channel gains g.  A blind step takes g each symbol when the known
    channel fades, and a tracker's estimate, updated on r, each symbol
    when the channel is not known (`known_channel` false).  The link is
    read here only, for its code and initial gains.  `state` serves the
    phase alignment and carries the RLS breakdowns.
    """
    if cfg.algorithm in ("rake", "pd-lms", "pd-rls"):
        rx = _Projected(cfg, link)
        return rx.despread, rx.output, rx.adapt, rx
    dec = make_decimation(cfg.m, cfg.l)
    v0 = _interpolator_init(cfg)
    adapt_v = not cfg.freeze_interpolator
    if cfg.algorithm == "lms":
        st = adaptive.make_trained_sg(dec, v0, cfg.mu0, cfg.eta0,
                                      normalized=cfg.normalized_steps)
        adapt = lambda r, d, g: adaptive.lms_step(st, r, d, adapt_v=adapt_v)
    elif cfg.algorithm == "rls":
        st = adaptive.make_trained_rls(dec, v0, alpha=cfg.alpha, delta=cfg.delta)
        adapt = lambda r, d, g: adaptive.rls_step(st, r, d, adapt_v=adapt_v)
    else:
        cons = cmv.build_constraints(link.codes[0], dec,
                                     g=link.channel.gains if cfg.known_channel else None)
        if cfg.algorithm == "cmv-sg":
            st = adaptive.make_blind_sg(cons, v0, cfg.mu0, cfg.eta0,
                                        normalized=cfg.normalized_steps)
            step = adaptive.cmv_sg_step
        else:
            st = adaptive.make_blind_rls(cons, v0, alpha=cfg.alpha, delta=cfg.delta)
            step = adaptive.cmv_rls_step
        if not cfg.known_channel:
            tracker = adaptive.SgChannelTracker(cons.c, alpha=cfg.alpha)
            adapt = lambda r, d, g: step(st, r, adapt_v=adapt_v, g=tracker.update(r))
        elif cfg.f_dt > 0:
            adapt = lambda r, d, g: step(st, r, adapt_v=adapt_v, g=g)
        else:
            adapt = lambda r, d, g: step(st, r, adapt_v=adapt_v)
    return (lambda rs: rs), (lambda r: receiver_output(st, r)), adapt, st


def _align_phase(x: complex, g_hat: np.ndarray, g_true: np.ndarray) -> complex:
    """Remove the channel tracker's phase ambiguity using the true channel.

    Simulation stand-in for ideal phase tracking: rotate the decision
    statistic by the phase the tracker's estimate g_hat carries relative
    to the strongest true path.
    """
    ref = int(np.argmax(np.abs(g_true)))
    if abs(g_hat[ref]) < 1e-12 or abs(g_true[ref]) < 1e-12:
        return x
    rot = (g_true[ref] / abs(g_true[ref])) / (g_hat[ref] / abs(g_hat[ref]))
    return x * np.conj(rot)


def _power(z: complex) -> float:
    """|z|^2 in Python arithmetic; inf where it overflows."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def run_trial(cfg: ScenarioConfig, run_seed) -> MetricSeries:
    """Simulate one seeded run of the configured scenario.

    The symbol loop records the decision output and decision (a-priori)
    and the updated receiver's outputs for r and its desired-only part
    (a-posteriori).  MSE, BER and the windowed SINR are metered from those
    records after the loop.  The metadata counts decided symbols and the
    RLS breakdowns (0 for receivers without RLS); `phase_reference` is
    "genie" where `_align_phase` rotated the decisions by the true
    channel (tracked blind runs), else None.  A diverged run, one whose
    squared error or a-posteriori output power overflows or is not
    finite, raises LinAlgError.
    """
    cfg.validate()
    link = _Link(cfg, np.random.default_rng(run_seed))
    despread, output, adapt, st = _receiver(cfg, link)
    t = cfg.symbols
    x, bhat, out, out_des = [0j] * t, [0.0] * t, [0j] * t, [0j] * t
    tracking = cfg.mode == "blind" and not cfg.known_channel
    directed_from = cfg.n_tr if cfg.mode == "decision-directed" else t
    i = 0
    for rs, bs, rs_des, gs in link.chunks():
        rs, rs_des = despread(rs), despread(rs_des)
        for r, b, r_des, g in zip(rs, bs, rs_des, gs):
            xi = output(r)
            if tracking:
                xi = _align_phase(xi, st.g_hat, g)
            d = detect(xi)
            adapt(r, d if i >= directed_from else b, g)
            x[i], bhat[i] = xi, d
            out[i] = output(r)
            out_des[i] = output(r_des)
            i += 1
    mse = np.array([_power(b - xi) for b, xi in zip(link.desired.tolist(), x)])
    p_des = [_power(d) for d in out_des]
    p_rest = [_power(o - d) for o, d in zip(out, out_des)]
    finite = np.isfinite([mse, p_des, p_rest]).all(axis=0)
    if not finite.all():
        raise np.linalg.LinAlgError(f"run seed {run_seed} diverged: the squared error or "
                                    f"output power of symbol {np.argmin(finite)} is not finite")
    first = cfg.first_decided
    wrong = np.asarray(bhat) != link.desired
    wrong[:first] = False
    ber = np.cumsum(wrong) / np.maximum(np.arange(t) - first + 1, 1)
    return MetricSeries(mse=mse, sinr_db=_sinr_db(p_des, p_rest), ber=ber,
                        metadata={**cfg.to_dict(), "run_seed": int(run_seed),
                                  "decided": max(t - first, 0),
                                  "breakdowns": getattr(st, "breakdowns", 0),
                                  "phase_reference": "genie" if tracking else None})


def iter_symbols(cfg: ScenarioConfig, run_seed):
    """Yield (r, b, r_desired, g) per symbol of one seeded scenario run,
    g being the symbol's channel gains (length l_p).

    Drives the same synthesized downlink as `run_trial` without any
    receiver attached; useful for custom adaptation protocols and for
    validating analysis predictions against simulation.
    """
    cfg.validate()
    for chunk in _Link(cfg, np.random.default_rng(run_seed)).chunks():
        yield from zip(*chunk)


def run_campaign(cfg: ScenarioConfig, workers: int = 1) -> MetricSeries:
    """Average cfg.runs independent trials (spawned sub-seeds of cfg.seed).

    MSE and the SINR's power ratio average linearly across runs; BER
    averages directly and the RLS breakdowns add up.  The reduction is
    ordered by run index, so the result is independent of `workers`.
    The pool holds at most one process per run and per CPU this process
    may use, since it may start all of them at once.
    """
    runs = cfg.runs
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(runs)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, runs, cpus or 1)
    if workers > 1:
        # imported here, so a start that needs no pool loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, [cfg] * runs, seeds))
    else:
        results = [run_trial(cfg, seed) for seed in seeds]
    mse = np.mean([res.mse for res in results], axis=0)
    sinr_lin = np.mean([10.0 ** (res.sinr_db / 10.0) for res in results], axis=0)
    ber = np.mean([res.ber for res in results], axis=0)
    meta = {**results[0].metadata, "runs_averaged": runs, "run_seed": cfg.seed,
            "breakdowns": sum(res.metadata["breakdowns"] for res in results)}
    return MetricSeries(mse=mse, sinr_db=10.0 * np.log10(np.maximum(sinr_lin, 1e-300)),
                        ber=ber, metadata=meta)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _rows(series: MetricSeries):
    meta = series.metadata
    alg = meta.get("algorithm", "")
    l = meta.get("l", "")
    n_i = meta.get("n_i", "")
    seed = meta.get("run_seed", meta.get("seed", ""))
    for i in range(len(series.mse)):
        yield [i, float(series.mse[i]), float(series.sinr_db[i]),
               float(series.ber[i]), alg, l, n_i, seed]


def export(series: MetricSeries, path, fmt: str = "csv") -> None:
    """Write a metric series to disk as CSV or JSON (stable column order)."""
    fmt = fmt.lower()
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(_rows(series))
    elif fmt == "json":
        doc = {
            "metadata": series.metadata,
            "columns": CSV_COLUMNS,
            "series": {
                "iteration": list(range(len(series.mse))),
                "mse": series.mse.tolist(),
                "sinr_db": series.sinr_db.tolist(),
                "ber": series.ber.tolist(),
            },
            "summary": series.summary(),
        }
        # compact json.dumps runs the C encoder (json.dump never does); it
        # encodes before the file opens, so a value it cannot encode leaves none
        text = json.dumps(doc)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        raise ValueError("format must be 'csv' or 'json'")
