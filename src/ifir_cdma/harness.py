"""Monte-Carlo link simulation: scenarios, trials, baselines, export.

A scenario fixes the system (processing gain, users, channel profile,
noise), the receiver (structure, algorithm, mode) and the experiment
(symbols, runs, seed).  `run_trial` simulates one seeded run and records
MSE, windowed SINR and cumulative BER; `run_campaign` averages
independent runs with spawned sub-seeds.

The pieces:

- `_Links`, the one synthesis path, holds the links of a block of seeded
  runs and draws any of its runs' received vectors r, desired symbols
  and channel gains over a stretch of symbols.
- A receiver draws what it reads from the links, steps over it and
  records it (`record`), a piece of symbols per call: the RAKE and
  partial-despreading baselines (`_Projected`) a chunk, the interpolated
  receivers (`_Interpolated`) a lone run's chunk or a stacked block's
  sub-chunk.
  Per symbol it records the decision output (a-priori: the receiver
  before the symbol), adapts with the reference symbol (training symbol,
  or the decision in decision-directed mode past `n_tr`; blind receivers
  ignore it), and records the updated receiver's outputs for r and for
  the desired user's effective signature (a-posteriori), whose product
  with the symbol is its output for r's desired-only component.
- `_run_block` is a block's one loop over its symbols: it hands the
  receiver its pieces and meters each stretch of records once recorded
  (`_Meter`): MSE and BER (a-priori) and SINR (a-posteriori), in arrays,
  each power equal to Python's abs(z) ** 2 bit for bit.  `run_trial` is
  a block of one.
- `run_campaign` runs its runs in blocks, as many as BLOCK_BYTES of
  memory allows by a count of what each kind of run holds
  (`_block_width`), and at least one per worker; an interpolated campaign
  of fewer than STACK_MIN_RUNS runs takes one run per block.  Each run's
  series equals its `run_trial` byte for byte, and goes into the
  campaign's running sums as its block finishes (`_reduce`).

Everything is deterministic for a fixed (config, seed): one Generator
per run drives channel, symbols and noise in a fixed order, and the
campaign reduction is ordered by run index regardless of worker count
or blocking.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import adaptive, cmv, signal_model
from .interpolation import (_cmul, _detects, _matvecs, _powers, _segment_matrices, _vdots, detect,
                            impulse, make_decimation, receiver_output, receiver_outputs)

CSV_COLUMNS = ["iteration", "mse", "sinr_db", "ber", "algorithm", "L", "N_I", "seed"]
SINR_WINDOW = 0.98
SUMMARY_TAIL = 200                    # last symbols the summary's MSE and SINR average
# Symbols per link chunk; its noise draw is 256 x 2 x M doubles, ~150 kB at M=36.
# It divides every fading period (powers of two from 2^16), which `_Links`
# relies on to draw a faded chunk's noise before its gains, as does
# STACK_CHUNK for a stacked block's sub-chunks.
NOISE_CHUNK = 256

ALGORITHMS = ("lms", "rls", "cmv-sg", "cmv-rls", "rake", "pd-lms", "pd-rls")
BASELINES = ("rake", "pd-lms", "pd-rls")   # the receivers `_Projected` runs
# Bytes a block may hold by `_block_width`'s count of what each kind of run
# holds.  At the defaults that is, in runs of 400 symbols, 65 lms, 56 rls,
# 63 cmv-sg and 51 cmv-rls runs (51 tracked cmv-rls, 36 to 40 faded
# interpolated), 13 rake runs and 10 pd-lms and pd-rls (faded 9, 8 and 8),
# so that a 50-run interpolated campaign of 400 symbols is one block.  A
# block holds its records a stretch at a time, so its width falls with
# length only through its runs' series: 16 or 17 interpolated runs at 5000
# symbols, and every kind of static interpolated run falls to 3 runs from
# ~26300 to ~26700 symbols, 2 from ~35600 to ~36100 and 1 from ~54300 to
# ~54800 (rake from ~16500, ~24800 and ~41300, pd-lms and pd-rls from
# ~14500, ~22700 and ~39200).  The 400-symbol blocks of as many runs as
# that peak at 1.4 to 2.9 MB traced (tracemalloc, numpy 2.4), 50-run ones
# of lms at 2.21 MB, rls 2.57, cmv-sg 2.34 and cmv-rls 2.75, each run
# holding, between blocks of width - 4 and width runs, lms 41 kB, rls 49,
# cmv-sg 42, cmv-rls 52, tracked cmv-rls 52, faded cmv-sg 68, rake 188,
# pd-lms 137 and pd-rls 190, a baseline block holding one run's chunk draw
# on top.
BLOCK_BYTES = 3_000_000
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


class _Links:
    """The synthesized downlinks of a block of seeded runs, drawn a stretch
    of symbols at a time.

    Each run's Generator draws its channel, then its amplitudes, then its
    symbols, and later each stretch's noise and (faded) path gains, in
    that order.  The block stacks what the draw reads along a leading run
    axis: symbols (`packed`, a bit each: `symbols` gives a stretch as
    int8 +-1, and `desired` the desired user's as floats), amplitudes, and
    a static run's response table and signature.  A static run's table
    (`_response_tables`) holds, per user k and symbol q of the ISI span,
    the M samples of r that the symbol reaches, which is the user's
    effective signature shifted by (q - l_s + 1) N chips.
    `channels[r].gains` keeps the gains run r's channel was made with.

    `draw` forms every asked run's rows of a stretch at once.  A static
    stretch's clean rows are one batched product of each run's table with
    its symbols' windows of A_k b_k over the span (`_matvecs`), each equal
    bit for bit to the per-symbol product, and G is a read-only view
    repeating each run's gains.  A faded stretch superposes the chips its
    clean rows read (`_chips`), draws each run's path gains after its
    noise and forms its clean rows in batched products.  Each stretch
    holds the same values as one stream of every symbol would, and each
    faded clean row the same sums, so any split of the symbols into
    stretches, or of the runs, draws the same rows.

    Noise before gains keeps the generator order of per-symbol gain
    steps: gains draw only at a fading period's first sample (its
    spectrum), symbol period - 1, the last of a chunk and of a sub-chunk,
    as NOISE_CHUNK and STACK_CHUNK divide the period.  Per-symbol draws
    would take that symbol's noise after the spectrum, so from there on a
    faded run's noise parts from them; a static run's never does.
    """

    def __init__(self, cfg: ScenarioConfig, seeds):
        self.cfg, self.m = cfg, cfg.m
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.codes = signal_model.gen_gold_set(cfg.gold_degree, cfg.k)
        self.sigma2 = 10.0 ** (-cfg.ebn0_db / 10.0)
        self.l_s = signal_model.isi_span(cfg.l_p, cfg.n)
        self.static = cfg.f_dt <= 0
        self.channels = []
        self.amps = np.empty((len(seeds), cfg.k))
        length = cfg.symbols + 2 * self.l_s - 2   # each user's symbols and their ISI spans
        self.packed = np.empty((len(seeds), cfg.k, -(-length // 8)), dtype=np.uint8)
        for rng, amps, packed in zip(self.rngs, self.amps, self.packed):
            self.channels.append(_draw_channel(cfg, rng))
            amps[...] = _draw_amplitudes(cfg, rng)
            packed[...] = np.packbits(rng.random((cfg.k, length)) < 0.5, axis=-1)
        if self.static:
            responses = np.array([[signal_model.effective_signature(code, channel.gains)
                                   for code in self.codes] for channel in self.channels])
            self.signatures = responses[:, 0].copy()   # a view would keep every user's
            # a static channel's gains are its path amplitudes, so the responses are real
            self.tables = self._response_tables(responses.real)
            self.gains = np.array([channel.gains for channel in self.channels])
        else:
            self.code_matrix = cmv.shifted_signatures(self.codes[0], cfg.l_p)

    def _response_tables(self, responses: np.ndarray) -> np.ndarray:
        """Per run, the M x K (2 l_s - 1) table whose column k (2 l_s - 1) + q
        holds the samples of r that symbol q of user k's window reaches, at
        unit amplitude: its effective signature `responses[r, k]` shifted by
        (q - l_s + 1) N chips and cut to the M samples."""
        n, m, span = self.cfg.n, self.m, 2 * self.l_s - 1
        table = np.zeros((len(responses), m, responses.shape[1], span))
        for q in range(span):
            lead = (self.l_s - 1 - q) * n   # the response's sample at the window's first
            lo, hi = max(0, -lead), min(m, m - lead)
            table[:, lo:hi, :, q] = responses[:, :, lo + lead:hi + lead].swapaxes(1, 2)
        return table.reshape(len(responses), m, -1)

    def draw(self, i: int, size: int, out=None, runs=slice(None)):
        """(R, b, G) of symbols i to i + size - 1 of the runs `runs` picks:
        each with a leading run axis for a slice, without one for a run's
        index.  R holds the received vectors R = clean + noise (size x M a
        run), b the desired symbols and G the path gains (size x l_p).  For
        a slice, R goes into `out` where given (runs x size x M, any
        strides)."""
        if not isinstance(runs, slice):
            return tuple(a[0] for a in self.draw(i, size, runs=slice(runs, runs + 1)))
        cfg, m, rngs = self.cfg, self.m, self.rngs[runs]
        n, l_p, span = cfg.n, cfg.l_p, 2 * self.l_s - 1
        view = np.lib.stride_tricks.sliding_window_view   # read-only, within bounds
        z = np.empty((len(rngs), size, 2, m))
        for k, rng in enumerate(rngs):   # no loop name keeps a view of z past its del
            rng.standard_normal(out=z[k])
        # R = sqrt(sigma2 / 2) (z_re + j z_im) + clean, formed in place to save
        # peak memory: each part of z scaled straight into its part of R
        rs = np.empty((len(rngs), size, m), dtype=complex) if out is None else out
        scale = np.sqrt(self.sigma2 / 2.0)
        np.multiply(z[:, :, 0], scale, out=rs.real)
        np.multiply(z[:, :, 1], scale, out=rs.imag)
        del z   # the arrays below are made without the noise draw alongside
        if self.static:
            # every user's symbols over the stretch's spans, the desired user's
            # symbol i + k at entry l_s - 1 + k.  windows[r, k] holds A_j b_j
            # over symbol i + k's span, user by user, so that each clean row
            # is its run's table's product with its window
            bits = self.symbols(i, i + size + span - 1, runs)
            b = bits[:, 0, self.l_s - 1:self.l_s - 1 + size].astype(float)
            scaled = self.amps[runs, :, None] * bits
            windows = view(scaled, span, axis=2).transpose(0, 2, 1, 3)
            clean = _matvecs(self.tables[runs, None], windows.reshape(len(rngs), size, -1))
            # R += clean on the parts: numpy adds a real array to a complex one
            # as clean + 0j, and on a gather buffer's strided rows the complex
            # sum would hold three complex iteration buffers
            np.add(rs.real, clean, out=rs.real)
            np.add(rs.imag, 0.0, out=rs.imag)
            del clean
            gains = np.broadcast_to(self.gains[runs, None], (len(rngs), size, l_p))
        else:
            b = self.desired(i, size, runs)
            chips = self._chips(i, size, runs)
            gains = np.array([signal_model.fading_gains(channel, size, rng)
                              for channel, rng in zip(self.channels[runs], rngs)])
            # windows[r, k] @ g is run r's noiseless r of symbol i + k:
            # windows[r, k][m, l] is the chip at k N + m - l + l_p - 1.
            # Batched as a @ g[..., None], each product equals the per-symbol
            # a @ g bit for bit; g @ a.T sums in another order.  numpy makes
            # a complex copy of the windows it multiplies, so they go a run
            # and SUB_CHUNK at a time, each added to its rows of R at once
            windows = view(view(chips, m + l_p - 1, axis=1)[:, ::n], l_p, axis=2)[..., ::-1]
            clean = np.empty((min(size, SUB_CHUNK), m, 1), dtype=complex)
            for r, a, g in zip(rs, windows, gains):
                for k in range(0, size, SUB_CHUNK):
                    part = np.matmul(a[k:k + SUB_CHUNK], g[k:k + SUB_CHUNK, :, None],
                                     out=clean[:min(SUB_CHUNK, size - k)])
                    r[k:k + SUB_CHUNK] += part[..., 0]
        return rs, b, gains

    def symbols(self, lo: int, hi: int, runs=slice(None), users=slice(None)) -> np.ndarray:
        """Entries lo to hi - 1 of the symbol streams of the users `users`
        picks (a slice) in the runs `runs` picks, as int8 +-1 (runs x users x
        (hi - lo)).  Entry l_s - 1 + i is symbol i; the l_s - 1 before the
        first and after the last are the ISI span's.  The streams are held
        packed, a bit to a symbol, set for -1."""
        first = lo // 8
        bits = np.unpackbits(self.packed[runs, users, first:-(-hi // 8)], axis=-1)
        return np.array([1, -1], dtype=np.int8).take(bits[..., lo - 8 * first:hi - 8 * first])

    def desired(self, i: int, size: int, runs=slice(None)) -> np.ndarray:
        """The desired user's symbols i to i + size - 1 of the runs `runs`
        picks (a slice), as floats (runs x size)."""
        lo = self.l_s - 1 + i
        return self.symbols(lo, lo + size, runs, slice(1))[:, 0].astype(float)

    def effective_signatures(self, gains: np.ndarray, runs) -> np.ndarray:
        """The desired user's effective signatures of the runs `runs` picks (a
        slice, or a run's index): a static run's fixed signature as one row
        (1 x M), a faded run's C g for each symbol's path gains g (size x M,
        from `draw`'s G), C the desired user's shifted signatures
        (`_matvecs`)."""
        if self.static:
            return self.signatures[runs][..., None, :]
        return _matvecs(self.code_matrix, gains)

    def _chips(self, i: int, size: int, runs: slice) -> np.ndarray:
        """The chip streams of the runs `runs` picks that the clean rows of
        symbols i to i + size - 1 read: (size - 1) N + M + l_p - 1 chips from
        chip (i + l_s - 1) N - (l_p - 1) on, superposed user by user."""
        n, l_p = self.cfg.n, self.cfg.l_p
        start = (i + self.l_s - 1) * n - (l_p - 1)
        length = (size - 1) * n + self.m + l_p - 1
        lo, hi = start // n, -(-(start + length) // n)   # the symbols it spans
        amps, bits = self.amps[runs], self.symbols(lo, hi, runs)
        stream = np.zeros((len(amps), hi - lo, n))
        for a, b, code in zip(amps.T, bits.swapaxes(0, 1), self.codes):
            stream += (a[:, None] * b)[..., None] * code
        return stream.reshape(len(amps), -1)[:, start - lo * n:start - lo * n + length]


def _sinr_db(p_des: np.ndarray, p_rest: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Exponentially windowed ground-truth SINR of a linear receiver, per
    run and symbol.

    `p_des` and `p_rest` (runs x symbols) hold the powers of the
    receiver's output for the desired-only component of r and for the
    rest, interference and noise.  The window recursion runs over the
    symbols on Python floats for one run, and on float64 arrays across
    the runs for several, where it costs less; both round alike.  It
    starts from `window` (2 x runs: the windowed powers before the first
    symbol, zeros before a run's first) and leaves there the ones after
    the last, so that any split of the symbols into stretches gives the
    same SINR.
    """
    w = SINR_WINDOW
    # (symbols, 2, runs), so that each step reads and writes contiguous rows
    acc = np.moveaxis((1 - w) * np.stack([p_des, p_rest]), -1, 0).copy()
    if len(p_des) == 1:
        num, den = window[:, 0].tolist()
        sums = []
        for des, rest in acc[..., 0].tolist():
            num, den = w * num + des, w * den + rest
            sums.append((num, den))
        acc[..., 0] = sums
    else:
        prev = window
        for row in acc:
            row += w * prev
            prev = row
    window[...] = acc[-1]
    ratio = np.maximum(acc, 1e-300)
    return (10.0 * np.log10(ratio[:, 0] / ratio[:, 1])).T


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


def _solves(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """np.linalg.solve(a, b) on a stack of matrices a and right-hand sides
    b, or np.linalg.inv(a) without b; each matrix's result equals its own
    call's bit for bit.  A singular matrix's result is NaN, so that its
    run's outputs are not finite and the metering names the run and symbol
    as it names a diverged one."""
    args, fn = ((a,), np.linalg.inv) if b is None else ((a, b), np.linalg.solve)
    try:
        return fn(*args)
    except np.linalg.LinAlgError:
        out = np.full(args[-1].shape, np.nan, dtype=complex)
        for k in np.ndindex(a.shape[:-2]):
            try:
                out[k] = fn(*(arg[k] for arg in args))
            except np.linalg.LinAlgError:
                pass
        return out


# ---------------------------------------------------------------------------
# receivers and the trial loop
# ---------------------------------------------------------------------------

# Symbols a stacked interpolated block records and meters at once, and the
# sub-chunk of pd-rls's solve.  pd-rls takes a sub-chunk's combiners
# (`_Projected._solved`) from one weighted prefix sum and one batched
# solve, on at most NOISE_CHUNK // d symbols, which is 32 at the default
# d = 8.  There, with the despreading (CPU time, one BLAS thread, 2-vCPU
# host), sub-chunks of 32 symbols took 2.4 / 2.1 / 2.0 / 1.9 us per run and
# symbol in blocks of 1 / 2 / 3 / 9 runs, and of 64 symbols 2.0 / 1.9 /
# 2.2 / 1.9; 8 and 16 took longer.
SUB_CHUNK = 32
# Symbols per sub-chunk of a stacked interpolated block, which draws every
# run's rows of r of a sub-chunk at once, gathers their Re in one
# `_segment_matrices` call and takes their a-posteriori outputs in one
# `receiver_outputs` call, then does the same for its effective
# signatures.  Its buffers hold ~1.8 kB per run and symbol of a sub-chunk
# at the defaults, its draw ~0.6 kB more, so its size moves memory more
# than speed.  In one 50-run, 400-symbol block (median of 15 interleaved
# CPU-time runs, 2-vCPU host), sub-chunks of 4 / 8 / 16 / 32 symbols ran
# lms in 93 / 80 / 73 / 70 ms, rls 154 / 143 / 134 / 124, cmv-sg 122 /
# 116 / 109 / 101 and cmv-rls 173 / 159 / 150 / 151, while the block
# peaked at 1.7-2.4 / 2.2-2.8 / 3.1-3.5 / 5.0-5.4 MB traced: 8 is the
# largest that keeps such a block within BLOCK_BYTES.
STACK_CHUNK = 8


class _Projected:
    """RAKE and partial-despreading baselines of a block of runs: a
    combiner w per run on y = proj^H r.

    RAKE's combiner is the least-squares channel estimate from the first
    n_tr symbols, scaled to unit gain; the normal matrix G = C^H C of its
    shifted signatures C is inverted once.  It trains on the transmitted
    symbols in either trained mode and then freezes, so it feeds no
    decision back.  pd-lms adapts w with the kernel of `lms` on the filter
    alone, `adaptive._gradient` with the step mu0, or mu0 / ||y||^2 under
    `normalized_steps`.  pd-rls takes w as the exponentially weighted
    least-squares solution R^-1 p of `rls` on the filter alone, R the
    weighted covariance of the rows from I / delta on and p their weighted
    cross-correlation with the references (`_solved`); it has no rank-one
    update to break down, so its `breakdowns` stay 0.  The block's runs
    (`links`) share the desired user's code, so they share the projection
    and G; each holds its own state along the first axis of `w` (runs x
    d), pd-rls's `cov` (runs x d x d) and `cross` (runs x d), RAKE's
    running sum `acc` (runs x l_p) and `breakdowns`.  `despread` projects
    received vectors at once, and `record` takes a chunk's outputs from
    the combiners that `combiners` forms along it.  Its runs draw their
    chunks in turn (`_take`), each despread into the block's one chunk
    buffer of rows (`chunk`) and freed before the next run draws, so that
    the block holds one run's drawn chunk at a time.
    """

    # Symbols metered at once, and recorded a chunk per `record` call: four
    # chunks, so that a long block of few runs pays the metering's per-call
    # cost (~40 us) less often.  Against one chunk, 2-run, 2000-symbol rake
    # and pd-rls campaigns took 10.8 and 19.2 ms against 11.4 and 20.1
    # (CPU-time medians of 60 and 40 alternations, 2-vCPU host); 50 x 400
    # rake campaigns took the same.
    span, piece = 4 * NOISE_CHUNK, NOISE_CHUNK

    def __init__(self, cfg: ScenarioConfig, links: _Links):
        self.cfg, self.links = cfg, links
        code, runs = links.codes[0], len(links.rngs)
        if cfg.algorithm == "rake":
            proj = cmv.shifted_signatures(code, cfg.l_p)
            self.gram_inv = np.linalg.inv(proj.conj().T @ proj)
            self.acc = np.zeros((runs, cfg.l_p), dtype=complex)   # sum of conj(b) y so far
        else:
            proj = _pd_projection(code, cfg.m, cfg.pd_rank)
        if cfg.algorithm == "pd-rls":
            d = cfg.pd_rank
            self.cov = np.tile(np.eye(d, dtype=complex) / cfg.delta, (runs, 1, 1))
            self.cross = np.zeros((runs, d), dtype=complex)
            # Sub-chunks of SUB_CHUNK symbols; fewer where d is large, so that a
            # run's d x d statistics for one hold at most NOISE_CHUNK d entries,
            # as many as its chunk of rows, and where alpha is small, so that
            # the weights alpha^-t stay at most 1e100
            sub = min(SUB_CHUNK, max(1, NOISE_CHUNK // d))
            if cfg.alpha < 1:
                sub = min(sub, 1 + int(100 / -math.log10(cfg.alpha)))
            self.weights = cfg.alpha ** -np.arange(sub, dtype=float)   # alpha^-t
        self.proj_h = proj.conj().T
        self.w = np.zeros((runs, proj.shape[1]), dtype=complex)
        self.chunk = np.empty((runs, min(NOISE_CHUNK, cfg.symbols), proj.shape[1]), dtype=complex)
        self.breakdowns = np.zeros(runs, dtype=int)

    def despread(self, rs: np.ndarray) -> np.ndarray:
        """proj^H r for every row r of rs; each row equals proj_h @ r bit for bit."""
        return _matvecs(self.proj_h, rs)

    def _take(self, into: np.ndarray, first: int, run: int) -> np.ndarray:
        """Run `run`'s chunk from symbol `first` on, len(into) symbols, drawn
        and despread into `into`; returns its gains.  The drawn rows are
        freed on return, before the next run draws."""
        rs, _, gains = self.links.draw(first, len(into), runs=run)
        into[...] = self.despread(rs)
        return gains

    def record(self, rec: np.ndarray, first: int) -> None:
        """Every run's x, out and h of the chunk from symbol `first` on into
        rec (3 x runs x chunk): x by the combiner before each symbol, the
        rest after, h on the despread effective signatures.  The runs draw
        first, then the arithmetic runs with numpy's warnings off
        (`_run_block`)."""
        ys = self.chunk[:, :rec.shape[-1]]
        gs = [self._take(y, first, k) for k, y in enumerate(ys)]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ws = self.combiners(ys, self.links.desired(first, ys.shape[1]), first)
            rec[0] = _vdots(ws[:, :-1], ys)
            rec[1] = _vdots(ws[:, 1:], ys)
            for k, gains in enumerate(gs):
                sigs = self.links.effective_signatures(gains, k)
                rec[2, k] = _vdots(ws[k, 1:], self.despread(sigs))

    def combiners(self, ys: np.ndarray, bs: np.ndarray, first: int) -> np.ndarray:
        """Every run's combiner before a chunk and after each of its symbols.

        `ys` (runs x chunk x d) and `bs` (runs x chunk) hold the chunk's
        despread rows and transmitted symbols, `first` the index of its
        first symbol; row k + 1 of a run's result is its w after symbol
        first + k.  Each row of RAKE and pd-lms equals, bit for bit, the
        update made one symbol at a time; pd-rls's solves the least-squares
        problem that update tracks, so it equals it to rounding.

        RAKE: past n_tr the frozen w, else g / Re(g^H a), a the mean of
        conj(b) y so far and g = G^-1 a, as array products: the sum runs
        in symbol order on from the carried one, and the products are
        `_matvecs` and `_vdots`.  pd-lms: a decision-feedback loop that
        takes x = w^H y and adapts w with the error ref - x, the reference
        being b, or from n_tr on in decision-directed mode the decision on x
        (`_feedback`).  pd-rls: the solved least-squares combiners of the
        references, which are b or, from n_tr on, the decisions (`_solved`).
        """
        cfg = self.cfg
        runs, size = bs.shape
        ws = np.empty((runs, size + 1, self.w.shape[1]), dtype=complex)
        ws[:, 0] = self.w
        if cfg.algorithm == "rake":
            trained = min(max(cfg.n_tr - first, 0), size)
            if trained:
                terms = np.conj(bs[:, :trained])[..., None] * ys[:, :trained]
                acc = np.cumsum(np.concatenate([self.acc[:, None], terms], axis=1), axis=1)[:, 1:]
                a = acc / np.arange(first + 1, first + trained + 1)[:, None]
                g_hat = _matvecs(self.gram_inv, a)
                # G g_hat = a, so the unit-gain scale g_hat^H G g_hat is g_hat^H a
                ws[:, 1:trained + 1] = g_hat / np.maximum(_vdots(g_hat, a).real, 1e-12)[..., None]
                self.acc = acc[:, -1]
            ws[:, trained + 1:] = ws[:, trained, None]
        else:
            # the chunk offset from which decisions are the reference
            directed = cfg.n_tr - first if cfg.mode == "decision-directed" else size
            (self._solved if cfg.algorithm == "pd-rls" else self._feedback)(ws, ys, bs, directed)
        self.w = ws[:, -1].copy()
        return ws

    def _feedback(self, ws, ys, bs, directed: int) -> None:
        """pd-lms's decision-feedback loop of a chunk, into the runs' combiners
        ws.  Its forms are bound once by width: a lone run's `np.vdot`,
        `detect` and `adaptive._gradient`, where stacked state costs more per
        symbol than it saves, or their forms on a row per run.  It takes the
        chunk's steps at once: mu0, or under `normalized_steps` mu0 / ||y||^2,
        0 where ||y||^2 vanishes (w holds no -0.0, so w + 0 is w bit for bit)."""
        cfg = self.cfg
        one = len(bs) == 1
        if one:
            w = self.w[0]
            output, decide, gradient = np.vdot, detect, adaptive._gradient
            rows, refs, out = ys[0], bs[0].tolist(), ws[0, 1:]
        else:
            w = self.w
            output, decide, gradient = _vdots, _detects, adaptive._gradients
            # per symbol: every run's row, reference and combiner
            rows, refs, out = np.moveaxis(ys, 1, 0), bs.T, np.moveaxis(ws[:, 1:], 1, 0)
        if cfg.normalized_steps:
            den = _vdots(ys, ys).real
            steps = np.divide(cfg.mu0, den, out=np.zeros_like(den), where=den > adaptive._TINY)
        else:
            steps = np.full(bs.shape, cfg.mu0)
        steps = steps[0].tolist() if one else steps.T
        for k, (y, b) in enumerate(zip(rows, refs)):
            x = output(w, y)
            w = gradient(w, y, np.conj((decide(x) if k >= directed else b) - x), steps[k], False)
            out[k] = w

    def _solved(self, ws, ys, bs, directed: int) -> None:
        """pd-rls's combiners of a chunk into ws, a sub-chunk of
        len(`weights`) symbols at a time, on one code for every width.

        With t counted from the sub-chunk's first symbol and the weights
        alpha^-t, the statistics after symbol t are R_t = alpha R +
        sum_{j<=t} alpha^-j y_j y_j^H and p_t = alpha p + sum_{j<=t}
        alpha^-j conj(ref_j) y_j, R and p being the carried `cov` and
        `cross`, and w_t = R_t^-1 p_t: the scale alpha^t that the weights
        leave out cancels.  Each sum runs in symbol order.  The trained
        symbols' w come from one batched solve (`_solves`).  From
        `directed` on, the reference is the decision on x = w^H y, so a
        loop adds each decided term to p, on R's inverses from one batched
        call.  The sub-chunk hands on alpha^(n-1) R_{n-1} and
        alpha^(n-1) p_{n-1}, n its length.  Its boundaries and weights do
        not depend on `directed`, so a decision-directed run repeats the
        training run before n_tr byte for byte."""
        alpha, weights = self.cfg.alpha, self.weights
        for j0 in range(0, bs.shape[1], len(weights)):
            y = ys[:, j0:j0 + len(weights)]
            n = y.shape[1]
            trained = min(max(directed - j0, 0), n)
            wy = y * weights[:n, None]
            cov = wy[..., :, None] * y.conj()[..., None, :]
            cov[:, 0] += alpha * self.cov
            np.cumsum(cov, axis=1, out=cov)
            # p before the sub-chunk, then after each trained symbol
            cross = np.concatenate([alpha * self.cross[:, None],
                                    wy[:, :trained] * bs[:, j0:j0 + trained, None]], axis=1)
            np.cumsum(cross, axis=1, out=cross)
            solved = _solves(cov[:, :trained], cross[:, 1:, :, None])
            ws[:, j0 + 1:j0 + trained + 1] = solved[..., 0]
            p = cross[:, trained]
            if trained < n:
                inv = _solves(cov[:, trained:])
                w = ws[:, j0 + trained]
                for t in range(trained, n):
                    p = p + _detects(_vdots(w, y[:, t]))[:, None] * wy[:, t]
                    w = ws[:, j0 + t + 1] = _matvecs(inv[:, t - trained], p)
            scale = alpha ** (n - 1)
            self.cov = scale * cov[:, -1]
            self.cross = scale * p


def _state(cfg: ScenarioConfig, code: np.ndarray, gains: np.ndarray):
    """(state, tracker) of an interpolated receiver (`lms`, `rls`, `cmv-sg`
    or `cmv-rls`) on one run, which `_Interpolated` steps alone or stacked
    with its block's: the state its `adaptive.make_*` factory makes, and
    the channel tracker of a blind run whose channel is not known
    (`known_channel` false), else None.  A blind run's constraints read
    the desired user's `code` and, when the channel is known, the
    channel's initial `gains`."""
    dec = make_decimation(cfg.m, cfg.l)
    v0 = _interpolator_init(cfg)
    if cfg.algorithm == "lms":
        return adaptive.make_trained_sg(dec, v0, cfg.mu0, cfg.eta0,
                                        normalized=cfg.normalized_steps), None
    if cfg.algorithm == "rls":
        return adaptive.make_trained_rls(dec, v0, alpha=cfg.alpha, delta=cfg.delta), None
    cons = cmv.build_constraints(code, dec, g=gains if cfg.known_channel else None)
    if cfg.algorithm == "cmv-sg":
        st = adaptive.make_blind_sg(cons, v0, cfg.mu0, cfg.eta0, normalized=cfg.normalized_steps)
    else:
        st = adaptive.make_blind_rls(cons, v0, alpha=cfg.alpha, delta=cfg.delta)
    tracker = None if cfg.known_channel else adaptive.SgChannelTracker(cons.c, alpha=cfg.alpha)
    return st, tracker


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


def _align_phases(x: np.ndarray, g_hat: np.ndarray, g_true: np.ndarray) -> np.ndarray:
    """`_align_phase` of every run, g_hat and g_true holding a row per run;
    each equals its own bit for bit.  A modulus is np.hypot of the parts,
    which rounds as abs of a complex scalar does, where np.abs of a
    complex array need not."""
    runs = np.arange(len(x))
    ref = np.argmax(np.abs(g_true), axis=1)
    true, hat = g_true[runs, ref], g_hat[runs, ref]
    true_mod, hat_mod = np.hypot(true.real, true.imag), np.hypot(hat.real, hat.imag)
    rot = (true / true_mod) / (hat / hat_mod)
    return np.where((hat_mod < 1e-12) | (true_mod < 1e-12), x, _cmul(x, np.conj(rot)))


def _each_step(step, s, r, b=None, adapt_v: bool = True, directed: bool = False, g=None):
    """A per-run `step` (`lms_step`, ...) in the form of the stacked ones:
    the run's a-priori output x = receiver_output(s, r), decided every
    symbol (the traced benchmark dates a trial's loop by the decisions),
    then `step` with the reference b, or with the decision when `directed`,
    or, blind (b None), with the constraint values g.  Returns x."""
    x = receiver_output(s, r)
    d = detect(x)
    if b is None:
        step(s, r, adapt_v=adapt_v, g=g)
    else:
        step(s, r, d if directed else b, adapt_v=adapt_v)
    return x


# An interpolated campaign of fewer runs than this runs each run in a block
# of its own (`_block_width`).  Every interpolated block of two runs or more
# steps them on stacked state (`adaptive.stack`), a lone run on its own.  A
# stacked symbol pays its numpy calls once for the block, but its larger
# arrays cost more per call.  Against one run at a time, blocks of 1 / 2 /
# 3 / 4 runs of 400 symbols ran (median of 15 interleaved pairs, CPU time,
# 2-vCPU host): lms x0.94 / x1.54 / x2.18 / x2.67, rls x0.84 / x1.54 /
# x2.25 / x2.48, cmv-sg x0.61 / x1.13 / x1.60 / x1.95, cmv-rls x0.83 /
# x1.50 / x1.88 / x2.38.  It stays at 4, above that crossover (2 runs), so
# that the 3-run smoke benchmark keeps the per-run path its self-test pins.
STACK_MIN_RUNS = 4


class _Interpolated:
    """The interpolated receivers of a block of runs, with `_Projected`'s
    `record`, which draws its runs' rows of r and steps the runs over them
    in one symbol loop.  A lone run steps on its own state (`state`, the
    one `_state` made) with the per-run forms (`_each_step` around
    `*_step`, `_align_phase`, ...), a chunk per call: it draws its chunk of
    rows of r (`_Links.draw`) and steps on the drawn array as it is.  A
    block of two runs or more steps one stack of its runs' states
    (`state`, `adaptive.stack`), made once, with the forms that take a row
    per run (`*_steps`, `_align_phases`, ...) on the Re of every run's r,
    metered a stretch of SUB_CHUNK symbols at a time and recorded a
    sub-chunk of STACK_CHUNK per call: it draws every run's rows of the
    sub-chunk together, straight into its gather buffer (`pad`), so that
    it never holds a chunk of rows per run.  `tracker` is the lone run's
    channel tracker or the stack of the block's, None where the channel
    is known.  The receiver forms its runs' effective signatures from the
    drawn gains where it reads them (`_Links.effective_signatures`)."""

    def __init__(self, cfg: ScenarioConfig, links: _Links):
        self.cfg, self.links = cfg, links
        runs = len(links.rngs)
        self.states, trackers = zip(*(_state(cfg, links.codes[0], channel.gains)
                                      for channel in links.channels))
        self.state, self.tracker = self.states[0], trackers[0]
        self.span = self.piece = NOISE_CHUNK   # symbols metered at once, and per `record` call
        if runs > 1:
            self.span, self.piece = SUB_CHUNK, STACK_CHUNK
            s = self.state = adaptive.stack(self.states)
            self.tracker = self.tracker and adaptive.stack(trackers)
            sub = min(STACK_CHUNK, cfg.symbols)
            # every run's filters after each symbol of a sub-chunk
            self.vs = np.empty((sub, *s.v.shape), dtype=complex)
            self.ws = np.empty((sub, *s.w.shape), dtype=complex)
            # a sub-chunk's rows, zero-padded to the gather's width, and their
            # Re: symbol-major, so that each symbol's Re is C-contiguous
            idx, buf = s.dec.segment_index(s.n_i)
            self.pad = np.zeros((sub, runs, buf.size), dtype=complex)
            self.res = np.empty((sub, runs, *idx.shape), dtype=complex)

    @property
    def breakdowns(self) -> list:
        # a stack's counts go into its runs' own states, the ones their factories made
        if hasattr(self.state, "breakdowns"):
            for st, count in zip(self.states, np.atleast_1d(self.state.breakdowns).tolist()):
                st.breakdowns = count
        return [getattr(st, "breakdowns", 0) for st in self.states]

    def record(self, rec: np.ndarray, first: int) -> None:
        """As `_Projected.record`, on r and the effective signatures
        themselves, of a lone run's chunk or a stacked block's sub-chunk.
        The forms are bound once per call, and the symbol loop is one.  Per
        symbol, one step call adapts the runs and returns their a-priori
        outputs x.  A lone run steps on its drawn rows of r and takes its
        a-posteriori outputs after each symbol.  A stacked block gathers the
        Re of every run's r, steps on it, keeps its filters after each
        symbol and takes the sub-chunk's a-posteriori outputs for r in one
        call, then forms its signatures in its gather buffer, a static run's
        one row, gathers their Re and takes theirs in another."""
        cfg, links, s, tracker = self.cfg, self.links, self.state, self.tracker
        size = rec.shape[-1]
        # the offset from which decisions are the reference
        directed = cfg.n_tr - first if cfg.mode == "decision-directed" else size
        blind, faded = cfg.mode == "blind", cfg.f_dt > 0
        adapt_v = not cfg.freeze_interpolator
        name = cfg.algorithm.replace("-", "_")
        # the forms are bound here, so that a tracer of public calls sees them
        one = len(self.states) == 1
        plural = "" if one else "s"   # lms_step or lms_steps, update or updates
        step = getattr(adaptive, f"{name}_step{plural}")
        if one:
            runs = 0   # the lone run's index
            step = functools.partial(_each_step, step)
            align = _align_phase
            # per symbol, a row of the drawn chunk of r (the input of the
            # step), its symbol, gains and signature
            rows, bs, gains = links.draw(first, size, runs=0)
            ins = rows
            sigs = np.broadcast_to(links.effective_signatures(gains, 0), ins.shape)
        else:
            runs = slice(None)
            align = _align_phases
            # per symbol, every run's row of r, drawn into the gather buffer,
            # symbol, and, blind, gains
            rows = self.pad[:size, :, :cfg.m]
            _, bs, gs = links.draw(first, size, out=rows.swapaxes(0, 1))
            bs = bs.T
            gains = np.ascontiguousarray(gs.swapaxes(0, 1)) if blind else None
            # per symbol, the Re of every run's r, gathered at once
            ins = _segment_matrices(self.pad[:size], s.n_i, s.dec, out=self.res[:size])
        track = tracker and getattr(tracker, "update" + plural)
        xs, outs = [], []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for j, (y, b) in enumerate(zip(ins, bs)):
                if blind:
                    # a tracked step rebinds g_hat; x is aligned with the one before it
                    g_hat = s.g_hat
                    # a tracker reads the rows of r themselves
                    g = track(rows[j]) if track else gains[j] if faded else None
                    x = step(s, y, adapt_v=adapt_v, g=g)
                else:
                    x = step(s, y, b, adapt_v=adapt_v, directed=j >= directed)
                xs.append(align(x, g_hat, gains[j]) if track else x)
                if one:
                    outs.append((receiver_output(s, y), receiver_output(s, sigs[j])))
                else:   # the steps rebind v and w, so these are the symbol's
                    self.vs[j], self.ws[j] = s.v, s.w
            # symbols last, as in rec
            rec[0, runs] = np.moveaxis(np.array(xs), 0, -1)
            if one:
                rec[1:, 0] = np.array(outs).T
                return
            # the filters conjugated in place, as the output calls take them
            vc = np.conjugate(self.vs[:size], out=self.vs[:size])
            wc = np.conjugate(self.ws[:size], out=self.ws[:size])
            rec[1] = receiver_outputs(vc, wc, ins).T
            n = size if faded else 1   # a static run's one signature serves every symbol
            rows[:n] = links.effective_signatures(gs, runs).swapaxes(0, 1)
            ins = _segment_matrices(self.pad[:n], s.n_i, s.dec, out=self.res[:n])
            rec[2] = receiver_outputs(vc, wc, ins).T


def run_trial(cfg: ScenarioConfig, run_seed) -> MetricSeries:
    """Simulate one seeded run of the configured scenario, a block of one.

    Per symbol, the trial records the decision output (a-priori) and the
    updated receiver's outputs for r and for the desired user's effective
    signature (a-posteriori), and meters MSE, BER and the windowed SINR
    from them (`_Meter`).  The metadata counts decided symbols and the
    RLS breakdowns (0 for receivers without RLS); `phase_reference` is
    "genie" where `_align_phase` rotated the decisions by the true
    channel (tracked blind runs), else None.  A diverged run, whose
    squared error or a-posteriori output power overflows or is not
    finite, raises LinAlgError and warns of nothing.
    """
    cfg.validate()
    return _run_block(cfg, [run_seed])[0]


def _run_block(cfg: ScenarioConfig, seeds) -> list[MetricSeries]:
    """`run_trial` for each seed, the runs taken together.

    The block's links (`_Links`) hold each run's Generator, so each run
    draws as in a block of one.  This is the block's one loop over its
    symbols: per stretch of the receiver's `span` symbols, it hands the
    receiver (`_Projected` or `_Interpolated`) every run's records of each
    piece of its `piece` symbols, which its `record` draws, steps over and
    writes, then meters the stretch at once (`_Meter`), so that the block
    holds one stretch of records.  The draw runs with numpy's warnings on,
    the receiver's arithmetic and the metering with its overflow,
    invalid-value and division warnings off: the meter catches a diverged
    run."""
    links = _Links(cfg, seeds)
    rx = (_Projected if cfg.algorithm in BASELINES else _Interpolated)(cfg, links)
    meter = _Meter(cfg, seeds)
    # records: x, out and h per run and symbol of a stretch
    rec = np.empty((3, len(seeds), min(rx.span, cfg.symbols)), dtype=complex)
    for i in range(0, cfg.symbols, rx.span):
        stretch = rec[..., :min(rx.span, cfg.symbols - i)]
        for j in range(0, stretch.shape[-1], rx.piece):
            rx.record(stretch[..., j:j + rx.piece], i + j)
        meter(stretch, links.desired(i, stretch.shape[-1]), i)
    return meter.series(rx.breakdowns)


class _Meter:
    """The metered series of a block's runs, a stretch of records at a time.

    Each call meters the runs' records of a stretch of symbols (3 x runs
    x stretch): decision outputs x, decided as detect(x), and
    a-posteriori outputs for r and, h, for the effective signature.  b h,
    formed in h's place, is the output for r_des = A_0 b times the
    signature, A_0 being 1, b +-1 and every rounding symmetric under
    negation.  It writes each run's MSE, SINR and BER of the stretch
    (`mse`, `sinr_db` and `ber`, runs x symbols), and carries per run what
    the next stretch reads: the SINR window's powers (`window`), the
    count of wrong decisions (`wrong`) and the first symbol whose squared
    error or output power is not finite (`bad`, `symbols` while there is
    none).  So each series equals, bit for bit, that of the run's records
    metered at once.  `series` raises LinAlgError for the first run, in
    order, that diverged, naming its seed and that symbol."""

    def __init__(self, cfg: ScenarioConfig, seeds):
        self.cfg, self.seeds, runs = cfg, seeds, len(seeds)
        self.mse, self.sinr_db, self.ber = np.empty((3, runs, cfg.symbols))
        self.window = np.zeros((2, runs))
        self.wrong = np.zeros(runs, dtype=np.intp)
        self.bad = np.full(runs, cfg.symbols)

    def __call__(self, rec: np.ndarray, b: np.ndarray, i: int) -> None:
        """Meter the records `rec` of symbols i on, b holding the runs'
        symbols there (runs x stretch)."""
        x, out, h = rec
        n, first = x.shape[-1], self.cfg.first_decided
        stretch = slice(i, i + n)
        # a diverged run's outputs may overflow or hold inf - inf, and its
        # window whatever follows: `series` names it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out_des = np.multiply(b, h, out=h)
            mse = _powers(b - x, out=self.mse[:, stretch])
            p_des, p_rest = _powers(out_des), _powers(out - out_des)
            finite = np.isfinite(mse) & np.isfinite(p_des) & np.isfinite(p_rest)
            if not finite.all():
                hit = ~finite.all(axis=1)
                self.bad[hit] = np.minimum(self.bad[hit], i + np.argmin(finite[hit], axis=1))
            self.sinr_db[:, stretch] = _sinr_db(p_des, p_rest, self.window)
        wrong = _detects(x) != b
        wrong[:, :max(first - i, 0)] = False
        counts = np.cumsum(wrong, axis=1)
        counts += self.wrong[:, None]
        self.wrong = counts[:, -1]
        np.divide(counts, np.maximum(np.arange(i, i + n) - first + 1, 1), out=self.ber[:, stretch])

    def series(self, breakdowns) -> list[MetricSeries]:
        """Each run's MetricSeries, once every stretch is metered, with its
        RLS breakdowns."""
        cfg, seeds = self.cfg, self.seeds
        t, first = cfg.symbols, cfg.first_decided
        diverged = np.flatnonzero(self.bad < t)
        if diverged.size:
            k = diverged[0]
            raise np.linalg.LinAlgError(f"run seed {seeds[k]} diverged: the squared error or "
                                        f"output power of symbol {self.bad[k]} is not finite")
        tracking = cfg.mode == "blind" and not cfg.known_channel
        # one copy of the config per block; each run's metadata gets its own lists
        meta = cfg.to_dict()
        lists = [name for name, value in meta.items() if isinstance(value, list)]
        return [MetricSeries(mse=self.mse[k], sinr_db=self.sinr_db[k], ber=self.ber[k],
                             metadata={**meta, **{name: meta[name][:] for name in lists},
                                       "run_seed": int(seed), "decided": max(t - first, 0),
                                       "breakdowns": int(breakdowns[k]),
                                       "phase_reference": "genie" if tracking else None})
                for k, seed in enumerate(seeds)]


def iter_symbols(cfg: ScenarioConfig, run_seed):
    """Yield (r, b, g) per symbol of one seeded scenario run, g being the
    symbol's channel gains (length l_p).

    Drives the same synthesized downlink as `run_trial`, a block of one
    run's links drawn a noise chunk at a time (`_Links.draw`), without any
    receiver attached; useful for custom adaptation protocols and for
    validating analysis predictions against simulation.
    """
    cfg.validate()
    links = _Links(cfg, [run_seed])
    for i in range(0, cfg.symbols, NOISE_CHUNK):
        # the generator keeps no name for the chunk it hands out
        yield from zip(*links.draw(i, min(NOISE_CHUNK, cfg.symbols - i), runs=0))


def _block_width(cfg: ScenarioConfig) -> int:
    """Runs per block: what BLOCK_BYTES leaves after a block's fixed bytes,
    over what a run holds, at least 1; and 1 for an interpolated campaign
    of fewer than STACK_MIN_RUNS runs, whose runs then each step alone and
    can each go to a worker.  Any other interpolated block of two runs or
    more steps its runs together: at the defaults, a 50-run campaign of
    400 symbols as one block, and blocks of 17 runs at 5000 symbols, 9 at
    10000 and 2 at 40000 (BLOCK_BYTES).

    In bytes, with T symbols, e of them metered at once (min(T, SUB_CHUNK)
    for an interpolated run, min(T, 4 NOISE_CHUNK) for a baseline's),
    c = min(T, NOISE_CHUNK) to a chunk, s = min(T, STACK_CHUNK) to a
    stacked sub-chunk and S = 2 l_s - 1 to a symbol's window, a run holds
    what it keeps throughout and the largest of what it holds for a while.
    It keeps:
    - its symbols, a bit each, K (T + S - 1) / 8; its series, 24 T; a
      stretch's records, 48 e; its objects (Generator, channel, states),
      4096; and its response table, signature, gains and amplitudes,
      8 M K S + 16 (M + l_p) + 8 K, or, faded, each path's chunk of samples
      and spectrum;
    - a baseline's despread rows of r, 16 c d;
    - an interpolated run's share of the stacked sub-chunk buffers,
      16 s (P + N_I M_red + N_I + M_red) (its rows of r, padded to P
      samples, their Re and its filters after each symbol), and its
      stacked state: its filters, an RLS run's inverses, a blind run's
      constraint and a sub-chunk's gains, and a tracked run's tracker.
    For a while it holds the largest of the metering's arrays, 96 e;
    a baseline's combiners, 16 c d, with a faded run's gains, 16 c l_p,
    and rake's running sums and their solutions, 5 x 16 per tap and
    trained symbol of the chunk, or pd-rls's weighted covariances, their
    inverses and the solves' copies, 4 x 16 n d^2, n the symbols of its
    sub-chunk (pd-lms holds none of these but is counted as pd-rls, so
    that the two keep one width); an interpolated run's share of a
    sub-chunk's draw (`_Links.draw`), its noise, 16 s M, or what comes
    after it, the clean rows and what forms them, 8 s (K S + M) +
    8 K (s + S) for a static run, and for a faded one its chips, gains and
    clean rows, 8 N (s + S) + 16 s (l_p + M); a faded run's effective
    signatures, 16 s M, or the outputs' products, 16 s M_red; and its
    step's arrays, 4 (12 blind) x 16 (N_I + M_red), with an RLS run's
    updated inverse, 16 M_red^2, which the stacked step forms in place.
    The fixed bytes are numpy's iteration buffers, np.getbufsize() entries
    of one complex operand for a stacked interpolated block (a broadcast
    or strided product: the noise scaled into the gather buffer, the
    clean rows added to it, an RLS inverse's outer product) and of three
    for a baseline's; what a block holds once (its lists, objects and
    shared arrays, 10-45 kB traced with numpy 2.4) with a margin, 64 kB
    for a stacked block and 128 kB for a baseline's, whose block draws a
    chunk of one run at a time (up to ~0.7 MB), not counted apart as it
    holds none of its combiners then; and, faded, a complex copy of one
    run's windows, 16 (s + 1) M l_p, or a baseline's one run's chunk of
    effective signatures and their despread rows, 16 c (M + d).
    """
    t, k, m, l_p = cfg.symbols, cfg.k, cfg.m, cfg.l_p
    window = 2 * signal_model.isi_span(l_p, cfg.n) - 1
    faded, interpolated = cfg.f_dt > 0, cfg.algorithm not in BASELINES
    chunk = min(t, NOISE_CHUNK)
    stretch = min(t, SUB_CHUNK if interpolated else _Projected.span)   # symbols metered at once
    # packed symbols, series and a stretch's records, and the run's objects
    held = k * -(-(t + window - 1) // 8) + 24 * t + 48 * stretch + 4096
    late = 96 * stretch   # the metering's arrays
    if faded:
        bins, _, phasors = signal_model._inband(signal_model._period(cfg.f_dt), cfg.f_dt)
        held += 16 * len(cfg.path_powers) * (phasors.shape[0] + bins.size)
    else:
        held += 8 * m * k * window + 16 * (m + l_p) + 8 * k
    if not interpolated:
        d = l_p if cfg.algorithm == "rake" else cfg.pd_rank
        fixed = 3 * 16 * np.getbufsize() + 131072 + (16 * chunk * (m + d) if faded else 0)
        held += 16 * chunk * d
        work = 16 * chunk * d + (16 * chunk * l_p if faded else 0)
        if cfg.algorithm == "rake":
            work += 5 * 16 * d * min(cfg.n_tr, chunk)
        else:
            work += 4 * 16 * min(SUB_CHUNK, max(1, NOISE_CHUNK // d)) * d * d
        late = max(late, work)
    else:
        sub = min(t, STACK_CHUNK)
        dec = make_decimation(m, cfg.l)
        m_red, n_i, padded = dec.m_red, cfg.n_i, dec.segment_index(cfg.n_i)[1].size
        fixed = 16 * np.getbufsize() + 65536
        held += 16 * sub * (padded + n_i * m_red + n_i + m_red) + 16 * (n_i + m_red)
        if faded:
            late = max(late, 8 * cfg.n * (sub + window) + 16 * sub * (l_p + m))
            fixed += 16 * (sub + 1) * m * l_p
        else:
            late = max(late, 8 * sub * (k * window + m) + 8 * k * (sub + window))
        blind = cfg.mode == "blind"
        step = 16 * (n_i + m_red) * (12 if blind else 4)
        if cfg.algorithm in ("rls", "cmv-rls"):
            held += 16 * (m_red ** 2 + n_i ** 2)
            step += 16 * m_red ** 2
        if blind:
            held += 16 * (n_i * m_red + l_p) + 16 * sub * l_p
            if not cfg.known_channel:
                held += 16 * l_p * (l_p + 1)
        late = max(late, 16 * sub * m, 16 * sub * m_red, step)
    width = max(1, (BLOCK_BYTES - fixed) // (held + late))
    return 1 if interpolated and cfg.runs < STACK_MIN_RUNS else width


def _trials(cfg: ScenarioConfig, seeds) -> list[MetricSeries]:
    """The series of a block of seeded runs (`_run_block`), a block of one
    through the public `run_trial`, which a tracer of public calls sees."""
    if len(seeds) == 1:
        return [run_trial(cfg, seeds[0])]
    cfg.validate()
    return _run_block(cfg, seeds)


def run_campaign(cfg: ScenarioConfig, workers: int = 1) -> MetricSeries:
    """Average cfg.runs independent trials (spawned sub-seeds of cfg.seed).

    Every run goes through `_run_block`: the runs in index order, split
    into as few blocks of as even a size as `_block_width` allows, which
    is one run for an interpolated campaign of fewer than STACK_MIN_RUNS
    runs, and with more than one worker into at least as many blocks as
    there are workers, CPUs this process may use and runs, the fewest of
    the three, so that a campaign that one block would hold still goes to
    the pool.  A block of one run is its `run_trial`.  Each run's series
    is the same either way.  The pool maps blocks, and holds at most one
    process per block and per usable CPU, since it may start all of them
    at once.  One worker maps them in turn; either map hands them in
    order to one reduction (`_reduce`).
    """
    runs = cfg.runs
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(runs)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, runs, cpus or 1)
    count = max(-(-runs // _block_width(cfg)), workers)
    blocks = [seeds[runs * j // count:runs * (j + 1) // count] for j in range(count)]
    if workers == 1:
        return _reduce(cfg, map(_trials, [cfg] * count, blocks))
    # imported here, so a start that needs no pool loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _reduce(cfg, pool.map(_trials, [cfg] * count, blocks))


def _reduce(cfg: ScenarioConfig, blocks) -> MetricSeries:
    """The mean of the runs' series that `blocks` yields, a block's list at
    a time in run order: MSE and the SINR's power ratio linearly, BER
    directly, and the RLS breakdowns add up.  Each run goes into three
    running sums as its block arrives, which equal np.mean over every run
    byte for byte (its axis-0 sum adds the rows in run order, and 0 + x is
    x for these non-negative series), whatever the workers and blocks.  A
    finished block is freed before the next is asked for."""
    mse, sinr_lin, ber = sums = np.zeros((3, cfg.symbols))
    breakdowns = 0
    for block in blocks:
        for res in block:
            mse += res.mse
            sinr_lin += 10.0 ** (res.sinr_db / 10.0)
            ber += res.ber
            breakdowns += res.metadata["breakdowns"]
        meta = res.metadata
        del block, res
    sums /= cfg.runs
    meta = {**meta, "runs_averaged": cfg.runs, "run_seed": cfg.seed, "breakdowns": breakdowns}
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
