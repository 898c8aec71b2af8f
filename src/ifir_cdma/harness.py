"""Monte-Carlo link simulation: scenarios, trials, baselines, export.

A scenario fixes the system (processing gain, users, channel profile,
noise), the receiver (structure, algorithm, mode) and the experiment
(symbols, runs, seed).  `run_trial` simulates one seeded run and records
MSE, windowed SINR and cumulative BER; `run_campaign` averages
independent runs with spawned sub-seeds.

A block's links (`_Links`, the one synthesis path) hand out arrays of
received vectors and of the channel gains: each run in turn a noise
chunk at a time, or, in a stacked interpolated block (two runs or more),
every run together a sub-chunk of SUB_CHUNK symbols at a time, so that
it never holds a chunk of rows per run.  A static link forms its
noiseless vectors as one batched product of a per-user response table
with the symbols' windows, a faded one by convolving each symbol's gains
with the chips.  Per symbol a trial takes the decision output
(a-priori: the receiver before the symbol), adapts with the reference
symbol (training symbol, or the decision in decision-directed mode past
`n_tr`; blind receivers ignore it), and records the updated receiver's
outputs for r and for the desired user's effective signature
(a-posteriori), whose product with the symbol is its output for r's
desired-only component.  One driver, `_run_block`, does this for a block
of seeded runs, and `run_trial` is a block of one.  It builds a receiver
of one of two kinds, which answer the same calls: `despread` maps
received vectors to the rows the receiver takes, and `record` writes a
chunk's or sub-chunk's outputs into the block's records.  The
interpolated receivers (`_Interpolated`) take r itself and run one
symbol loop, one step call per symbol returning the a-priori outputs,
in one of two shapes.  A lone run steps on its own state (the per-run
steps) over a chunk and takes its a-posteriori outputs per symbol.  A
block of two runs or more steps its runs together on stacked state
(`adaptive.stack` and the `adaptive.*_steps` kernels), stacked once per
block, and is recorded a sub-chunk per call, its a-posteriori outputs
taken once per sub-chunk from the filters kept after each symbol.  A
stacked block holds only what its loop reads: one sub-chunk's rows of r,
drawn into its gather buffer, and their Re, in buffers it reuses.  Each
receiver forms its runs' effective signatures where it reads them
(`_Links.effective_signatures`).  The RAKE and partial-despreading
baselines (`_Projected`) despread a chunk and take its outputs as array
products of their combiners.  `record` runs with numpy's overflow
warnings off, so a diverged run reaches the trial's LinAlgError.  MSE
and BER (a-priori) and SINR (a-posteriori) are metered from the records
in arrays, each power equal to Python's abs(z) ** 2 bit for bit.

A campaign runs its runs in blocks, as many as BLOCK_BYTES of memory
allows by a count of what each kind of run holds (`_block_width`).  A
pd-lms block runs one decision-feedback loop per chunk, on a lone run's
combiner or on every run's, stacked; a pd-rls block solves for every
run's combiners a sub-chunk at a time, looping only over the decided
symbols of decision-directed mode; an interpolated campaign of fewer
than STACK_MIN_RUNS runs takes one run per block.  Each run's series
equals its `run_trial` byte for byte.

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
# SUB_CHUNK for a stacked block's sub-chunks.
NOISE_CHUNK = 256

ALGORITHMS = ("lms", "rls", "cmv-sg", "cmv-rls", "rake", "pd-lms", "pd-rls")
BASELINES = ("rake", "pd-lms", "pd-rls")   # the receivers `_Projected` runs
# Bytes a block may hold by `_block_width`'s count of what each kind of run
# holds.  At the defaults that is, in runs of 400 symbols, 21 lms, 19 rls,
# 19 cmv-sg and 18 cmv-rls runs (17 tracked cmv-rls, 14 to 16 faded
# interpolated), 13 rake runs and 10 pd-lms and pd-rls (faded 9, 7 and 7).
# Every kind of static run falls to 3 runs from ~4100 symbols, 2 from ~5450
# and 1 from ~8150 (faded ones at f_dt = 1e-3 from ~3600 to 3900, ~4800 to
# 5200 and ~7200 to 7800).  The 400-symbol blocks peak at 1.4 to 2.8 MB
# traced (tracemalloc, numpy 2.4), each run holding, between blocks of
# width - 4 and width runs, lms 110 kB, rls 122, cmv-sg 121, cmv-rls 132,
# tracked cmv-rls 138, faded cmv-sg 160, rake 182, pd-lms 134 and pd-rls
# 184, a baseline block holding one run's chunk draw on top; 5000-symbol
# blocks of 3 interpolated runs peak at ~2.1 MB, mostly their metering.
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
    axis: symbols (`bits`, int8, as each is +-1; `desired`, the desired
    user's as floats), amplitudes, and a static run's response table and
    signature.  A static run's table (`_response_tables`) holds, per user
    k and symbol q of the ISI span, the M samples of r that the symbol
    reaches, which is the user's effective signature shifted by
    (q - l_s + 1) N chips.  `channels[r].gains` keeps the gains run r's
    channel was made with.

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
    as NOISE_CHUNK and SUB_CHUNK divide the period.  Per-symbol draws
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
        self.bits = np.empty((len(seeds), cfg.k, cfg.symbols + 2 * self.l_s - 2), dtype=np.int8)
        for rng, amps, bits in zip(self.rngs, self.amps, self.bits):
            self.channels.append(_draw_channel(cfg, rng))
            amps[...] = _draw_amplitudes(cfg, rng)
            bits[...] = np.where(rng.random(bits.shape) < 0.5, np.int8(-1), np.int8(1))
        self.desired = self.bits[:, 0, self.l_s - 1:self.l_s - 1 + cfg.symbols].astype(float)
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
        b = self.desired[runs, i:i + size]
        if self.static:
            # windows[r, k] holds A_j b_j over symbol i + k's span, user by user,
            # so that each clean row is its run's table's product with its window
            scaled = self.amps[runs, :, None] * self.bits[runs, :, i:i + size + span - 1]
            windows = view(scaled, span, axis=2).transpose(0, 2, 1, 3)
            clean = _matvecs(self.tables[runs, None], windows.reshape(len(rngs), size, -1))
            gains = np.broadcast_to(self.gains[runs, None], (len(rngs), size, l_p))
        else:
            chips = self._chips(i, size, runs)
            gains = np.array([signal_model.fading_gains(channel, size, rng)
                              for channel, rng in zip(self.channels[runs], rngs)])
            # windows[r, k] @ g is run r's noiseless r of symbol i + k:
            # windows[r, k][m, l] is the chip at k N + m - l + l_p - 1.
            # Batched as a @ g[..., None], each product equals the per-symbol
            # a @ g bit for bit; g @ a.T sums in another order.  numpy makes
            # a complex copy of the windows it multiplies, so they go a run
            # and SUB_CHUNK at a time, into clean[r] (no loop name keeps a
            # view of clean past its del)
            windows = view(view(chips, m + l_p - 1, axis=1)[:, ::n], l_p, axis=2)[..., ::-1]
            clean = np.empty((len(rngs), size, m, 1), dtype=complex)
            for r, (a, g) in enumerate(zip(windows, gains)):
                for k in range(0, size, SUB_CHUNK):
                    np.matmul(a[k:k + SUB_CHUNK], g[k:k + SUB_CHUNK, :, None],
                              out=clean[r, k:k + SUB_CHUNK])
            clean = clean[..., 0]
        rs += clean
        del clean
        return rs, b, gains

    def effective_signatures(self, gains: np.ndarray, runs, out=None) -> np.ndarray:
        """The desired user's effective signatures of the runs `runs` picks (a
        slice, or a run's index), into `out` where given: a static run's
        fixed signature as one row (1 x M), a faded run's C g for each
        symbol's path gains g (size x M, from `draw`'s G), C the desired
        user's shifted signatures (`_matvecs`)."""
        sigs = (self.signatures[runs][..., None, :] if self.static
                else _matvecs(self.code_matrix, gains))
        if out is not None:
            out[...] = sigs
        return sigs if out is None else out

    def _chips(self, i: int, size: int, runs: slice) -> np.ndarray:
        """The chip streams of the runs `runs` picks that the clean rows of
        symbols i to i + size - 1 read: (size - 1) N + M + l_p - 1 chips from
        chip (i + l_s - 1) N - (l_p - 1) on, superposed user by user."""
        n, l_p = self.cfg.n, self.cfg.l_p
        start = (i + self.l_s - 1) * n - (l_p - 1)
        length = (size - 1) * n + self.m + l_p - 1
        lo, hi = start // n, -(-(start + length) // n)   # the symbols it spans
        amps, bits = self.amps[runs], self.bits[runs, :, lo:hi]
        stream = np.zeros((len(amps), hi - lo, n))
        for a, b, code in zip(amps.T, bits.swapaxes(0, 1), self.codes):
            stream += (a[:, None] * b)[..., None] * code
        return stream.reshape(len(amps), -1)[:, start - lo * n:start - lo * n + length]


def _sinr_db(p_des: np.ndarray, p_rest: np.ndarray) -> np.ndarray:
    """Exponentially windowed ground-truth SINR of a linear receiver, per
    run and symbol.

    `p_des` and `p_rest` (runs x symbols) hold the powers of the
    receiver's output for the desired-only component of r and for the
    rest, interference and noise.  The window recursion runs over the
    symbols on Python floats for one run, and on float64 arrays across
    the runs for several, where it costs less; both round alike.
    """
    w = SINR_WINDOW
    if len(p_des) == 1:
        num = den = 0.0
        ratio = []
        for des, rest in zip(p_des[0].tolist(), p_rest[0].tolist()):
            num = w * num + (1 - w) * des
            den = w * den + (1 - w) * rest
            ratio.append(max(num, 1e-300) / max(den, 1e-300))
        return 10.0 * np.log10([ratio])
    # (symbols, 2, runs), so that each step reads and writes contiguous rows
    acc = np.moveaxis((1 - w) * np.stack([p_des, p_rest]), -1, 0).copy()
    prev = np.zeros(acc.shape[1:])
    for row in acc:
        row += w * prev
        prev = row
    ratio = np.maximum(acc, 1e-300)
    return (10.0 * np.log10(ratio[:, 0] / ratio[:, 1])).T.copy()


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

# Symbols per sub-chunk, for both kinds of receiver and for a stacked
# interpolated block's draw (`_Links`).  A stacked interpolated group draws
# every run's rows of r, gathers their Re in one `_segment_matrices` call
# and takes their a-posteriori outputs in one `receiver_outputs` call, then
# does the same for its effective signatures.  Its size moves memory more
# than speed.  On 50-run, 400-symbol campaigns (blocks of 5 runs; medians of
# 15 interleaved CPU-time pairs, 2-vCPU host), sub-chunks of 16 and 32
# symbols ran x0.98 to x1.11 as fast as 64 and of 128 x0.96, while the
# process's peak RSS was 39.1 MB at 32, 39.8 at 64, 42.1 at 128 and 42.4 at
# 256 (the whole chunk).  At the default M = 36, 32 symbols' Re of r takes
# 28 kB per run and their padded rows 19 kB.
# pd-rls takes a sub-chunk's combiners (`_Projected._solved`) from one
# weighted prefix sum and one batched solve, on at most NOISE_CHUNK // d
# symbols, which is 32 at the default d = 8.  There, with the despreading
# (CPU time, one BLAS thread, 2-vCPU host), sub-chunks of 32 symbols took
# 2.4 / 2.1 / 2.0 / 1.9 us per run and symbol in blocks of 1 / 2 / 3 / 9
# runs, and of 64 symbols 2.0 / 1.9 / 2.2 / 1.9; 8 and 16 took longer.
SUB_CHUNK = 32


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
    received vectors at once (to rows of length `dim`), and `record` takes
    a chunk's outputs from the combiners that `combiners` forms along it.
    """

    stacked = None   # no stacked interpolated state: its runs draw in turn (`_recorded`)

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
            span = min(SUB_CHUNK, max(1, NOISE_CHUNK // d))
            if cfg.alpha < 1:
                span = min(span, 1 + int(100 / -math.log10(cfg.alpha)))
            self.weights = cfg.alpha ** -np.arange(span, dtype=float)   # alpha^-t
        self.proj_h = proj.conj().T
        self.dim = proj.shape[1]
        self.w = np.zeros((runs, self.dim), dtype=complex)
        self.breakdowns = np.zeros(runs, dtype=int)

    def despread(self, rs: np.ndarray) -> np.ndarray:
        """proj^H r for every row r of rs; each row equals proj_h @ r bit for bit."""
        return _matvecs(self.proj_h, rs)

    def record(self, rec: np.ndarray, ys: np.ndarray, bs: np.ndarray, gs, first: int) -> None:
        """Every run's x, out and h of a chunk into rec from the despread rows
        `ys` of r and the gains `gs`: x by the combiner before each symbol, the rest after."""
        ws = self.combiners(ys, bs, first)
        rec[0] = _vdots(ws[:, :-1], ys)
        rec[1] = _vdots(ws[:, 1:], ys)
        for k, gains in enumerate(gs):
            rec[2, k] = _vdots(ws[k, 1:], self.despread(self.links.effective_signatures(gains, k)))

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
    """The interpolated receivers of a block of runs, with the calls of
    `_Projected`: `despread` passes r through, and `record` steps the runs
    in one symbol loop.  A lone run steps on its own state with the per-run
    forms (`_each_step` around `*_step`, `_align_phase`, ...) and records a
    chunk per call.  A block of two runs or more steps a stack of its runs'
    states (`stacked`, else None), made once, with the forms that take a
    row per run (`*_steps`, `_align_phases`, ...) on the Re of every run's
    r; it records a sub-chunk of SUB_CHUNK symbols per call, its rows of r
    drawn into its gather buffer (`rows`), and writes the stack back after
    its last symbol.  Each run's state is the one `_state` made, and holds
    its filters and breakdowns between chunks.  A call takes the rows of r
    and the gains: the receiver forms its runs' effective signatures where
    it reads them (`_Links.effective_signatures`)."""

    def __init__(self, cfg: ScenarioConfig, links: _Links):
        self.cfg, self.links = cfg, links
        self.dim = cfg.m
        runs = len(links.rngs)
        self.states, self.trackers = zip(*(_state(cfg, links.codes[0], channel.gains)
                                           for channel in links.channels))
        self.stacked = None
        if runs > 1:
            s = self.stacked = adaptive.stack(self.states)
            self.tracker = self.trackers[0] and adaptive.stack(self.trackers)
            span = min(SUB_CHUNK, cfg.symbols)
            # every run's filters after each symbol of a sub-chunk
            self.vs = np.empty((span, *s.v.shape), dtype=complex)
            self.ws = np.empty((span, *s.w.shape), dtype=complex)
            # a sub-chunk's rows, zero-padded to the gather's width, and their
            # Re: symbol-major, so that each symbol's Re is C-contiguous
            idx, buf = s.dec.segment_index(s.n_i)
            self.pad = np.zeros((span, runs, buf.size), dtype=complex)
            self.res = np.empty((span, runs, *idx.shape), dtype=complex)

    despread = staticmethod(np.asarray)   # the rows are r itself

    def rows(self, n: int) -> np.ndarray:
        """A stacked block's buffer for the rows of a sub-chunk of n symbols,
        runs x n x M: its gather buffer."""
        return self.pad[:n, :, :self.dim].swapaxes(0, 1)

    @property
    def breakdowns(self) -> list:
        return [getattr(st, "breakdowns", 0) for st in self.states]

    def record(self, rec: np.ndarray, ys, bs: np.ndarray, gs, first: int) -> None:
        """As `_Projected.record` on r and the effective signatures
        themselves, `ys` holding each run's rows of r, a stacked block's in
        its `rows`.  The forms are bound once per call, and the symbol loop
        is one.  Per symbol, one step call adapts the runs and returns their
        a-priori outputs x.  A lone run steps on its rows of r and takes its
        a-posteriori outputs after each symbol.  A stacked block gathers the
        Re of every run's r, steps on it, keeps its filters after each
        symbol and takes the sub-chunk's a-posteriori outputs for r in one
        call, then forms its signatures in its `rows`, a static run's one
        row, gathers their Re and takes theirs in another."""
        cfg = self.cfg
        size = bs.shape[1]
        # the offset from which decisions are the reference
        directed = cfg.n_tr - first if cfg.mode == "decision-directed" else size
        blind, faded = cfg.mode == "blind", cfg.f_dt > 0
        adapt_v = not cfg.freeze_interpolator
        name = cfg.algorithm.replace("-", "_")
        # the forms are bound here, so that a tracer of public calls sees them
        one = self.stacked is None
        plural = "" if one else "s"   # lms_step or lms_steps, update or updates
        step = getattr(adaptive, f"{name}_step{plural}")
        if one:
            runs = 0   # the lone run's index
            s, tracker = self.states[0], self.trackers[0]
            step = functools.partial(_each_step, step)
            align, gains = _align_phase, gs[0]
            # per symbol, the input of the step, a row of r, and the signature
            ins = ys[0]
            sigs = np.broadcast_to(self.links.effective_signatures(gains, 0), ins.shape)
        else:
            runs = slice(None)
            s, tracker = self.stacked, self.tracker
            align = _align_phases
            # every run's gains per symbol
            gains = np.ascontiguousarray(gs.swapaxes(0, 1)) if blind else None
            # per symbol, the Re of every run's r, gathered at once
            ins = _segment_matrices(self.pad[:size], s.n_i, s.dec, out=self.res[:size])
        track = tracker and getattr(tracker, "update" + plural)
        xs, outs = [], []
        for j, (y, b) in enumerate(zip(ins, bs[runs].T)):
            if blind:
                # a tracked step rebinds g_hat; x is aligned with the one before it
                g_hat = s.g_hat
                # a tracker reads the rows of r themselves
                g = track(ys[runs, j]) if track else gains[j] if faded else None
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
        self.links.effective_signatures(gs, runs, out=self.rows(n))
        ins = _segment_matrices(self.pad[:n], s.n_i, s.dec, out=self.res[:n])
        rec[2] = receiver_outputs(vc, wc, ins).T
        if first + size == cfg.symbols:
            adaptive.unstack(s, self.states)
            if tracker:
                adaptive.unstack(tracker, self.trackers)


def run_trial(cfg: ScenarioConfig, run_seed) -> MetricSeries:
    """Simulate one seeded run of the configured scenario, a block of one.

    Per symbol, the trial records the decision output (a-priori) and the
    updated receiver's outputs for r and for the desired user's effective
    signature (a-posteriori), and meters MSE, BER and the windowed SINR
    from them (`_metered`).  The metadata counts decided symbols and the
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
    draws as in a block of one.  A baseline block of any width, and a lone
    interpolated run, takes a chunk at a time: each run in turn draws its
    chunk (`_Links.draw`) and despreads it into one buffer of the block's
    despread rows of r.  An interpolated block of two runs or more, which
    steps its runs together, draws them together a sub-chunk at a time, so
    that it never holds a chunk of rows of r per run: it takes the rows of
    r in its gather buffer and records each sub-chunk.  Each receiver
    forms its runs' effective signatures from the drawn gains where it
    reads them.  One `record` call of the block's receiver (`_Projected`
    or `_Interpolated`) writes every run's records of a chunk or sub-chunk
    with numpy's overflow, invalid-value and division warnings off:
    `_metered` catches a diverged run."""
    desired, rec, breakdowns = _recorded(cfg, seeds)
    return _metered(cfg, seeds, desired, rec, breakdowns)


def _recorded(cfg: ScenarioConfig, seeds) -> tuple:
    """(desired, rec, breakdowns) of `_run_block`'s runs: their symbols
    (runs x symbols), records (3 x runs x symbols) and RLS breakdowns.  The
    links, receiver and rows it makes, all but the links' `desired`, are
    freed on return, before the metering."""
    links = _Links(cfg, seeds)
    runs = len(seeds)
    rx = (_Projected if cfg.algorithm in BASELINES else _Interpolated)(cfg, links)
    # records: x, out and h per run and symbol
    rec = np.empty((3, runs, cfg.symbols), dtype=complex)
    stacked = rx.stacked is not None
    if not stacked:   # the despread rows of a chunk's r
        chunk_ys = np.empty((runs, min(NOISE_CHUNK, cfg.symbols), rx.dim), dtype=complex)

    def take(into, i, n, k):   # a call, so that the drawn rows are freed on return
        rs, _, gains = links.draw(i, n, runs=k)
        into[...] = rx.despread(rs)
        return gains

    span = SUB_CHUNK if stacked else NOISE_CHUNK
    for i in range(0, cfg.symbols, span):
        bs = links.desired[:, i:i + span]
        n = bs.shape[1]
        if stacked:   # the rows of r go into the receiver's gather buffer
            ys = rx.rows(n)
            gs = links.draw(i, n, out=ys)[2]
        else:   # the runs draw in turn, so that the block holds one run's chunk
            ys = chunk_ys[:, :n]
            gs = [take(ys[k], i, n, k) for k in range(runs)]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rx.record(rec[:, :, i:i + span], ys, bs, gs, i)
    return links.desired, rec, rx.breakdowns


def _metered(cfg: ScenarioConfig, seeds, desired: np.ndarray, rec: np.ndarray,
             breakdowns) -> list[MetricSeries]:
    """Each run's MetricSeries from its transmitted symbols `desired`
    (runs x symbols) and records `rec` (3 x runs x symbols): decision
    outputs x, decided as detect(x), and a-posteriori outputs for r and,
    h, for the effective signature.  b h, formed in h's place, is the
    output for r_des = A_0 b times the signature, A_0 being 1, b +-1 and
    every rounding symmetric under negation.  The first run, in order,
    that diverged raises LinAlgError naming its seed and symbol."""
    t, first = cfg.symbols, cfg.first_decided
    x, out, h = rec
    # a diverged run's outputs may overflow or hold inf - inf: the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        out_des = np.multiply(desired, h, out=h)
        mse, p_des, p_rest = _powers(desired - x), _powers(out_des), _powers(out - out_des)
    finite = np.isfinite(mse) & np.isfinite(p_des) & np.isfinite(p_rest)
    diverged = np.flatnonzero(~finite.all(axis=1))
    if diverged.size:
        k = diverged[0]
        raise np.linalg.LinAlgError(f"run seed {seeds[k]} diverged: the squared error or "
                                    f"output power of symbol {np.argmin(finite[k])} is not "
                                    f"finite")
    wrong = _detects(x) != desired
    wrong[:, :first] = False
    ber = np.cumsum(wrong, axis=1) / np.maximum(np.arange(t) - first + 1, 1)
    sinr_db = _sinr_db(p_des, p_rest)
    tracking = cfg.mode == "blind" and not cfg.known_channel
    # one copy of the config per block; each run's metadata gets its own lists
    meta = cfg.to_dict()
    lists = [name for name, value in meta.items() if isinstance(value, list)]
    return [MetricSeries(mse=mse[k], sinr_db=sinr_db[k], ber=ber[k],
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
    more steps its runs together, down to the blocks of 3 and 2 runs that
    50-run campaigns take from ~4100 and ~5450 symbols on (BLOCK_BYTES).

    In bytes, with c = min(symbols, NOISE_CHUNK) symbols to a chunk,
    s = min(symbols, SUB_CHUNK) to a sub-chunk and S = 2 l_s - 1 to a
    symbol's window, a run holds the larger of what its metering holds
    (its records, symbols and the metering's arrays, 152 per symbol) and
    what its loop holds:
    - its symbols (int8) and their float copy, and its records, K + 56
      per symbol; its objects (Generator, channel, states and their small
      arrays), 8192; and its response table, 8 M K S, or, faded, its
      fading processes' current samples;
    - a baseline's despread rows of r and its combiners, 2 x 16 c per
      tap, a faded run's gains, 16 c l_p, and rake's running sums and
      their solutions, 5 x 16 per tap and trained symbol of the chunk, or
      pd-rls's weighted covariances, their inverses and the solves'
      copies, 4 x 16 n d^2, n the symbols of its sub-chunk.  pd-lms holds
      none of these but is counted as pd-rls, so that the two keep one
      width;
    - an interpolated run's share of a sub-chunk's draw (`_Links.draw`):
      the larger of its noise, 16 s M, and what comes after it, the clean
      rows and what forms them: 8 s (K S + M) + 8 K (s + S) for a static
      run, and for a faded one its chips, gains and clean rows,
      8 N (s + S) + 16 s (l_p + M).  On top, its share of a stacked
      block's buffers, 16 s (P + N_I M_red + N_I + M_red): its rows of r,
      drawn into the gather buffer and padded to P samples, their Re and
      its filters after each symbol.  A faded run's effective signatures,
      16 s M beside its gains, and the outputs' products, 16 s M_red,
      come after its draw and are no larger.  An RLS run's inverses,
      stacked and its own, 32 (M_red^2 + N_I^2); a blind run's
      constraints, 16 l_p (N_I M_red + M), and its channel tracker's,
      16 l_p (M + 3 l_p).
    The fixed bytes are numpy's buffers for a broadcast or cast product,
    three operands of `np.getbufsize()` entries; 128 kB for what a block
    holds once (its lists, objects and shared arrays, 10-45 kB traced with
    numpy 2.4) and as a margin for other numpy versions; and, faded, the
    shared code matrix and a complex copy of one run's sub-chunk of
    windows, 16 (s + 1) M l_p, and a baseline's one run's chunk of
    effective signatures and their despread rows, 16 c (M + d), formed
    beside its combiners.  A block that is not a stacked interpolated one,
    a baseline's or one run's, draws a chunk of one run at a time (up to
    ~0.7 MB), which is not counted apart: it draws while it holds none of
    its sub-chunk arrays or combiners.
    """
    chunk, sub = min(cfg.symbols, NOISE_CHUNK), min(cfg.symbols, SUB_CHUNK)
    faded, interpolated = cfg.f_dt > 0, cfg.algorithm not in BASELINES
    m, l_p, window = cfg.m, cfg.l_p, 2 * signal_model.isi_span(cfg.l_p, cfg.n) - 1
    fixed = 3 * 16 * np.getbufsize() + 131072
    if faded:
        samples = signal_model._inband(signal_model._period(cfg.f_dt), cfg.f_dt)[2].shape[0]
        link = 16 * len(cfg.path_powers) * samples
        late = 8 * cfg.n * (sub + window) + 16 * sub * (l_p + m)
        fixed += 16 * (sub + 1) * m * l_p
    else:
        link = 8 * m * cfg.k * window
        late = 8 * sub * (cfg.k * window + m) + 8 * cfg.k * (sub + window)
    if not interpolated:
        d = l_p if cfg.algorithm == "rake" else cfg.pd_rank
        held = 2 * 16 * chunk * d + (16 * chunk * l_p if faded else 0)
        fixed += 16 * chunk * (m + d) if faded else 0
        if cfg.algorithm == "rake":
            held += 5 * 16 * d * min(cfg.n_tr, chunk)
        else:
            held += 4 * 16 * min(sub, max(1, NOISE_CHUNK // d)) * d * d
    else:
        dec = make_decimation(m, cfg.l)
        m_red, n_i, padded = dec.m_red, cfg.n_i, dec.segment_index(cfg.n_i)[1].size
        held = 16 * sub * (padded + n_i * m_red + n_i + m_red) + max(16 * sub * m, late)
        if cfg.algorithm in ("rls", "cmv-rls"):
            held += 32 * (m_red ** 2 + n_i ** 2)
        if cfg.mode == "blind":
            held += 16 * l_p * (n_i * m_red + m)
        if cfg.mode == "blind" and not cfg.known_channel:
            held += 16 * l_p * (m + 3 * l_p)
    loop = cfg.symbols * (cfg.k + 56) + 8192 + link + held
    per_run = max(152 * cfg.symbols, loop)
    width = max(1, (BLOCK_BYTES - fixed) // per_run)
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
    runs; a block of one run is its `run_trial`.  Each run's series is the same either
    way.  MSE and the SINR's power ratio average linearly across runs;
    BER averages directly and the RLS breakdowns add up.  The reduction
    is ordered by run index, so the result is independent of `workers`
    and of the blocks.  The pool maps blocks, and holds at most one
    process per block and per CPU this process may use, since it may
    start all of them at once.
    """
    runs = cfg.runs
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(runs)]
    count = -(-runs // _block_width(cfg))
    blocks = [seeds[runs * j // count:runs * (j + 1) // count] for j in range(count)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, count, cpus or 1)
    if workers > 1:
        # imported here, so a start that needs no pool loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_trials, [cfg] * count, blocks))
    else:
        done = [_trials(cfg, block) for block in blocks]
    results = [res for block in done for res in block]
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
