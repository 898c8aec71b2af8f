"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles against the math, not
by calling into the package, so each check runs through two separate
code paths.  Two helpers are the exceptions.  `link_chunks` draws a
link a noise chunk at a time, as `harness.iter_symbols` and a baseline
block draw it.  `per_symbol_trial` drives the package's link and
receivers through the trial loop as it ran before noise, fading gains
and received vectors were taken a chunk at a time and metering moved
after the loop; each symbol's vectors pass through the baselines'
despreading as one-row chunks, the RAKE's and the partial-despreading
baselines' combiners are updated symbol by symbol (`PerSymbolRake`,
`PerSymbolPd`), and the interpolated receivers step through their
per-run steps (`PerSymbolInterpolated`).
"""

import functools

import numpy as np

from ifir_cdma import adaptive, harness
from ifir_cdma.interpolation import detect, receiver_output

# Relative band within which pd-rls, which solves the weighted
# least-squares problem at each symbol, agrees with the rank-one recursion
# that tracks it (`fullrank_rls`, `PerSymbolPd`).  The worst case measured
# on the suite's comparisons is 1.7e-10, on the SINR of alpha = 1,
# delta = 1e4 and pd_rank = M; at the defaults it is 2.3e-13.
PD_RLS_RTOL = 1e-9


def lfsr_bits(poly_mask: int, degree: int) -> np.ndarray:
    """m-sequence bits from a Galois LFSR held in a single integer.

    `poly_mask` carries the feedback polynomial's tap bits (bit i set
    means the x^(i+1) term is present).  A different register layout
    from the generator under test.
    """
    state = (1 << degree) - 1
    length = (1 << degree) - 1
    out = np.empty(length, dtype=int)
    for i in range(length):
        out[i] = state & 1
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= poly_mask
    return out


def periodic_crosscorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-shift periodic cross-correlation of two +-1 sequences (direct sums)."""
    n = len(a)
    return np.array([sum(a[t] * b[(t + s) % n] for t in range(n)) for s in range(n)])


def fullrank_nlms(rs, bs, mu0):
    """Textbook normalized LMS, error before update; returns (w history, errors)."""
    m = rs.shape[1]
    w = np.zeros(m, dtype=complex)
    ws, es = [], []
    for r, b in zip(rs, bs):
        e = b - np.vdot(w, r)
        ce = np.conj(e)
        nr = np.real(np.vdot(r, r))
        if nr > 1e-30:
            w = w + (mu0 / nr) * ce * r
        ws.append(w.copy())
        es.append(e)
    return np.array(ws), np.array(es)


def fullrank_rls(rs, bs, alpha, delta):
    """Textbook exponentially weighted RLS with inverse-covariance tracking."""
    m = rs.shape[1]
    w = np.zeros(m, dtype=complex)
    p = delta * np.eye(m, dtype=complex)
    ws, es = [], []
    for r, b in zip(rs, bs):
        xi = b - np.vdot(w, r)
        cxi = np.conj(xi)
        pr = p @ r
        denom = alpha + np.real(np.vdot(r, pr))
        gain = pr / denom
        p = (p - np.outer(gain, pr.conj())) / alpha
        p = 0.5 * (p + p.conj().T)
        w = w + gain * cxi
        ws.append(w.copy())
        es.append(xi)
    return np.array(ws), np.array(es)


def accumulate_and_invert(rbars, alpha, delta):
    """Weighted sample covariance inverse including the delta*I start."""
    m = rbars.shape[1]
    acc = (1.0 / delta) * np.eye(m, dtype=complex)
    for rb in rbars:
        acc = alpha * acc + np.outer(rb, rb.conj())
    return np.linalg.inv(acc)


def stacked_statistics(rs, bs, v, w, l, m_red):
    """Sample statistics of both filters from a T x N_I x M_red stack of
    segment matrices, each sample projected on its own.

    Row t of the stack holds Re[n, s] = r_t[s*l + n] (zero past the end),
    and rbar_t = Re_t^T conj(v), u_t = Re_t conj(w).  Returns the sample
    averages E[rbar rbar^H], E[conj(b) rbar], E[u u^H], E[conj(b) u],
    E[rbar u^H] and E[u rbar^H], keyed r_bar, p_bar, r_u, p_u, e_r_w, e_u_v.
    """
    rs, bs = np.asarray(rs), np.asarray(bs)
    t, m = rs.shape
    n_i = len(v)
    idx = np.arange(m_red)[None, :] * l + np.arange(n_i)[:, None]
    res = np.concatenate([rs, np.zeros((t, n_i), dtype=rs.dtype)], axis=1)[:, idx]
    rbar = np.einsum("tnm,n->tm", res, np.conj(v))
    u = np.einsum("tnm,m->tn", res, np.conj(w))
    return dict(
        r_bar=np.einsum("tm,tn->mn", rbar, rbar.conj()) / t,
        p_bar=np.einsum("t,tm->m", bs.conj(), rbar) / t,
        r_u=np.einsum("tm,tn->mn", u, u.conj()) / t,
        p_u=np.einsum("t,tm->m", bs.conj(), u) / t,
        e_r_w=np.einsum("tm,tn->mn", rbar, u.conj()) / t,
        e_u_v=np.einsum("tm,tn->mn", u, rbar.conj()) / t)


def filter_downsample(v, r, l):
    """Anticausal FIR with conjugate taps, then keep-one-in-l (direct loops)."""
    n_i = len(v)
    out = []
    s = 0
    while s * l < len(r):
        acc = 0.0 + 0.0j
        for n in range(n_i):
            idx = s * l + n
            if idx < len(r):
                acc += np.conj(v[n]) * r[idx]
        out.append(acc)
        s += 1
    return np.array(out)


def analytic_covariance(codes, amps, gains, sigma2, l_s):
    """Exact E[r r^H] for i.i.d. +-1 symbols: sum_k A_k^2 E_k E_k^H + sigma2 I.

    E_k collects the windowed responses to each symbol in the frame, one
    column per frame position, built by direct convolution.
    """
    k_users, n = codes.shape
    l_p = len(gains)
    m = n + l_p - 1
    span = 2 * l_s - 1
    r_cov = sigma2 * np.eye(m, dtype=complex)
    for k in range(k_users):
        cols = []
        for q in range(span):
            stream = np.zeros(span * n)
            stream[q * n:(q + 1) * n] = codes[k]
            full = np.convolve(stream, gains)
            cols.append(full[(l_s - 1) * n:(l_s - 1) * n + m])
        e_k = np.array(cols).T
        r_cov += amps[k] ** 2 * (e_k @ e_k.conj().T)
    return r_cov


def interp_map(v, m, l, m_red):
    """Matrix Phi with rbar = Phi r for a fixed interpolator (direct indexing)."""
    phi = np.zeros((m_red, m), dtype=complex)
    for s in range(m_red):
        for n in range(len(v)):
            idx = s * l + n
            if idx < m:
                phi[s, idx] = np.conj(v[n])
    return phi


# Spec matrices of the signal model: the matrix form r = H sum_k A_k S_k b_k
# that `harness._Links` evaluates as products of per-user responses with
# symbol windows (static) or by strided chip windows (faded).

def build_block_matrix(code: np.ndarray, l_s: int) -> np.ndarray:
    """Stack `2*l_s - 1` non-overlapping shifted copies of the signature.

    Column j holds the code at row offset j*N; columns have disjoint
    support and are therefore mutually orthogonal.
    """
    code = np.asarray(code)
    if code.ndim != 1 or code.size < 1:
        raise ValueError("code must be a non-empty vector")
    if l_s < 1:
        raise ValueError("l_s must be >= 1")
    n = code.size
    nblk = 2 * l_s - 1
    s = np.zeros((nblk * n, nblk), dtype=code.dtype)
    for j in range(nblk):
        s[j * n:(j + 1) * n, j] = code
    return s


def build_channel_matrix(gains: np.ndarray, n: int, l_s: int) -> np.ndarray:
    """Multipath convolution matrix acting on the stacked chip window.

    Output r has M = n + L_p - 1 rows.  Entry (r, c) is h_{d} with
    d = (l_s - 1)*n + r - c, i.e. the causal convolution of the
    time-ordered chip stream with the path gains, windowed to the
    current symbol: row r of the product picks up chip (l_s-1)*n + r - d
    through path d.  The centre symbol block therefore contributes the
    plain linear convolution of the signature with the gains.
    """
    gains = np.asarray(gains, dtype=complex)
    l_p = gains.size
    if l_p < 1:
        raise ValueError("need at least one path gain")
    m = n + l_p - 1
    ncols = (2 * l_s - 1) * n
    h = np.zeros((m, ncols), dtype=complex)
    off = (l_s - 1) * n
    for r in range(m):
        for d in range(l_p):
            c = off + r - d
            if 0 <= c < ncols:
                h[r, c] = gains[d]
    return h


def rake_combiners(code, l_p: int, rs, bs) -> np.ndarray:
    """RAKE combiner after each training symbol, one linear solve per symbol.

    C holds the code delayed by 0..l_p-1 chips in M = N + l_p - 1 samples.
    After symbol i, g solves (C^H C) g = a, a the mean of conj(b) C^H r so
    far, and w = g / Re(g^H C^H C g) (at least 1e-12).
    """
    n = len(code)
    c = np.zeros((n + l_p - 1, l_p), dtype=complex)
    for j in range(l_p):
        c[j:j + n, j] = code
    gram = c.conj().T @ c
    acc = np.zeros(l_p, dtype=complex)
    ws = []
    for i, (r, b) in enumerate(zip(rs, bs)):
        acc = acc + np.conj(b) * (c.conj().T @ r)
        g = np.linalg.solve(gram, acc / (i + 1))
        ws.append(g / max(np.real(np.vdot(g, c.conj().T @ (c @ g))), 1e-12))
    return np.array(ws)


def fading_fft_block(white: np.ndarray, n: int, doppler: float, clip: float) -> np.ndarray:
    """One period of Doppler fading by a full-length inverse FFT.

    `white` holds the spectrum's values on the bins |fftfreq(n)| < doppler,
    in fftfreq order.  They are shaped by the clipped amplitude mask
    max(1 - (f/doppler)^2, clip)^(-1/4), the square root of the clipped
    Jakes power spectrum, zero-filled to n bins, inverse
    transformed and scaled to unit mean power over the block.
    """
    f = np.fft.fftfreq(n)
    inband = np.abs(f) < doppler
    spectrum = np.zeros(n, dtype=complex)
    spectrum[inband] = white / np.maximum(1.0 - (f[inband] / doppler) ** 2, clip) ** 0.25
    block = np.fft.ifft(spectrum)
    return block / np.sqrt(np.mean(np.abs(block) ** 2))


# The per-symbol trial loop: each path's gain stepped and noise drawn for
# each symbol on its own, and the SINR meter updated inside the loop.

@functools.lru_cache(maxsize=1)
def _stream(link):
    """A one-run link's whole chip stream, superposed in one K x T x N product."""
    symbols = link.symbols(0, link.cfg.symbols + 2 * link.l_s - 2, slice(1))[0]
    return (link.amps[0, :, None, None] * symbols[:, :, None]
            * link.codes[:, None, :]).sum(axis=0).ravel()


@functools.lru_cache(maxsize=1)
def _responses(link):
    """A static one-run link's responses, one column per user k and symbol
    q of the window (k major): the M samples of r that the symbol reaches
    at unit amplitude.  The current symbol's are the signature convolved
    with the gains; symbol q's lie (q - l_s + 1) N chips later.  Real, as a
    static channel's gains are."""
    cfg = link.cfg
    span = 2 * link.l_s - 1
    pad = np.zeros((link.l_s - 1) * cfg.n, dtype=complex)
    cols = []
    for code in link.codes:
        padded = np.concatenate([pad, np.convolve(code.astype(complex), link.channels[0].gains),
                                 pad])
        for q in range(span):
            start = (span - 1 - q) * cfg.n
            cols.append(padded[start:start + link.m])
    # C-ordered, as the link's table: a transposed operand sums in another order
    return np.array(cols).real.T.copy()


def link_chunks(link, run: int = 0):
    """Yield run `run`'s (R, b, G) for each noise chunk of a block's links
    (`harness._Links`), in symbol order, each drawn alone
    (`harness._Links.draw`)."""
    for i in range(0, link.cfg.symbols, harness.NOISE_CHUNK):
        yield link.draw(i, min(harness.NOISE_CHUNK, link.cfg.symbols - i), runs=run)


def link_step_per_symbol(link, i: int):
    """Received vector, desired symbol, and desired-only component for
    symbol i of a one-run link (`harness._Links`), whose Generator, and
    faded channel, it steps a symbol at a time."""
    cfg, rng, amps = link.cfg, link.rngs[0], link.amps[0]
    off, span = link.l_s - 1, 2 * link.l_s - 1
    bits = link.symbols(i, i + span, slice(1))[0]   # the symbol's window
    b = bits[0, off].astype(float)
    if link.static:
        clean = _responses(link) @ (amps[:, None] * bits).ravel()
        signature = link.signatures[0]
    else:
        ch = link.channels[0]
        for p, d, proc in zip(ch.path_powers, ch.path_delays, ch.fading):
            ch.gains[d] = p * proc.next_gain(rng)
        gains = ch.gains
        # the chips at (i + off) N + m - l, for m < M and l < l_p
        start = (i + off) * cfg.n - (cfg.l_p - 1)
        window = np.lib.stride_tricks.sliding_window_view(
            _stream(link)[start:start + link.m + cfg.l_p - 1], cfg.l_p)[:, ::-1]
        clean = window @ gains
        signature = link.code_matrix @ gains
    noise = np.sqrt(link.sigma2 / 2.0) * (
        rng.standard_normal(link.m) + 1j * rng.standard_normal(link.m))
    r = clean + noise
    r_des = (amps[0] * b) * signature
    return r, b, r_des


def power(z: complex) -> float:
    """|z|^2 in Python arithmetic, inf where it overflows."""
    try:
        return abs(complex(z)) ** 2
    except OverflowError:
        return np.inf


class SinrMeter:
    """Exponentially windowed ground-truth SINR of a linear receiver."""

    def __init__(self, window: float = harness.SINR_WINDOW):
        self.window = window
        self.num = 0.0
        self.den = 0.0

    def update(self, out_des: complex, out_rest: complex) -> float:
        w = self.window
        self.num = w * self.num + (1 - w) * power(out_des)
        self.den = w * self.den + (1 - w) * power(out_rest)
        # a diverged run's ratio may be 0 or NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            return 10.0 * np.log10(max(self.num, 1e-300) / max(self.den, 1e-300))


class PerSymbolRake:
    """The RAKE combiner updated one symbol at a time, as the trial ran it
    before a chunk's combiners became array products.

    It takes the despreading and the Gram inverse of a one-run harness
    `_Projected` and adds each training symbol's conj(b) y to a running
    sum; `output(y)` takes the combiner's output and `adapt(y, d, g)` adapts
    it with reference symbol d on a symbol with channel gains g.
    """

    def __init__(self, rx, n_tr):
        self.gram_inv = rx.gram_inv
        self.n_tr = n_tr
        self.acc = np.zeros_like(rx.w[0])
        self.w = rx.w[0].copy()
        self.trained = 0

    def output(self, y):
        return complex(np.vdot(self.w, y))

    def adapt(self, y, d, g):
        if self.trained < self.n_tr:
            self.trained += 1
            self.acc += np.conj(d) * y
            a = self.acc / self.trained
            g_hat = self.gram_inv @ a
            self.w = g_hat / max(np.real(np.vdot(g_hat, a)), 1e-12)


class PerSymbolPd:
    """The pd-lms or pd-rls combiner updated one symbol at a time, as the
    trial ran it before a chunk's combiners came from one call.

    It starts from a one-run harness `_Projected`'s w and, for pd-rls, from
    the inverse covariance delta I, and updates them with the package's
    rank-one kernels; `output` and `adapt` have the shape of
    `PerSymbolRake`'s (`adapt` ignores the gains).
    """

    def __init__(self, rx):
        self.cfg = rx.cfg
        self.w = rx.w[0].copy()
        self.p_inv = rx.cfg.delta * np.eye(len(self.w), dtype=complex)
        self.breakdowns = 0

    def output(self, y):
        return complex(np.vdot(self.w, y))

    def adapt(self, y, d, g):
        cfg = self.cfg
        ce = np.conj(d - complex(np.vdot(self.w, y)))
        if cfg.algorithm == "pd-rls":
            self.p_inv, self.w, broke = adaptive._rls_filter(self.p_inv, self.w, y, ce,
                                                             cfg.alpha, cfg.delta)
            self.breakdowns += broke
        else:
            self.w = adaptive._gradient(self.w, y, ce, cfg.mu0, cfg.normalized_steps)


class PerSymbolInterpolated:
    """An interpolated receiver stepped one symbol at a time: the state and
    channel tracker `harness._state` makes for a one-run link, adapted by
    the algorithm's per-run step; `output` and `adapt` have the shape of
    `PerSymbolRake`'s.  A blind step takes the tracker's estimate, updated
    on r, when the channel is not known, and g when the known channel fades."""

    def __init__(self, cfg, link):
        self.cfg = cfg
        self.state, self.tracker = harness._state(cfg, link.codes[0], link.channels[0].gains)
        self.step = getattr(adaptive, cfg.algorithm.replace("-", "_") + "_step")

    def output(self, r):
        return receiver_output(self.state, r)

    def adapt(self, r, d, g):
        cfg = self.cfg
        adapt_v = not cfg.freeze_interpolator
        if cfg.mode != "blind":
            self.step(self.state, r, d, adapt_v=adapt_v)
        elif self.tracker is not None:
            self.step(self.state, r, adapt_v=adapt_v, g=self.tracker.update(r))
        else:
            self.step(self.state, r, adapt_v=adapt_v, g=g if cfg.f_dt > 0 else None)


def per_symbol_trial(cfg, run_seed):
    """(mse, sinr_db, ber) of one seeded run, metered symbol by symbol."""
    cfg.validate()
    link = harness._Links(cfg, [run_seed])
    if cfg.algorithm in harness.BASELINES:
        rx = harness._Projected(cfg, link)
        st = PerSymbolRake(rx, cfg.n_tr) if cfg.algorithm == "rake" else PerSymbolPd(rx)
        despread, output, adapt = rx.despread, st.output, st.adapt
    else:
        st = PerSymbolInterpolated(cfg, link)
        despread, output, adapt = np.asarray, st.output, st.adapt
    meter = SinrMeter()
    t = cfg.symbols
    mse = np.zeros(t)
    sinr = np.zeros(t)
    ber = np.zeros(t)
    errors = 0
    first = cfg.first_decided
    tracking = cfg.mode == "blind" and not cfg.known_channel
    for i in range(t):
        r, b, r_des = link_step_per_symbol(link, i)
        r, r_des = despread(r[None])[0], despread(r_des[None])[0]
        x = output(r)
        if tracking:
            x = harness._align_phase(x, st.state.g_hat, link.channels[0].gains)
        bhat = detect(x)
        mse[i] = power(b - x)
        if i >= first:
            errors += bhat != b
        ber[i] = errors / max(i - first + 1, 1)
        adapt(r, bhat if cfg.mode == "decision-directed" and i >= cfg.n_tr else b,
              link.channels[0].gains)
        out = output(r)
        out_des = output(r_des)
        sinr[i] = meter.update(out_des, out - out_des)
    return mse, sinr, ber
