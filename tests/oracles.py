"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles against the math, not
by calling into the package, so each check runs through two separate
code paths.
"""

import numpy as np


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
# that `signal_model.synthesize_received` evaluates by convolution.

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
