"""Convergence theory of the adaptive receivers, and their operation counts.

For a fixed interpolator v, the filter w sees rbar = Re^T conj(v), with
R_bar = E[rbar rbar^H] and the minimum MSE J_min.  From such statistics
(sample averages the caller supplies), the independence theory of
Haykin, Adaptive Filter Theory, predicts, each gated against seeded
campaigns by `tests/test_theory_gates.py`:

* `excess_mse_trained`: the trained gradient steady state (`lms` tail);
* `sg_transient`: its learning curve as decaying modes (`lms` from w = 0);
* `excess_mse_blind`: the blind constrained gradient steady state (`cmv-sg`);
* `rls_learning_curve`: RLS without forgetting (`rls` with alpha = 1).

`complexity_count` gives per-symbol operation counts; the benchmark
reads its `*-int` rows.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interpolation import make_decimation

MAX_KRON_DIM = 40  # fourth-moment matrices hold dim^4 scalars
_E4_CHUNK = 1024   # samples per Gram product: the chunk's vec(r r^H) rows take ~5 MB at dim 18


def excess_mse_trained(mu: float, r_bar: np.ndarray, eps_min: float) -> float:
    """Steady-state excess MSE of the trained gradient algorithm.

    xi = (mu/2 tr R) / (1 - mu/2 tr R) * eps_min.  Requires
    (mu/2) tr R < 1; beyond that the weight-error power recursion
    diverges and a ValueError is raised.
    """
    tr = float(np.trace(np.asarray(r_bar)).real)
    half = 0.5 * mu * tr
    if half >= 1.0:
        raise ValueError(f"(mu/2) tr R = {half:.3g} >= 1: adaptation noise diverges")
    return half / (1.0 - half) * eps_min


def fourth_moment(rbar_samples: np.ndarray) -> np.ndarray:
    """Sample average of (rr^H)^T kron (rr^H) as a dim^2 x dim^2 matrix.

    Uses the rank-one identity (rr^H)^T kron (rr^H) = m m^H with
    m = vec(r r^H) (column-major vec), so the average is a sum of Gram
    products over chunks of the stacked m vectors.
    """
    rb = np.asarray(rbar_samples)
    t, dim = rb.shape
    if dim > MAX_KRON_DIM:
        raise ValueError(f"dimension {dim} too large for fourth-moment accumulation")
    # row s of z is vec_F(r r^H) for sample s: entry (m + n*dim) = r[m] conj(r[n])
    zs = ((c[:, None, :].conj() * c[:, :, None]).reshape(len(c), -1, order="F")
          for c in np.split(rb, range(_E4_CHUNK, t, _E4_CHUNK)))
    return sum(z.T @ z.conj() for z in zs) / t


def excess_mse_blind(mu: float, pi: np.ndarray, w_opt: np.ndarray,
                     rbar_samples: np.ndarray) -> float:
    """Steady-state excess MSE of the blind constrained gradient algorithm.

    xi = mu vec(R)^H T^-1 a with
    T = (R Pi)^T kron I + I kron (Pi R) - mu (Pi^T kron Pi) E4 and
    a = (Pi^T kron Pi) E4 vec(w_opt w_opt^H), where R and E4 are the
    sample covariance and fourth moment of the projected vectors
    `rbar_samples` (one per row).  Pi = Pi_w = I - a_w a_w^H / ||a_w||^2
    projects onto the steps that keep w's constraint w^H a_w = 1, with
    a_w = Re_p^T conj(v) (see `cmv`), and w_opt is `cmv.cmv_receiver(R, a_w)`.
    """
    rb = np.asarray(rbar_samples)
    r_bar = rb.T @ rb.conj() / len(rb)
    dim = r_bar.shape[0]
    e4 = fourth_moment(rb)
    eye = np.eye(dim)
    kpp = np.kron(pi.T, pi)
    t_mat = np.kron((r_bar @ pi).T, eye) + np.kron(eye, pi @ r_bar) - mu * (kpp @ e4)
    a = kpp @ (e4 @ np.outer(w_opt, w_opt.conj()).reshape(-1, order="F"))
    vec_r = r_bar.reshape(-1, order="F")
    return float(mu * np.real(np.vdot(vec_r, np.linalg.solve(t_mat, a))))


@dataclass
class ExcessMseReport:
    """Transient/steady-state split of the gradient excess MSE.

    xi(i) = sum_n gamma_n mode_n^i + xi_inf, where the modes are the
    eigenvalues of the coupled weight-error power recursion.
    """

    xi_inf: float
    modes: np.ndarray       # eigenvalues of the power recursion matrix
    gammas: np.ndarray

    def transient(self, i: int) -> float:
        return float(np.real(np.sum(self.gammas * self.modes ** i)))

    def total(self, i: int) -> float:
        return self.xi_inf + self.transient(i)


def sg_transient(r_bar: np.ndarray, mu: float, eps_min: float,
                 x0: np.ndarray | None = None) -> ExcessMseReport:
    """Decompose the gradient excess MSE into decaying modes.

    Builds the power recursion matrix with entries (1 - mu lam_n)^2 on
    the diagonal and mu^2 lam_n lam_j off it, eigendecomposes it, and
    projects the initial rotated weight-error powers x0.  The default
    x0 = 0 is the start w(0) = w_opt: the excess MSE then starts at 0
    and rises to the steady-state term `xi_inf`, which equals
    `excess_mse_trained` by construction.  The start w(0) = 0 has
    x0 = |Q^H w_opt|^2, Q holding r_bar's eigenvectors as `eigh` orders them.
    """
    lam = np.linalg.eigvalsh(np.asarray(r_bar)).real
    dim = lam.size
    t_mat = mu * mu * np.outer(lam, lam)
    np.fill_diagonal(t_mat, (1.0 - mu * lam) ** 2)
    drive = mu * mu * eps_min * lam
    x_inf = np.linalg.solve(np.eye(dim) - t_mat, drive)
    xi_inf = float(lam @ x_inf)
    modes, vecs = np.linalg.eig(t_mat)
    if x0 is None:
        x0 = np.zeros(dim)
    diff = np.asarray(x0, dtype=complex) - x_inf
    # xi_trans(i) = sum_n lam^H g_n g_n^H diff * mode_n^i via the left/right bases
    coeffs = np.linalg.solve(vecs, diff)
    gammas = (lam @ vecs) * coeffs
    return ExcessMseReport(xi_inf=xi_inf, modes=modes, gammas=gammas)


def rls_learning_curve(sigma2: float, m_red: int, i: int) -> float:
    """Expected RLS excess MSE sigma2 * m_red / (i - m_red - 1), i > m_red + 1."""
    if i <= m_red + 1:
        raise ValueError("learning curve defined for i > m_red + 1")
    return sigma2 * m_red / (i - m_red - 1)


# Operation counts.  Each row takes the parameters it reads, named as in the
# paper's table: M, R = M/L, NI = N_I, D (rank or stage count) and LP = l_p.
_COMPLEXITY: dict[str, Callable] = {
    "lms-full-rank": lambda M: (2 * M, 2 * M + 1),
    # Read the multiplications against "cmv-sg-int": both run the same
    # interpolate/decimate/filter/update chain and the blind row only adds
    # the constraint projection of the w update (R^2 + R*LP), so the rest,
    # 4R + NI + R*NI, must match.  This relation, not a copy of the
    # paper's table, is what fixes the row.
    "lms-int": lambda M, R, NI: (
        2 * R + 2 * NI + NI * M + R * NI + 2,
        4 * R + NI + R * NI),
    "lms-pc": lambda M, D: (M ** 3 + 2 * D, M ** 3 + 2 * D + 1),
    "lms-pd": lambda D: ((D - 1) ** 2 + 2 * D + 1, D ** 2 + 2 * D + 2),
    # the multistage rows have the fixed stage length M - D
    "mwf-sg": lambda M, D: (
        D * (2 * (M - D - 1) ** 2 + M - D + 3), D * (2 * (M - D) ** 2 + 5 * (M - D) + 7)),
    "rls-full-rank": lambda M: (
        3 * (M - 1) ** 2 + M ** 2 + 2 * M, 6 * M ** 2 + 2 * M + 2),
    "rls-int": lambda M, R, NI: (
        3 * (R - 1) ** 2 + 3 * (NI - 1) ** 2 + (R - 1) * NI + NI * M + R ** 2
        + NI ** 2 + 2 * R + 2 * NI,
        6 * R ** 2 + 6 * NI ** 2 + R * NI + 3 * R + NI + 2),
    "rls-pc": lambda M, D: (
        M ** 3 + 3 * (D - 1) ** 2 + D ** 2 + 2 * D, M ** 3 + 6 * D ** 2 + 2 * D + 2),
    "rls-pd": lambda D: (
        4 * (D - 1) ** 2 + D ** 2 + 2 * D, 7 * D ** 2 + 2 * D + 2),
    "mwf-recursive": lambda M, D: (
        D * (4 * (M - D - 1) ** 2 + 2 * (M - D)), D * (4 * (M - D) ** 2 + 2 * (M - D) + 3)),
    "cmv-sg-full-rank": lambda M, LP: (
        M ** 2 + M * LP + 2 * M + 1, M ** 2 + M * LP + 3 * M),
    "cmv-sg-int": lambda M, R, NI, LP: (
        R ** 2 + R * LP + NI * M + R * NI + 2 * R + NI + 2,
        R ** 2 + R * LP + R * NI + 4 * R + NI),
    "cmv-sg-mwf": lambda M, D: (
        D * (2 * (M - D - 1) ** 2 + 2), D * (2 * (M - D) ** 2 + 3 * (M - D) + 5)),
    "cmv-rls-full-rank": lambda M, LP: (
        4 * (M - 1) ** 2 + M ** 2 + 3 * (LP - 1) ** 2 - 1 + LP ** 2 + 2 * LP + M * LP,
        7 * M ** 2 + M + LP ** 2 + M * LP + LP + 4),
    "cmv-rls-int": lambda M, R, NI, LP: (
        4 * (R - 1) ** 2 + R ** 2 + LP ** 2 + 3 * (LP - 1) ** 2 + 2 * R * LP
        + NI * M + 3 * LP - 1 + (R - 1) * NI + (NI - 1) ** 2,
        7 * R ** 2 + 2 * R + LP ** 2 + R * LP + LP + 2 + NI ** 2 + R * NI + NI),
    "pc-wang-poor": lambda M: (
        M ** 3 + 2 * (M - 1) ** 2, M ** 3 + 2 * M ** 2 + M),
    "cmv-mwf-recursive": lambda M, D: (
        D * (3 * (M - D - 1) ** 2 + 2 * (M - D)), D * (3 * (M - D) ** 2 + 2 * (M - D) + 3)),
}


def complexity_count(algorithm: str, m: int, l: int = 1, n_i: int | None = None,
                     d: int | None = None, l_p: int | None = None) -> tuple[int, int]:
    """Per-symbol (additions, multiplications) for the named structure.

    Eigendecomposition costs are counted as M^3.  M/L is the receiver's
    own reduced length, `make_decimation(m, l).m_red`, which raises
    ValueError unless m >= l >= 1.  A row that reads n_i, d or l_p
    raises ValueError, naming the row, when that argument is left out.
    """
    key = algorithm.lower()
    if key not in _COMPLEXITY:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(_COMPLEXITY)}")
    row = _COMPLEXITY[key]
    given = {"M": m, "R": make_decimation(m, l).m_red, "NI": n_i, "D": d, "LP": l_p}
    names = inspect.signature(row).parameters
    missing = [arg for name, arg in (("NI", "n_i"), ("D", "d"), ("LP", "l_p"))
               if name in names and given[name] is None]
    if missing:
        raise ValueError(f"row {key!r} needs {', '.join(missing)}")
    adds, mults = row(**{name: given[name] for name in names})
    return int(adds), int(mults)
