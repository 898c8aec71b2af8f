"""Convergence theory of the adaptive receivers, and their operation counts.

For a fixed interpolator v, the filter w sees rbar = Re^T conj(v), with
R_bar = E[rbar rbar^H] and the minimum MSE J_min.  From such statistics
(sample averages the caller supplies), the independence theory of
Haykin, Adaptive Filter Theory, predicts, each gated against seeded
campaigns by `tests/test_theory_gates.py`:

* `excess_mse_trained`: the trained gradient steady state (`lms` tail);
* `sg_learning_curve`: its learning curve from a given start (`lms` from w = 0);
* `excess_mse_blind`: the blind constrained gradient steady state (`cmv-sg`);
* `rls_learning_curve`: RLS without forgetting (`rls` with alpha = 1).

`complexity_count` gives per-symbol operation counts; the benchmark
reads its `*-int` rows.
"""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from .cmv import cmv_receiver
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


def excess_mse_blind(mu: float, a_w: np.ndarray, rbar_samples: np.ndarray) -> float:
    """Steady-state excess MSE of the blind constrained gradient algorithm.

    The weight error eps = w - w_opt has a steady covariance K solving
    Pi R K + K R Pi - mu Pi E4[K] Pi = mu Pi E4[w_opt w_opt^H] Pi, and
    xi = tr(R K).  R and E4 are the sample covariance and fourth moment
    of the projected vectors `rbar_samples` (one per row),
    E4[X] = E[r r^H X r r^H].  Pi = I - a_w a_w^H / ||a_w||^2 projects
    onto the steps that keep w's constraint w^H a_w = 1, with
    a_w = Re_p^T conj(v) (see `cmv`), and w_opt = `cmv.cmv_receiver(R, a_w)`.

    The equation fixes no part of K along a_w a_w^H, so it is solved on
    the range of Pi, where eps lies (w and w_opt both meet the
    constraint): K = Q k Q^H, Q an orthonormal basis of that range,
    and in vec form
    ((Q^H R Q)^T kron I + I kron Q^H R Q - mu P^H E4 P) vec k = mu P^H E4 vec(w_opt w_opt^H)
    with P = conj(Q) kron Q, so xi = vec(Q^H R Q)^H vec k.
    """
    rb = np.asarray(rbar_samples)
    r_bar = rb.T @ rb.conj() / len(rb)
    dim = r_bar.shape[0]
    pi = np.eye(dim) - np.outer(a_w, a_w.conj()) / np.vdot(a_w, a_w).real
    q = np.linalg.eigh(pi)[1][:, 1:]   # eigenvalue 0 first, then the 1s of the range
    p = np.kron(q.conj(), q)
    r_q = q.conj().T @ r_bar @ q
    eye = np.eye(dim - 1)
    w_opt = cmv_receiver(r_bar, a_w)
    e4 = fourth_moment(rb)
    t_mat = np.kron(r_q.T, eye) + np.kron(eye, r_q) - mu * (p.conj().T @ e4 @ p)
    a = mu * (p.conj().T @ (e4 @ np.outer(w_opt, w_opt.conj()).reshape(-1, order="F")))
    vec_k = np.linalg.solve(t_mat, a)
    return float(np.real(np.vdot(r_q.reshape(-1, order="F"), vec_k)))


def sg_learning_curve(r_bar: np.ndarray, mu: float, eps_min: float, w_err0: np.ndarray,
                      n: int) -> np.ndarray:
    """Excess MSE of the trained gradient algorithm at symbols 0..n-1.

    With R_bar = Q diag(lam) Q^H, the weight-error powers along Q,
    x(0) = |Q^H (w(0) - w_opt)|^2, follow
    x(i+1) = T x(i) + mu^2 eps_min lam, where T has (1 - mu lam_n)^2 on
    its diagonal and mu^2 lam_n lam_j off it; the excess MSE is lam^T x(i).
    """
    lam, q = np.linalg.eigh(np.asarray(r_bar))
    t_mat = mu * mu * np.outer(lam, lam)
    np.fill_diagonal(t_mat, (1.0 - mu * lam) ** 2)
    drive = mu * mu * eps_min * lam
    x = np.abs(q.conj().T @ w_err0) ** 2
    curve = np.empty(n)
    for i in range(n):
        curve[i] = lam @ x
        x = t_mat @ x + drive
    return curve


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
