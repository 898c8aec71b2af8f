"""Convergence analysis machinery for the adaptive receivers.

Covers the steady-state excess MSE of the trained and blind gradient
algorithms (the trained formula also flags a diverging step size),
mean tap-error trajectories of the joint interpolator/receiver
adaptation, the gradient transient decomposition, the RLS learning
curve, and per-symbol arithmetic operation counts for all analysed
structures.

Expectations that the theory treats as known statistics are estimated
here by sample averages over a caller-supplied window: the sample
covariance of r (and its cross-correlation with the symbols) read
through the filter maps of `interpolation.filter_maps`.  The optimal
filter pair is expected to come from the batch designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interpolation import DecimationOperator, build_re_matrix, filter_maps, make_decimation

MAX_KRON_DIM = 40  # fourth-moment matrices hold dim^4 scalars


def excess_mse_trained(mu: float, r_bar: np.ndarray, eps_min: float) -> float:
    """Steady-state excess MSE of the trained gradient algorithm.

    xi = (mu/2 tr R) / (1 - mu/2 tr R) * eps_min.  Requires
    (mu/2) tr R < 1; beyond that the weight-error power recursion
    diverges and a ValueError is raised.  The same formula applies to
    the interpolator side with (eta, R_u).
    """
    tr = float(np.trace(np.asarray(r_bar)).real)
    half = 0.5 * mu * tr
    if half >= 1.0:
        raise ValueError(f"(mu/2) tr R = {half:.3g} >= 1: adaptation noise diverges")
    return half / (1.0 - half) * eps_min


def fourth_moment(rbar_samples: np.ndarray) -> np.ndarray:
    """Sample average of (rr^H)^T kron (rr^H) as a dim^2 x dim^2 matrix.

    Uses the rank-one identity (rr^H)^T kron (rr^H) = m m^H with
    m = vec(r r^H) (column-major vec), so the average is a single Gram
    product over the stacked m vectors.
    """
    rb = np.asarray(rbar_samples)
    t, dim = rb.shape
    if dim > MAX_KRON_DIM:
        raise ValueError(f"dimension {dim} too large for fourth-moment accumulation")
    # z[t] = vec_F(rb rb^H): entry (m + n*dim) = rb[m] conj(rb[n])
    z = (rb[:, None, :].conj() * rb[:, :, None]).reshape(t, dim * dim, order="F")
    return (z.T @ z.conj()) / t


def excess_mse_blind(mu: float, r_bar: np.ndarray, pi: np.ndarray,
                     w_opt: np.ndarray, rbar_samples: np.ndarray) -> float:
    """Steady-state excess MSE of the blind constrained gradient algorithm.

    xi = mu vec(R)^H T^-1 a with
    T = (R Pi)^T kron I + I kron (Pi R) - mu (Pi^T kron Pi) E4 and
    a = (Pi^T kron Pi) E4 vec(w_opt w_opt^H), where E4 is the sample
    fourth moment of the projected vectors and Pi = Pi_w, the projector
    I - a_w a_w^H / ||a_w||^2 onto the filter's constraint hyperplane
    (see `build_blind_trajectory`).
    """
    r_bar = np.asarray(r_bar)
    dim = r_bar.shape[0]
    e4 = fourth_moment(rbar_samples)
    eye = np.eye(dim)
    kpp = np.kron(pi.T, pi)
    t_mat = np.kron((r_bar @ pi).T, eye) + np.kron(eye, pi @ r_bar) - mu * (kpp @ e4)
    a = kpp @ (e4 @ np.outer(w_opt, w_opt.conj()).reshape(-1, order="F"))
    vec_r = r_bar.reshape(-1, order="F")
    return float(mu * np.real(np.vdot(vec_r, np.linalg.solve(t_mat, a))))


# ---------------------------------------------------------------------------
# mean tap-error trajectories
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryModel:
    """Linear recursion e(i+1) = A e(i) + B for the stacked mean tap
    errors [e_w; e_v] (for the blind model, the stacked taps [w; v]).

    The recursion is a small-error linearisation: it describes the mean
    errors only for starts near the optimal pair (w_opt, v_opt), not
    from, e.g., a zero filter.

    The jointly linearised trained model always carries one neutral
    eigenvalue: scaling the interpolator by t and the filter by 1/t
    leaves the output unchanged, so the orbit direction
    n = [-w_opt; v_opt] has no restoring force (A n = n).  The
    stationary points therefore form the line fixed_point() + span{n},
    and a stable recursion started at e0 converges to the point of that
    line fixed by e0's neutral component,
    fixed_point() + n l^H (e0 - fixed_point()) / (l^H n) with l the left
    eigenvector of A for eigenvalue one; in general that is not
    `fixed_point()` itself.  The convergence verdict in `stable` uses
    the eigenvalue magnitudes of A, tolerating the neutral mode.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def stable(self) -> bool:
        """True when no eigenvalue of A lies outside the unit circle."""
        return float(np.abs(np.linalg.eigvals(self.a)).max()) <= 1.0 + 1e-9

    def fixed_point(self) -> np.ndarray:
        """Minimum-norm stationary point of the recursion.

        Least squares handles the neutral scaling mode, along which the
        stationary point is not unique: every point of
        fixed_point() + span{n} is stationary (see the class docstring).
        """
        dim = self.a.shape[0]
        sol, *_ = np.linalg.lstsq(np.eye(dim) - self.a, self.b, rcond=None)
        return sol


def _coupled_statistics(received, v_opt, w_opt, mu: float, eta: float,
                        dec: DecimationOperator):
    """(g, steps, s): the stacked filter maps g = [D_v; E_w] of the pair,
    the step of each row (mu for w's, eta for v's), and s = g R g^H for
    the window's sample covariance R = E[r r^H].  The blocks of s are
    [[R_bar, E[rbar u^H]], [E[u rbar^H], R_u]], so the transition matrix
    is A = I - diag(steps) s."""
    received = np.asarray(received)
    g = np.vstack(filter_maps(v_opt, w_opt, dec))
    s = g @ (received.T @ received.conj() / len(received)) @ g.conj().T
    steps = np.repeat([mu, eta], [len(w_opt), len(v_opt)])
    return g, steps, s


def build_trained_trajectory(received, bits, v_opt, w_opt, mu: float, eta: float,
                             dec: DecimationOperator) -> TrajectoryModel:
    """Transition matrix and drive for the trained gradient mean errors.

    First-order expansion of the error around (w_opt, v_opt): each
    filter's own block contracts with I - step * covariance, the error's
    dependence on the other filter appears in the cross blocks, and the
    drive is the gradient evaluated at the optimal pair,
    [mu (p_bar - R_bar w_opt); eta (p_u - E[u rbar^H] w_opt)].  All
    expectations are sample averages over the supplied window.  The
    model holds only for small errors; an ensemble started far from the
    optimum (say w = 0) follows the nonlinear recursion and decays at a
    different rate.
    """
    received, bits, w_opt = np.asarray(received), np.asarray(bits), np.asarray(w_opt)
    g, steps, s = _coupled_statistics(received, np.asarray(v_opt), w_opt, mu, eta, dec)
    p = received.T @ bits.conj() / len(bits)
    b = steps * (g @ p - s[:, :len(w_opt)] @ w_opt)
    return TrajectoryModel(a=np.eye(len(s)) - steps[:, None] * s, b=b)


def build_blind_trajectory(received, v_opt, w_opt, mu: float, eta: float,
                           cons, g_mean: np.ndarray) -> TrajectoryModel:
    """Transition matrix and drive for the blind constrained gradient.

    The blind gradient's linear part is the trained one's, so the model
    takes the blocks of `build_trained_trajectory` and projects each
    filter's row of them by its own constraint hyperplane: Pi_w for
    a_w = Re_p^T conj(v_opt) and Pi_v for a_v = Re_p conj(w_opt), with
    Re_p the segment matrix of p = C g_mean.  The drive is each filter's
    minimum-norm feasible point a / ||a||^2, so the recursion runs on the
    stacked taps [w; v] and every iterate meets both hyperplanes.
    """
    v_opt, w_opt = np.asarray(v_opt), np.asarray(w_opt)
    _, steps, s = _coupled_statistics(received, v_opt, w_opt, mu, eta, cons.dec)
    re_p = build_re_matrix(cons.c @ g_mean, len(v_opt), cons.dec)
    a_w, a_v = re_p.T @ v_opt.conj(), re_p @ w_opt.conj()
    a = np.eye(len(s)) - steps[:, None] * s
    q = len(w_opt)
    for rows, f in ((slice(None, q), a_w), (slice(q, None), a_v)):
        a[rows] -= np.outer(f, f.conj() @ a[rows]) / np.vdot(f, f).real   # Pi a[rows]
    b = np.concatenate([f / np.vdot(f, f).real for f in (a_w, a_v)])
    return TrajectoryModel(a=a, b=b)


def mean_trajectory(model: TrajectoryModel, e0: np.ndarray, steps: int) -> np.ndarray:
    """Iterate the mean tap-error recursion; row i is the error after i steps.

    Meaningful for e0 near zero, where the linearisation holds.  The
    iterates of a stable trained model converge to the point of the
    stationary line fixed_point() + span{[-w_opt; v_opt]} that e0's
    neutral component fixes, not to `fixed_point()` itself.
    """
    dim = model.a.shape[0]
    e = np.asarray(e0, dtype=complex)
    if e.size != dim:
        raise ValueError(f"e0 must have length {dim}")
    out = np.empty((steps + 1, dim), dtype=complex)
    out[0] = e
    for i in range(steps):
        e = model.a @ e + model.b
        out[i + 1] = e
    return out


# ---------------------------------------------------------------------------
# gradient transient decomposition
# ---------------------------------------------------------------------------

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
    `excess_mse_trained` by construction.
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


# ---------------------------------------------------------------------------
# complexity counts
# ---------------------------------------------------------------------------

_COMPLEXITY: dict[str, Callable] = {
    "lms-full-rank": lambda M, R, NI, D, LP, MB: (2 * M, 2 * M + 1),
    # Read the multiplications against "cmv-sg-int": both run the same
    # interpolate/decimate/filter/update chain and the blind row only adds
    # the constraint projection of the w update (R^2 + R*LP), so the rest,
    # 4R + NI + R*NI, must match.  This relation, not a copy of the
    # paper's table, is what fixes the row.
    "lms-int": lambda M, R, NI, D, LP, MB: (
        2 * R + 2 * NI + NI * M + R * NI + 2,
        4 * R + NI + R * NI),
    "lms-pc": lambda M, R, NI, D, LP, MB: (M ** 3 + 2 * D, M ** 3 + 2 * D + 1),
    "lms-pd": lambda M, R, NI, D, LP, MB: ((D - 1) ** 2 + 2 * D + 1, D ** 2 + 2 * D + 2),
    "mwf-sg": lambda M, R, NI, D, LP, MB: (
        D * (2 * (MB - 1) ** 2 + MB + 3), D * (2 * MB ** 2 + 5 * MB + 7)),
    "rls-full-rank": lambda M, R, NI, D, LP, MB: (
        3 * (M - 1) ** 2 + M ** 2 + 2 * M, 6 * M ** 2 + 2 * M + 2),
    "rls-int": lambda M, R, NI, D, LP, MB: (
        3 * (R - 1) ** 2 + 3 * (NI - 1) ** 2 + (R - 1) * NI + NI * M + R ** 2
        + NI ** 2 + 2 * R + 2 * NI,
        6 * R ** 2 + 6 * NI ** 2 + R * NI + 3 * R + NI + 2),
    "rls-pc": lambda M, R, NI, D, LP, MB: (
        M ** 3 + 3 * (D - 1) ** 2 + D ** 2 + 2 * D, M ** 3 + 6 * D ** 2 + 2 * D + 2),
    "rls-pd": lambda M, R, NI, D, LP, MB: (
        4 * (D - 1) ** 2 + D ** 2 + 2 * D, 7 * D ** 2 + 2 * D + 2),
    "mwf-recursive": lambda M, R, NI, D, LP, MB: (
        D * (4 * (MB - 1) ** 2 + 2 * MB), D * (4 * MB ** 2 + 2 * MB + 3)),
    "cmv-sg-full-rank": lambda M, R, NI, D, LP, MB: (
        M ** 2 + M * LP + 2 * M + 1, M ** 2 + M * LP + 3 * M),
    "cmv-sg-int": lambda M, R, NI, D, LP, MB: (
        R ** 2 + R * LP + NI * M + R * NI + 2 * R + NI + 2,
        R ** 2 + R * LP + R * NI + 4 * R + NI),
    "cmv-sg-mwf": lambda M, R, NI, D, LP, MB: (
        D * (2 * (MB - 1) ** 2 + 2), D * (2 * MB ** 2 + 3 * MB + 5)),
    "cmv-rls-full-rank": lambda M, R, NI, D, LP, MB: (
        4 * (M - 1) ** 2 + M ** 2 + 3 * (LP - 1) ** 2 - 1 + LP ** 2 + 2 * LP + M * LP,
        7 * M ** 2 + M + LP ** 2 + M * LP + LP + 4),
    "cmv-rls-int": lambda M, R, NI, D, LP, MB: (
        4 * (R - 1) ** 2 + R ** 2 + LP ** 2 + 3 * (LP - 1) ** 2 + 2 * R * LP
        + NI * M + 3 * LP - 1 + (R - 1) * NI + (NI - 1) ** 2,
        7 * R ** 2 + 2 * R + LP ** 2 + R * LP + LP + 2 + NI ** 2 + R * NI + NI),
    "pc-wang-poor": lambda M, R, NI, D, LP, MB: (
        M ** 3 + 2 * (M - 1) ** 2, M ** 3 + 2 * M ** 2 + M),
    "cmv-mwf-recursive": lambda M, R, NI, D, LP, MB: (
        D * (3 * (MB - 1) ** 2 + 2 * MB), D * (3 * MB ** 2 + 2 * MB + 3)),
}


def complexity_count(algorithm: str, m: int, l: int = 1, n_i: int = 0,
                     d: int = 0, l_p: int = 0) -> tuple[int, int]:
    """Per-symbol (additions, multiplications) for the named structure.

    Eigendecomposition costs are counted as M^3.  Multistage rows use
    the fixed stage length M - d evaluated at d = D.  M/L is the
    receiver's own reduced length, `make_decimation(m, l).m_red`, which
    raises ValueError unless m >= l >= 1.
    """
    key = algorithm.lower()
    if key not in _COMPLEXITY:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(_COMPLEXITY)}")
    adds, mults = _COMPLEXITY[key](m, make_decimation(m, l).m_red, n_i, d, l_p, m - d)
    return int(adds), int(mults)
