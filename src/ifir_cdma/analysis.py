"""Convergence analysis machinery for the adaptive receivers.

Covers gradient step-size stability bounds, steady-state excess MSE for
the trained and blind gradient algorithms, mean tap-error trajectories
of the joint interpolator/receiver adaptation, the gradient transient
decomposition, the RLS learning curve, and per-symbol arithmetic
operation counts for all analysed structures.

Expectations that the theory treats as known statistics are estimated
here by sample averages over a caller-supplied window; the optimal
filter pair is expected to come from the batch designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .interpolation import DecimationOperator, make_decimation
from .mmse import segment_stack

MAX_KRON_DIM = 40  # fourth-moment matrices hold dim^4 scalars


class StabilityBound(NamedTuple):
    """Largest stable gradient step: exact (2/lam_max) and the
    conservative trace-based estimate (2/tr)."""

    step_max: float
    step_max_trace: float


def sg_stability_bound(r_bar: np.ndarray) -> StabilityBound:
    """Step-size stability limit 2/lam_max for a gradient recursion on r_bar."""
    lam = np.linalg.eigvalsh(np.asarray(r_bar))
    lam_max = float(lam[-1].real)
    tr = float(np.trace(r_bar).real)
    if lam_max <= 0 or tr <= 0:
        raise np.linalg.LinAlgError("covariance must have positive spectrum")
    return StabilityBound(step_max=2.0 / lam_max, step_max_trace=2.0 / tr)


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
    fourth moment of the projected vectors.
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
    errors [e_w; e_v].

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
    mode: str  # "trained" or "blind"

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


def _cross_expectations(res, bits, v_opt, w_opt):
    """Sample averages of the mixed segment-matrix moments."""
    t = res.shape[0]
    rbar = np.einsum("tnm,n->tm", res, np.conj(v_opt))
    u = np.einsum("tnm,m->tn", res, np.conj(w_opt))
    x_opt = np.einsum("tm,m->t", rbar, np.conj(w_opt))
    r_bar = np.einsum("tm,tn->mn", rbar, rbar.conj()) / t
    r_u = np.einsum("tm,tn->mn", u, u.conj()) / t
    # rows v^T Re^* and w^T Re^H applied sample-wise
    row_v = np.einsum("n,tnm->tm", v_opt, res.conj())      # v^T Re^*  (= rbar^H)
    row_w = np.einsum("m,tnm->tn", w_opt, res.conj())      # w^T Re^H  (= u^H)
    e_r_w = np.einsum("tm,tn->mn", rbar, row_w) / t        # E[rbar (w^T Re^H)]
    e_u_v = np.einsum("tm,tn->mn", u, row_v) / t           # E[u (v^T Re^*)]
    if bits is not None:
        e_opt = np.asarray(bits) - x_opt
        drive_r = np.einsum("tm,t->m", rbar, e_opt.conj()) / t
        drive_u = np.einsum("tm,t->m", u, e_opt.conj()) / t
    else:
        drive_r = drive_u = None
    drive_x_u = np.einsum("tm,t->m", u, x_opt.conj()) / t
    return dict(r_bar=r_bar, r_u=r_u, e_r_w=e_r_w, e_u_v=e_u_v,
                drive_r=drive_r, drive_u=drive_u, drive_x_u=drive_x_u)


def _trajectory(ex, a12, b, mu: float, eta: float, mode: str) -> TrajectoryModel:
    """Assemble A = [[I - mu R_bar, a12], [-eta E_uv, I - eta R_u]] with drive b."""
    a11 = np.eye(ex["r_bar"].shape[0]) - mu * ex["r_bar"]
    a22 = np.eye(ex["r_u"].shape[0]) - eta * ex["r_u"]
    a = np.block([[a11, a12], [-eta * ex["e_u_v"], a22]])
    return TrajectoryModel(a=a, b=b, mode=mode)


def build_trained_trajectory(received, bits, v_opt, w_opt, mu: float, eta: float,
                             dec: DecimationOperator) -> TrajectoryModel:
    """Transition matrix and drive for the trained gradient mean errors.

    First-order expansion of the error around (w_opt, v_opt): each
    filter's own block contracts with I - step * covariance, the error's
    dependence on the other filter appears in the cross blocks, and the
    drive is the gradient evaluated at the optimal pair.  All
    expectations are sample averages over the supplied window.  The
    model holds only for small errors; an ensemble started far from the
    optimum (say w = 0) follows the nonlinear recursion and decays at a
    different rate.
    """
    res = segment_stack(received, len(v_opt), dec)
    ex = _cross_expectations(res, bits, np.asarray(v_opt), np.asarray(w_opt))
    b = np.concatenate([mu * ex["drive_r"], eta * ex["drive_u"]])
    return _trajectory(ex, -mu * ex["e_r_w"], b, mu, eta, "trained")


def build_blind_trajectory(received, v_opt, w_opt, mu: float, eta: float,
                           cons, g_mean: np.ndarray) -> TrajectoryModel:
    """Transition matrix and drive for the blind constrained gradient.

    The same blocks as `build_trained_trajectory`, except that the
    filter's cross block is projected onto the constraint null space
    and the drive holds the constraint anchor and the output term.
    """
    res = segment_stack(received, len(v_opt), cons.dec)
    ex = _cross_expectations(res, None, np.asarray(v_opt), np.asarray(w_opt))
    b = np.concatenate([cons.anchor @ g_mean, -eta * ex["drive_x_u"]])
    return _trajectory(ex, -mu * (cons.pi @ ex["e_r_w"]), b, mu, eta, "blind")


def mean_trajectory(model: TrajectoryModel, e0: np.ndarray, steps: int) -> np.ndarray:
    """Iterate the mean tap-error recursion; row i is the error after i steps.

    Meaningful for e0 near zero, where the linearisation holds.  The
    iterates converge (for a stable model) to the point of the
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

    eps_min: float
    xi_inf: float
    modes: np.ndarray       # eigenvalues of the power recursion matrix
    gammas: np.ndarray
    eigenvalues: np.ndarray  # spectrum of r_bar

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
    return ExcessMseReport(eps_min=eps_min, xi_inf=xi_inf, modes=modes,
                           gammas=gammas, eigenvalues=lam)


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
