import numpy as np
import pytest

from ifir_cdma import harness, mmse
from ifir_cdma.interpolation import filter_maps, impulse, make_decimation


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_spd(rng, n):
    a = crandn(rng, n, n)
    return a @ a.conj().T + 0.1 * np.eye(n)


def make_stats(rng, m_red=5, n_i=3):
    """Random (R_bar, p_bar, R_u, p_u)."""
    return random_spd(rng, m_red), crandn(rng, m_red), random_spd(rng, n_i), crandn(rng, n_i)


def min_mse(sigma_b2, r, p):
    """Minimum MSE sigma_b^2 - p^H R^-1 p of one Wiener solution."""
    return sigma_b2 - float(np.real(np.vdot(p, mmse.solve_wiener(r, p))))


class TestWienerSolutions:
    def test_identity_covariance(self):
        assert np.allclose(mmse.solve_wiener(np.eye(4, dtype=complex),
                                             np.eye(4)[0].astype(complex)),
                           np.eye(4)[0], atol=1e-7)
        assert np.allclose(mmse.solve_wiener(np.eye(2, dtype=complex),
                                             np.eye(2)[1].astype(complex)),
                           np.eye(2)[1], atol=1e-7)

    def test_defining_equations(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r_bar, p_bar, r_u, p_u = make_stats(rng)
            w = mmse.solve_wiener(r_bar, p_bar)
            v = mmse.solve_wiener(r_u, p_u)
            assert np.abs(r_bar @ w - p_bar).max() < 1e-7
            assert np.abs(r_u @ v - p_u).max() < 1e-7

    def test_scalar_interpolator(self):
        assert np.allclose(mmse.solve_wiener(np.array([[2.0 + 0j]]),
                                             np.array([0.5 + 0.5j])),
                           [(0.5 + 0.5j) / 2.0], atol=1e-8)

    def test_singular_covariance_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            mmse.solve_wiener(np.diag([1.0, 0.0]).astype(complex), np.ones(2, dtype=complex))

    def test_rank_one_closed_form(self):
        # single signature in noise: best MSE is sigma2/(1 + sigma2) for a
        # unit-norm signature and unit symbol power
        rng = np.random.default_rng(1)
        s = crandn(rng, 6)
        s /= np.linalg.norm(s)
        sigma2 = 0.3
        j = min_mse(1.0, np.outer(s, s.conj()) + sigma2 * np.eye(6), s.copy())
        assert abs(j - sigma2 / (1.0 + sigma2)) < 1e-8

    def test_mse_zero_crosscorrelation(self):
        rng = np.random.default_rng(2)
        r_bar, _, _, _ = make_stats(rng)
        assert abs(min_mse(1.7, r_bar, np.zeros(5, dtype=complex)) - 1.7) < 1e-12


def filter_statistics(rs, bs, v, w, dec):
    """(sigma_b^2, R_bar, p_bar, R_u, p_u) of a batch: the sample covariance
    of r and its correlation with the symbols, read through the filter maps."""
    d_v, e_w = filter_maps(v, w, dec)
    r_cov = rs.T @ rs.conj() / len(rs)
    p = rs.T @ bs.conj() / len(rs)
    return (float(np.mean(np.abs(bs) ** 2)), d_v @ r_cov @ d_v.conj().T, d_v @ p,
            e_w @ r_cov @ e_w.conj().T, e_w @ p)


def collect_batch(cfg, seed):
    rs, bs = [], []
    for r, b, _, _ in harness.iter_symbols(cfg, seed):
        rs.append(r)
        bs.append(b)
    return np.array(rs), np.array(bs)


class TestAlternateMmse:
    def scenario(self, l, n_i, symbols=1500, k=4, noise_db=15.0):
        cfg = harness.ScenarioConfig(
            n=31, k=k, l_p=6, l=l, n_i=n_i, algorithm="lms", mode="training",
            ebn0_db=noise_db, symbols=symbols, seed=9,
            path_delays=[0, 2, 4])
        return collect_batch(cfg, 1234)

    def test_noiseless_single_user_reaches_zero(self):
        cfg = harness.ScenarioConfig(
            n=31, k=1, l_p=1, l=1, n_i=1, algorithm="lms", mode="training",
            ebn0_db=200.0, symbols=300, seed=9, path_delays=[0],
            path_powers=[1.0])
        rs, bs = collect_batch(cfg, 7)
        dec = make_decimation(31, 1)
        state, j, hist = mmse.alternate_mmse(rs, bs, dec, impulse(1))
        assert j < 1e-9
        outs = np.array([np.vdot(state.w, r * np.conj(state.v[0])) for r in rs])
        assert np.all(np.sign(outs.real) == bs)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_sweep_refused(self, max_iter):
        rs, bs = np.ones((4, 36), dtype=complex), np.ones(4)
        with pytest.raises(ValueError, match="max_iter"):
            mmse.alternate_mmse(rs, bs, make_decimation(36, 2), impulse(3), max_iter=max_iter)

    def test_monotone_and_fixed_point(self):
        rs, bs = self.scenario(l=2, n_i=3)
        dec = make_decimation(36, 2)
        state, j, hist = mmse.alternate_mmse(rs, bs, dec, impulse(3), tol=1e-10)
        diffs = np.diff(np.array(hist))
        assert np.all(diffs <= 1e-9), "sample MSE increased during a half-sweep"
        # at convergence the two closed-form MSE values agree
        sigma_b2, r_bar, p_bar, r_u, p_u = filter_statistics(rs, bs, state.v, state.w, dec)
        j_r = min_mse(sigma_b2, r_bar, p_bar)
        j_u = min_mse(sigma_b2, r_u, p_u)
        assert abs(j_r - j_u) < 1e-6

    def test_stop_ignores_sample_order(self):
        # the same samples in another order move J by rounding alone, which
        # must not move the stop: the rule once stopped this batch after
        # 552, 554 or 556 half-sweeps depending on the order
        rs, bs = self.scenario(l=2, n_i=3)
        dec = make_decimation(36, 2)
        orders = (slice(None), slice(None, None, -1), np.random.default_rng(5).permutation(len(bs)))
        counts = {len(mmse.alternate_mmse(rs[o], bs[o], dec, impulse(3), tol=1e-10)[2])
                  for o in orders}
        assert len(counts) == 1, counts

    def test_initialization_independent(self):
        rs, bs = self.scenario(l=3, n_i=3)
        dec = make_decimation(36, 3)
        tol = 1e-8
        _, j1, _ = mmse.alternate_mmse(rs, bs, dec, impulse(3), tol=tol)
        v0 = np.ones(3, dtype=complex)
        _, j2, _ = mmse.alternate_mmse(rs, bs, dec, v0, tol=tol)
        assert abs(j1 - j2) <= 5 * tol * max(1.0, abs(j1))

    def test_scale_invariance_of_statistics(self):
        rs, bs = self.scenario(l=2, n_i=3, symbols=400)
        dec = make_decimation(36, 2)
        rng = np.random.default_rng(3)
        v = crandn(rng, 3)
        w = crandn(rng, dec.m_red)
        for t in (2.0, 0.3 - 1.1j):
            sigma_b2, r_bar, p_bar, _, _ = filter_statistics(rs, bs, v, w, dec)
            j1 = min_mse(sigma_b2, r_bar, p_bar)
            sigma_b2, r_bar, p_bar, _, _ = filter_statistics(rs, bs, t * v, w / t, dec)
            j2 = min_mse(sigma_b2, r_bar, p_bar)
            assert abs(j1 - j2) < 1e-9

    def test_full_rank_equivalence(self):
        # L=1, N_I=1 with the trivial interpolator reproduces the plain
        # full-rank Wiener design on the same samples
        rs, bs = self.scenario(l=1, n_i=1, symbols=1000)
        dec = make_decimation(36, 1)
        _, j, _ = mmse.alternate_mmse(rs, bs, dec, impulse(1), tol=1e-12)
        r_cov = np.einsum("tm,tn->mn", rs, rs.conj()) / len(rs)
        p = np.einsum("t,tm->m", bs.conj(), rs) / len(rs)
        w = np.linalg.solve(r_cov, p)
        j_full = 1.0 - float(np.real(np.vdot(p, w)))
        assert abs(j - j_full) < 1e-6
