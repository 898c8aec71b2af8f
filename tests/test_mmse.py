import numpy as np

from ifir_cdma import harness, mmse
from ifir_cdma.interpolation import make_decimation


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_spd(rng, n):
    a = crandn(rng, n, n)
    return a @ a.conj().T + 0.1 * np.eye(n)


def make_stats(rng, m_red=5, n_i=3):
    return mmse.MmseStatistics(
        r_bar=random_spd(rng, m_red), p_bar=crandn(rng, m_red),
        r_u=random_spd(rng, n_i), p_u=crandn(rng, n_i), sigma_b2=1.0)


def min_mse(sigma_b2, r, p):
    """Minimum MSE sigma_b^2 - p^H R^-1 p of one Wiener solution."""
    return sigma_b2 - float(np.real(np.vdot(p, mmse.solve_regularized(r, p))))


class TestWienerSolutions:
    def test_identity_covariance(self):
        stats = mmse.MmseStatistics(
            r_bar=np.eye(4, dtype=complex), p_bar=np.eye(4)[0].astype(complex),
            r_u=np.eye(2, dtype=complex), p_u=np.eye(2)[1].astype(complex),
            sigma_b2=1.0)
        assert np.allclose(mmse.solve_regularized(stats.r_bar, stats.p_bar), np.eye(4)[0],
                           atol=1e-7)
        assert np.allclose(mmse.solve_regularized(stats.r_u, stats.p_u), np.eye(2)[1],
                           atol=1e-7)

    def test_defining_equations(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            stats = make_stats(rng)
            w = mmse.solve_regularized(stats.r_bar, stats.p_bar)
            v = mmse.solve_regularized(stats.r_u, stats.p_u)
            assert np.abs(stats.r_bar @ w - stats.p_bar).max() < 1e-7
            assert np.abs(stats.r_u @ v - stats.p_u).max() < 1e-7

    def test_scalar_interpolator(self):
        stats = mmse.MmseStatistics(
            r_bar=np.eye(2, dtype=complex), p_bar=np.zeros(2, dtype=complex),
            r_u=np.array([[2.0 + 0j]]), p_u=np.array([0.5 + 0.5j]), sigma_b2=1.0)
        assert np.allclose(mmse.solve_regularized(stats.r_u, stats.p_u), [(0.5 + 0.5j) / 2.0],
                           atol=1e-8)

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
        stats = make_stats(rng)
        assert abs(min_mse(1.7, stats.r_bar, np.zeros(5, dtype=complex)) - 1.7) < 1e-12


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
        state, j, hist = mmse.alternate_mmse(rs, bs, dec, 1)
        assert j < 1e-9
        outs = np.array([np.vdot(state.w, r * np.conj(state.v[0])) for r in rs])
        assert np.all(np.sign(outs.real) == bs)

    def test_monotone_and_fixed_point(self):
        rs, bs = self.scenario(l=2, n_i=3)
        dec = make_decimation(36, 2)
        state, j, hist = mmse.alternate_mmse(rs, bs, dec, 3, tol=1e-10)
        diffs = np.diff(np.array(hist))
        assert np.all(diffs <= 1e-9), "sample MSE increased during a half-sweep"
        # at convergence the two closed-form MSE values agree
        res = mmse.segment_stack(rs, 3, dec)
        stats = mmse.estimate_statistics(res, bs, state.v, state.w)
        j_r = min_mse(stats.sigma_b2, stats.r_bar, stats.p_bar)
        j_u = min_mse(stats.sigma_b2, stats.r_u, stats.p_u)
        assert abs(j_r - j_u) < 1e-6

    def test_initialization_independent(self):
        rs, bs = self.scenario(l=3, n_i=3)
        dec = make_decimation(36, 3)
        tol = 1e-8
        _, j1, _ = mmse.alternate_mmse(rs, bs, dec, 3, tol=tol)
        v0 = np.ones(3, dtype=complex)
        _, j2, _ = mmse.alternate_mmse(rs, bs, dec, 3, v0=v0, tol=tol)
        assert abs(j1 - j2) <= 5 * tol * max(1.0, abs(j1))

    def test_scale_invariance_of_statistics(self):
        rs, bs = self.scenario(l=2, n_i=3, symbols=400)
        dec = make_decimation(36, 2)
        res = mmse.segment_stack(rs, 3, dec)
        rng = np.random.default_rng(3)
        v = crandn(rng, 3)
        w = crandn(rng, dec.m_red)
        for t in (2.0, 0.3 - 1.1j):
            s1 = mmse.estimate_statistics(res, bs, v, w)
            s2 = mmse.estimate_statistics(res, bs, t * v, w / t)
            j1 = min_mse(s1.sigma_b2, s1.r_bar, s1.p_bar)
            j2 = min_mse(s2.sigma_b2, s2.r_bar, s2.p_bar)
            assert abs(j1 - j2) < 1e-9

    def test_full_rank_equivalence(self):
        # L=1, N_I=1 with the trivial interpolator reproduces the plain
        # full-rank Wiener design on the same samples
        rs, bs = self.scenario(l=1, n_i=1, symbols=1000)
        dec = make_decimation(36, 1)
        _, j, _ = mmse.alternate_mmse(rs, bs, dec, 1, tol=1e-12)
        r_cov = np.einsum("tm,tn->mn", rs, rs.conj()) / len(rs)
        p = np.einsum("t,tm->m", bs.conj(), rs) / len(rs)
        w = np.linalg.solve(r_cov, p)
        j_full = 1.0 - float(np.real(np.vdot(p, w)))
        assert abs(j - j_full) < 1e-6
