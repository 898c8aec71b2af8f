import itertools

import numpy as np
import pytest

from ifir_cdma import analysis
from ifir_cdma.interpolation import make_decimation
from ifir_cdma.signal_model import gen_gold_set


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n, floor=0.05):
    a = crandn(rng, n, n)
    return a @ a.conj().T + floor * np.eye(n)


class TestExcessMseTrained:
    def test_closed_form_value(self):
        r = np.diag([0.6, 0.4])  # trace 1
        assert analysis.excess_mse_trained(1.0, r, 0.2) == pytest.approx(
            (0.5 / 0.5) * 0.2)

    def test_small_step_limit(self):
        r = np.eye(3)
        vals = [analysis.excess_mse_trained(mu, r, 1.0) for mu in (1e-3, 1e-4, 1e-5)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(1.5e-5, rel=1e-3)

    def test_divergence_flagged(self):
        with pytest.raises(ValueError):
            analysis.excess_mse_trained(1.0, np.diag([1.5, 0.6]), 0.1)

    def test_matches_transient_steady_state(self):
        # the steady state of the power recursion has equal powers
        # mu (eps + xi) / 2 along every eigenvector: started there, the
        # learning curve stays at the closed-form excess
        rng = np.random.default_rng(1)
        for _ in range(10):
            r = random_psd(rng, 5)
            mu = 0.5 / np.trace(r).real
            eps = 0.3
            direct = analysis.excess_mse_trained(mu, r, eps)
            q = np.linalg.eigh(r)[1]
            w_err0 = q @ (np.sqrt(mu * (eps + direct) / 2) * np.exp(2j * np.pi * rng.random(5)))
            curve = analysis.sg_learning_curve(r, mu, eps, w_err0, 50)
            assert np.abs(curve - direct).max() < 1e-10 * max(direct, 1.0)


class TestSgTransient:
    def test_equal_eigenvalues_single_mode(self):
        # a white covariance c I leaves one decay rate, (1 - mu c)^2 + mu^2 c^2 (dim - 1)
        curve = analysis.sg_learning_curve(0.5 * np.eye(4), 0.1, 1.0, np.full(4, 0.2 ** 0.5), 60)
        steps = np.diff(curve)
        assert steps[1:] / steps[:-1] == pytest.approx(np.full(58, 0.95 ** 2 + 0.05 ** 2 * 3),
                                                       rel=1e-9)

    def test_transient_decays_to_zero(self):
        rng = np.random.default_rng(2)
        r = random_psd(rng, 4)
        mu = 0.4 / np.linalg.eigvalsh(r)[-1].real
        curve = analysis.sg_learning_curve(r, mu, 0.1, crandn(rng, 4), 1001)
        vals = np.abs(curve[[1, 50, 200, 1000]] - analysis.excess_mse_trained(mu, r, 0.1))
        assert vals[-1] < 1e-6 * max(vals[0], 1e-12)

    def test_total_tracks_power_recursion(self):
        # oracles: the first two values written with R itself, which checks
        # the rotation onto R's eigenvectors, and the closed form
        # x(i) = x_inf + T^i (x(0) - x_inf) of the power recursion
        rng = np.random.default_rng(3)
        r = random_psd(rng, 3)
        lam, q = np.linalg.eigh(r)
        mu = 0.3 / lam[-1]
        eps = 0.25
        e = crandn(rng, 3)
        curve = analysis.sg_learning_curve(r, mu, eps, e, 60)
        a = np.eye(3) - mu * r
        tr2 = np.trace(r @ r).real
        assert curve[0] == pytest.approx(np.vdot(e, r @ e).real, rel=1e-12)
        assert curve[1] == pytest.approx(
            np.vdot(e, r @ a @ a @ e).real + mu * mu * (
                tr2 * (np.vdot(e, r @ e).real + eps) - np.vdot(e, r @ r @ r @ e).real),
            rel=1e-12)
        t_mat = mu * mu * np.outer(lam, lam)
        np.fill_diagonal(t_mat, (1 - mu * lam) ** 2)
        x_inf = np.linalg.solve(np.eye(3) - t_mat, mu * mu * eps * lam)
        x0 = np.abs(q.conj().T @ e) ** 2
        for i in range(60):
            x = x_inf + np.linalg.matrix_power(t_mat, i) @ (x0 - x_inf)
            assert abs(lam @ x - curve[i]) < 1e-9


class TestExcessMseBlind:
    def test_fourth_moment_shape_and_oracle(self):
        rng = np.random.default_rng(5)
        dim = 3
        samples = crandn(rng, 50, dim)
        e4 = analysis.fourth_moment(samples)
        assert e4.shape == (9, 9)
        # direct Kronecker accumulation oracle
        expect = np.zeros((9, 9), dtype=complex)
        for s in samples:
            outer = np.outer(s, s.conj())
            expect += np.kron(outer.T, outer)
        expect /= 50
        assert np.abs(e4 - expect).max() < 1e-10

    def test_dimension_guard(self):
        rng = np.random.default_rng(6)
        samples = crandn(rng, 10, analysis.MAX_KRON_DIM + 1)
        with pytest.raises(ValueError):
            analysis.fourth_moment(samples)

    def test_positive_for_generic_inputs(self):
        rng = np.random.default_rng(7)
        dim = 4
        samples = crandn(rng, 800, dim)
        xi = analysis.excess_mse_blind(0.005, crandn(rng, dim), samples)
        assert xi > 0


class TestRlsLearningCurve:
    def test_point_value(self):
        assert analysis.rls_learning_curve(0.1, 18, 37) == pytest.approx(0.1)

    def test_decays_to_zero(self):
        vals = [analysis.rls_learning_curve(0.5, 10, i) for i in (25, 100, 1000, 100000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            analysis.rls_learning_curve(0.1, 18, 19)


class TestComplexityCount:
    @pytest.mark.parametrize("alg,args,expect", [
        ("lms-full-rank", dict(m=36), (72, 73)),
        ("rls-full-rank", dict(m=36), (3 * 35 ** 2 + 36 ** 2 + 72, 6 * 36 ** 2 + 74)),
        ("lms-int", dict(m=36, l=2, n_i=3), (206, 129)),
        ("lms-pd", dict(m=36, d=9), (83, 101)),
        ("rls-pd", dict(m=36, d=9), (4 * 64 + 81 + 18, 7 * 81 + 20)),
    ])
    def test_table_rows(self, alg, args, expect):
        assert analysis.complexity_count(alg, **args) == expect

    def test_lms_int_polynomial(self):
        # a second geometry, so the (36, 2, 3) row cannot pass by coincidence
        m, l, n_i = 68, 3, 4
        q = 23
        adds = 2 * q + 2 * n_i + n_i * m + q * n_i + 2
        mults = 4 * q + n_i + q * n_i
        assert analysis.complexity_count("lms-int", m, l=l, n_i=n_i) == (adds, mults)
        # the blind row adds only the constraint projection to the update
        l_p = 6
        _, blind = analysis.complexity_count("cmv-sg-int", m, l=l, n_i=n_i, l_p=l_p)
        assert blind - (q * q + q * l_p) == mults

    def test_rls_int_polynomial(self):
        m, l, n_i = 36, 2, 3
        q = 18
        adds = 3 * (q - 1) ** 2 + 3 * (n_i - 1) ** 2 + (q - 1) * n_i + n_i * m \
            + q ** 2 + n_i ** 2 + 2 * q + 2 * n_i
        mults = 6 * q ** 2 + 6 * n_i ** 2 + q * n_i + 3 * q + n_i + 2
        assert analysis.complexity_count("rls-int", m, l=l, n_i=n_i) == (adds, mults)

    def test_blind_rows(self):
        m, l_p = 36, 6
        adds, mults = analysis.complexity_count("cmv-sg-full-rank", m, l_p=l_p)
        assert adds == m * m + m * l_p + 2 * m + 1
        assert mults == m * m + m * l_p + 3 * m
        adds, mults = analysis.complexity_count("cmv-rls-int", m, l=4, n_i=3, l_p=l_p)
        q = 9
        assert adds == 4 * (q - 1) ** 2 + q ** 2 + l_p ** 2 + 3 * (l_p - 1) ** 2 \
            + 2 * q * l_p + 3 * m + 3 * l_p - 1 + (q - 1) * 3 + 4
        assert mults == 7 * q ** 2 + 2 * q + l_p ** 2 + q * l_p + l_p + 2 + 9 + q * 3 + 3

    def test_exact_integers(self):
        adds, mults = analysis.complexity_count("rls-int", 63 + 5, l=3, n_i=4)
        assert isinstance(adds, int) and isinstance(mults, int)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            analysis.complexity_count("does-not-exist", 10)

    @pytest.mark.parametrize("call,missing", [
        (("mwf-sg", 36), "d"),
        (("lms-pd", 36), "d"),
        (("cmv-rls-int", 36, 2, 3), "l_p"),
    ])
    def test_row_without_its_parameters_raises(self, call, missing):
        with pytest.raises(ValueError, match=f"'{call[0]}' needs {missing}"):
            analysis.complexity_count(*call)

    def test_multistage_rows_take_the_stage_length_from_m_and_d(self):
        m, d = 36, 4
        mb = m - d
        assert analysis.complexity_count("mwf-sg", m, d=d) == (
            d * (2 * (mb - 1) ** 2 + mb + 3), d * (2 * mb ** 2 + 5 * mb + 7))

    def test_interpolated_rows_multiply_less_than_their_rivals(self):
        # the abstract's "at lower complexity": each *-int row against the
        # principal-component and multistage-Wiener rows of its rule and,
        # for all but lms-int, its full-rank row (lms-int multiplies more
        # than lms-full-rank at L = 2, 129 against 73 at M = 36, N_I = 3)
        rivals = {
            "lms-int": ("lms-pc", "mwf-sg"),
            "rls-int": ("rls-pc", "mwf-recursive", "rls-full-rank"),
            "cmv-sg-int": ("pc-wang-poor", "cmv-sg-mwf", "cmv-sg-full-rank"),
            "cmv-rls-int": ("pc-wang-poor", "cmv-mwf-recursive", "cmv-rls-full-rank"),
        }
        grid = itertools.product(((31, 6), (63, 8), (31, 3)), (2, 3, 4, 8), (1, 2, 3, 4),
                                 (2, 4, 8))
        for (n, l_p), l, n_i, d in grid:
            args = dict(m=n + l_p - 1, l=l, n_i=n_i, d=d, l_p=l_p)
            for row, others in rivals.items():
                mults = analysis.complexity_count(row, **args)[1]
                for other in others:
                    assert mults < analysis.complexity_count(other, **args)[1], (row, other, args)


class TestEigenvalueSpread:
    def test_decimated_spread_not_worse_generically(self):
        # analytic covariances over random loads/channels: the reduced
        # structure shrinks the eigenvalue spread in nearly all draws
        from oracles import analytic_covariance, interp_map

        rng = np.random.default_rng(11)
        codes_all = gen_gold_set(5, 10)
        wins = 0
        trials = 40
        for _ in range(trials):
            k = int(rng.integers(2, 9))
            codes = codes_all[rng.permutation(10)[:k]]
            npaths = int(rng.integers(1, 4))
            delays = rng.permutation(6)[:npaths]
            amps_p = rng.random(npaths) + 0.2
            amps_p /= np.linalg.norm(amps_p)
            gains = np.zeros(6, dtype=complex)
            gains[delays] = amps_p * np.exp(2j * np.pi * rng.random(npaths))
            sigma2 = 10 ** (-rng.uniform(5, 20) / 10)
            user_amps = 10 ** (np.concatenate([[0], rng.normal(0, 3, k - 1)]) / 20)
            r = analytic_covariance(codes, user_amps, gains, sigma2, 2)
            dec = make_decimation(36, 2)
            phi = interp_map(np.array([1.0, 0, 0]), 36, 2, dec.m_red)
            rbar = phi @ r @ phi.conj().T
            ef = np.linalg.eigvalsh(r).real
            eb = np.linalg.eigvalsh(rbar).real
            wins += (eb[-1] / eb[0]) <= (ef[-1] / ef[0])
        assert wins >= 0.9 * trials
