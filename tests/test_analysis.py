import numpy as np
import pytest

from ifir_cdma import adaptive, analysis, cmv, harness, mmse
from ifir_cdma.interpolation import build_re_matrix, impulse, make_decimation
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
        rng = np.random.default_rng(1)
        for _ in range(10):
            r = random_psd(rng, 5)
            mu = 0.5 / np.trace(r).real
            eps = 0.3
            report = analysis.sg_transient(r, mu, eps)
            direct = analysis.excess_mse_trained(mu, r, eps)
            assert abs(report.xi_inf - direct) < 1e-10 * max(direct, 1.0)


class TestSgTransient:
    def test_equal_eigenvalues_single_mode(self):
        # a white covariance leaves exactly one active decay mode
        report = analysis.sg_transient(0.5 * np.eye(4), 0.1, 1.0,
                                       x0=np.full(4, 0.2))
        active = np.abs(report.gammas) > 1e-12 * np.abs(report.gammas).max()
        assert active.sum() == 1

    def test_transient_decays_to_zero(self):
        rng = np.random.default_rng(2)
        r = random_psd(rng, 4)
        mu = 0.4 / np.linalg.eigvalsh(r)[-1].real
        x0 = np.abs(crandn(rng, 4)) ** 2
        report = analysis.sg_transient(r, mu, 0.1, x0=x0)
        vals = [abs(report.transient(i)) for i in (1, 50, 200, 1000)]
        assert vals[-1] < 1e-6 * max(vals[0], 1e-12)
        assert np.all(np.abs(report.modes) < 1.0)

    def test_total_tracks_power_recursion(self):
        # direct iteration of the coupled weight-error power recursion used
        # as an oracle for the modal expansion
        rng = np.random.default_rng(3)
        r = random_psd(rng, 3)
        lam = np.linalg.eigvalsh(r).real
        mu = 0.3 / lam[-1]
        eps = 0.25
        x0 = np.abs(crandn(rng, 3)) ** 2
        report = analysis.sg_transient(r, mu, eps, x0=x0)
        t_mat = mu * mu * np.outer(lam, lam)
        np.fill_diagonal(t_mat, (1 - mu * lam) ** 2)
        x = x0.copy()
        for i in range(1, 60):
            x = t_mat @ x + mu * mu * eps * lam
            assert abs(lam @ x - report.total(i)) < 1e-9


class TestExcessMseBlind:
    def test_zero_optimum_gives_zero(self):
        rng = np.random.default_rng(4)
        dim = 4
        samples = crandn(rng, 300, dim)
        pi = np.eye(dim)
        xi = analysis.excess_mse_blind(0.01, pi, np.zeros(dim), samples)
        assert abs(xi) < 1e-12

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
        pi = np.eye(dim) - np.outer(np.ones(dim), np.ones(dim)) / dim
        w = crandn(rng, dim)
        xi = analysis.excess_mse_blind(0.005, pi, w, samples)
        assert xi > 0


def build_trained_setup(seed=9, symbols=2500, l=2, n_i=3):
    cfg = harness.ScenarioConfig(
        n=31, k=4, l_p=6, l=l, n_i=n_i, algorithm="lms", mode="training",
        ebn0_db=12.0, symbols=symbols, seed=seed, path_delays=[0, 2, 4])
    rs, bs = [], []
    for r, b, _, _ in harness.iter_symbols(cfg, seed * 7 + 1):
        rs.append(r)
        bs.append(b)
    return cfg, np.array(rs), np.array(bs)


class TestMeanTrajectory:
    def test_fixed_point_is_stationary(self):
        cfg, rs, bs = build_trained_setup(symbols=800)
        dec = make_decimation(cfg.m, cfg.l)
        state, _, _ = mmse.alternate_mmse(rs, bs, dec, impulse(cfg.n_i), max_iter=100)
        model = analysis.build_trained_trajectory(rs, bs, state.v, state.w,
                                                  mu=0.02, eta=0.002, dec=dec)
        e_star = model.fixed_point()
        traj = analysis.mean_trajectory(model, e_star, 20)
        assert np.abs(traj - e_star).max() < 1e-8 * max(1.0, np.abs(e_star).max())

    def test_stable_model_converges_to_fixed_point(self):
        cfg, rs, bs = build_trained_setup(symbols=800)
        dec = make_decimation(cfg.m, cfg.l)
        state, _, _ = mmse.alternate_mmse(rs, bs, dec, impulse(cfg.n_i), max_iter=100)
        model = analysis.build_trained_trajectory(rs, bs, state.v, state.w,
                                                  mu=0.02, eta=0.002, dec=dec)
        assert model.stable
        # the stationary points form the line e_star + span{n}, with n the
        # neutral scaling direction; measure the distance to that line
        n = np.concatenate([-state.w, state.v])
        assert np.linalg.norm(model.a @ n - n) < 1e-10 * np.linalg.norm(n)
        n_hat = n / np.linalg.norm(n)
        e_star = model.fixed_point()

        def dist_to_line(e):
            d = e - e_star
            return np.linalg.norm(d - n_hat * np.vdot(n_hat, d))

        # horizon: the slowest contracting mode decays to a tenth
        rho2 = np.sort(np.abs(np.linalg.eigvals(model.a)))[-2]
        steps = int(np.ceil(np.log(0.1) / np.log(rho2)))
        e0 = np.concatenate([-state.w, np.zeros(cfg.n_i)])
        traj = analysis.mean_trajectory(model, e0, steps)
        d0 = dist_to_line(traj[0])
        d_end = dist_to_line(traj[-1])
        assert d_end < 0.2 * d0  # contracting toward the stationary line

    def test_blind_model_shares_trained_blocks(self):
        # built from the same samples, the blind model is the trained one
        # with each filter's rows projected onto its constraint hyperplane,
        # driven by that hyperplane's minimum-norm point
        cfg, rs, bs = build_trained_setup(symbols=300)
        dec = make_decimation(cfg.m, cfg.l)
        rng = np.random.default_rng(4)
        cons = cmv.build_constraints(gen_gold_set(5, cfg.k)[0], dec)
        v, w, g_mean = crandn(rng, cfg.n_i), crandn(rng, dec.m_red), crandn(rng, cfg.l_p)
        mu, eta = 0.02, 0.002
        tr = analysis.build_trained_trajectory(rs, bs, v, w, mu=mu, eta=eta, dec=dec)
        bl = analysis.build_blind_trajectory(rs, v, w, mu=mu, eta=eta, cons=cons,
                                             g_mean=g_mean)
        q = dec.m_red
        re_p = build_re_matrix(cons.c @ g_mean, cfg.n_i, dec)
        for rows, a in ((slice(None, q), re_p.T @ v.conj()), (slice(q, None), re_p @ w.conj())):
            pi = np.eye(a.size) - np.outer(a, a.conj()) / np.vdot(a, a).real
            np.testing.assert_allclose(bl.a[rows], pi @ tr.a[rows], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(bl.b[rows], a / np.vdot(a, a).real,
                                       rtol=1e-12, atol=1e-14)

    def test_predicted_decay_matches_ensemble(self):
        # ensemble-averaged tap error of the raw-step gradient algorithm
        # decays at the modelled rate within a factor of two; both start
        # from one small perturbation of the optimum, where the
        # linearised model holds
        cfg, rs, bs = build_trained_setup(symbols=1200)
        dec = make_decimation(cfg.m, cfg.l)
        state, _, _ = mmse.alternate_mmse(rs, bs, dec, impulse(cfg.n_i), max_iter=200)
        mu, eta = 0.05, 0.005
        model = analysis.build_trained_trajectory(rs, bs, state.v, state.w,
                                                  mu=mu, eta=eta, dec=dec)
        d = crandn(np.random.default_rng(0), dec.m_red)
        d *= 0.2 * np.linalg.norm(state.w) / np.linalg.norm(d)
        steps = 400
        runs = 50
        acc = np.zeros((steps, dec.m_red), dtype=complex)
        for run in range(runs):
            cfg_r, rs_r, bs_r = build_trained_setup(seed=50 + run, symbols=steps)
            st = adaptive.make_trained_sg(dec, state.v, mu, eta, normalized=False)
            st.w = state.w + d
            for i, (r, b) in enumerate(zip(rs_r, bs_r)):
                adaptive.lms_step(st, r, b)
                acc[i] += st.w - state.w
        emp = np.linalg.norm(acc, axis=1) / runs
        e0 = np.concatenate([d, np.zeros(cfg.n_i)])
        traj = analysis.mean_trajectory(model, e0, steps)
        pred = np.linalg.norm(traj[1:, :dec.m_red], axis=1)
        # compare decay over the mid transient
        i0, i1 = 40, 240
        rate_emp = np.log(emp[i1] / emp[i0]) / (i1 - i0)
        rate_pred = np.log(pred[i1] / pred[i0]) / (i1 - i0)
        assert 0.5 <= rate_emp / rate_pred <= 2.0


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


class TestEigenvalueSpread:
    def test_decimated_spread_not_worse_generically(self):
        # analytic covariances over random loads/channels: the reduced
        # structure shrinks the eigenvalue spread in nearly all draws
        from oracles import analytic_covariance, interp_map
        from ifir_cdma.signal_model import gen_gold_set

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
