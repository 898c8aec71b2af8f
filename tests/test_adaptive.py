import numpy as np
import pytest

from ifir_cdma import adaptive, cmv, harness
from ifir_cdma.interpolation import (_cmul, _segment_matrices, build_re_matrix, filter_maps,
                                    impulse, make_decimation)
from ifir_cdma.signal_model import gen_gold_set

from oracles import PD_RLS_RTOL, accumulate_and_invert, fullrank_nlms, fullrank_rls, link_chunks


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def collect(cfg, seed, want_channel=False):
    rs, bs = [], []
    g = None
    for r, b, g in harness.iter_symbols(cfg, seed):
        rs.append(r)
        bs.append(b)
    rs, bs = np.array(rs), np.array(bs)
    if want_channel:
        return rs, bs, g
    return rs, bs


def scenario(symbols, k=4, l_p=6, ebn0=15.0, seed=3, **kw):
    kw.setdefault("path_delays", [0, 2, 4])
    return harness.ScenarioConfig(
        n=31, k=k, l_p=l_p, l=kw.pop("l", 2), n_i=kw.pop("n_i", 3),
        algorithm="lms", mode="training", ebn0_db=ebn0, symbols=symbols,
        seed=seed, **kw)


@pytest.mark.parametrize("alg", ("lms", "rls", "cmv-sg", "cmv-rls"))
def test_start_interpolator_fixes_n_i(alg):
    # N_I is the length of v0, a copy of which the receiver starts from
    dec = make_decimation(36, 2)
    cons = cmv.build_constraints(gen_gold_set(5, 1)[0], dec)
    v0 = np.ones(4)
    make, step = {
        "lms": (lambda: adaptive.make_trained_sg(dec, v0, 0.1, 0.05, normalized=True),
                lambda st, r: adaptive.lms_step(st, r, 1.0)),
        "rls": (lambda: adaptive.make_trained_rls(dec, v0, alpha=0.998, delta=100.0),
                lambda st, r: adaptive.rls_step(st, r, 1.0)),
        "cmv-sg": (lambda: adaptive.make_blind_sg(cons, v0, 0.05, 0.05, normalized=True),
                   adaptive.cmv_sg_step),
        "cmv-rls": (lambda: adaptive.make_blind_rls(cons, v0, alpha=0.998, delta=100.0),
                    adaptive.cmv_rls_step),
    }[alg]
    st = make()
    assert st.n_i == 4 and not np.shares_memory(st.v, v0)
    if alg.endswith("rls"):
        assert st.p_u.shape == (4, 4)
    rng = np.random.default_rng(8)
    for _ in range(3):
        step(st, crandn(rng, 36))
    assert st.v.shape == (4,) and np.all(np.isfinite(st.v)) and np.all(np.isfinite(st.w))


@pytest.mark.parametrize("alg", ("lms", "cmv-sg"))
def test_fresh_stacked_steps_skip_rows_without_dividing(alg):
    # three fresh runs stepped stacked, outside the harness's errstate: a
    # fresh lms run has w = 0, so its u = 0 at the first step; run 1's
    # first received vector is zero, so its regressors and its tracker's
    # candidate vanish.  Those rows skip as the per-run steps do, with no
    # division warning (the suite makes warnings errors), and every run
    # equals its own step bit for bit
    dec = make_decimation(36, 2)
    cons = cmv.build_constraints(gen_gold_set(5, 1)[0], dec)
    if alg == "lms":
        make = lambda: adaptive.make_trained_sg(dec, impulse(3), 0.1, 0.05, normalized=True)
    else:
        make = lambda: adaptive.make_blind_sg(cons, impulse(3), 0.1, 0.05, normalized=True)
    rng = np.random.default_rng(12)
    rs = crandn(rng, 4, 3, 36)
    rs[0, 1] = 0.0
    bs = np.where(rng.random((4, 3)) < 0.5, -1.0, 1.0)
    alone = [make() for _ in range(3)]
    trackers = [adaptive.SgChannelTracker(cons.c, alpha=0.998) for _ in range(3)]
    s, tracker = adaptive.stack([make() for _ in range(3)]), adaptive.stack(trackers)
    for r, b in zip(rs, bs):
        res = _segment_matrices(r, 3, dec)
        if alg == "lms":
            adaptive.lms_steps(s, res, b)
            for st, row, ref in zip(alone, r, b):
                adaptive.lms_step(st, row, ref)
        else:
            adaptive.cmv_sg_steps(s, res, g=tracker.updates(r))
            for st, t, row in zip(alone, trackers, r):
                adaptive.cmv_sg_step(st, row, g=t.update(row))
            for k, t in enumerate(trackers):
                assert tracker.g_hat[k].tobytes() == t.g_hat.tobytes()
        for k, st in enumerate(alone):
            assert s.v[k].tobytes() == st.v.tobytes()
            assert s.w[k].tobytes() == st.w.tobytes()


class TestTrainedSg:
    def test_zero_error_freezes_state(self):
        dec = make_decimation(8, 2)
        st = adaptive.make_trained_sg(dec, impulse(2), 0.5, 0.5, normalized=True)
        rng = np.random.default_rng(0)
        r = crandn(rng, 8)
        rbar = build_re_matrix(r, 2, dec).T @ st.v.conj()
        # choose w so that the a-priori error vanishes
        st.w[0] = np.conj(1.0 / rbar[0])
        b = float(np.real(np.vdot(st.w, rbar)))
        v_before, w_before = st.v.copy(), st.w.copy()
        e = adaptive.lms_step(st, r, b)
        assert abs(e) < 1e-12
        assert np.allclose(st.v, v_before, atol=1e-12)
        assert np.allclose(st.w, w_before, atol=1e-12)

    def test_frozen_filter_when_mu_zero(self):
        dec = make_decimation(8, 2)
        st = adaptive.make_trained_sg(dec, impulse(2), 0.0, 0.2, normalized=True)
        rng = np.random.default_rng(1)
        w0 = st.w.copy()
        for _ in range(10):
            adaptive.lms_step(st, crandn(rng, 8), 1.0)
        assert np.array_equal(st.w, w0)

    def test_noiseless_single_user_converges(self):
        cfg = scenario(500, k=1, l_p=1, ebn0=200.0, l=1, n_i=1,
                       path_delays=[0], path_powers=[1.0])
        rs, bs = collect(cfg, 11)
        dec = make_decimation(31, 1)
        st = adaptive.make_trained_sg(dec, impulse(1), 0.1, 0.0, normalized=True)
        errs = [abs(adaptive.lms_step(st, r, b)) ** 2 for r, b in zip(rs, bs)]
        assert np.mean(errs[-50:]) < 1e-3

    def test_nlms_bounded_long_run(self):
        cfg = scenario(4000, seed=21)
        rs, bs = collect(cfg, 22)
        dec = make_decimation(36, 2)
        st = adaptive.make_trained_sg(dec, impulse(3), 1.0, 1.0, normalized=True)
        mse = np.array([abs(adaptive.lms_step(st, r, b)) ** 2 for r, b in zip(rs, bs)])
        assert np.isfinite(mse).all()
        assert mse[-500:].mean() < 4 * mse[:50].mean()
        assert np.isfinite(st.w).all() and np.isfinite(st.v).all()


class TestTrainedRls:
    def test_first_step_matches_inversion_lemma(self):
        rng = np.random.default_rng(2)
        dec = make_decimation(12, 2)
        st = adaptive.make_trained_rls(dec, impulse(3), alpha=0.99, delta=50.0)
        r = crandn(rng, 12)
        rbar = build_re_matrix(r, 3, dec).T @ st.v.conj()
        p0 = 50.0 * np.eye(dec.m_red, dtype=complex)
        expect = np.linalg.inv(np.linalg.inv(p0) * 0.99 + np.outer(rbar, rbar.conj()))
        adaptive.rls_step(st, r, 1.0)
        assert np.abs(st.p - expect).max() < 1e-8 * np.abs(expect).max()

    def test_breakdown_restarts_inverse(self):
        # p = -I drives the denominator alpha - ||rbar||^2 below zero
        rng = np.random.default_rng(3)
        dec = make_decimation(12, 2)
        st = adaptive.make_trained_rls(dec, impulse(3), alpha=0.998, delta=50.0)
        st.p = -np.eye(dec.m_red, dtype=complex)
        adaptive.rls_step(st, 10.0 * crandn(rng, 12), 1.0)
        assert st.breakdowns == 1
        assert np.array_equal(st.p, 50.0 * np.eye(dec.m_red))
        assert not np.any(st.w)

    def test_stacked_update_matches_per_run_bit_for_bit(self):
        # a stack of three inverse covariances, the middle one -I so that
        # its denominator alpha - ||x||^2 is negative: it alone breaks down,
        # and the other two take rls_update's p and gain to the bit
        rng = np.random.default_rng(8)
        d, alpha, delta = 6, 0.998, 50.0
        xs = 3.0 * crandn(rng, 3, d)
        ps = np.empty((3, d, d), dtype=complex)
        for k in (0, 2):
            q = crandn(rng, d, d)
            ps[k] = np.linalg.inv(np.eye(d) + q @ q.conj().T)
        ps[1] = -np.eye(d)
        got_p, gain, broke = adaptive.rls_updates(ps, xs, alpha, delta)
        assert broke.tolist() == [1]
        for k in (0, 2):
            expect_p, expect_gain = adaptive.rls_update(ps[k], xs[k], alpha, delta)
            assert got_p[k].tobytes() == expect_p.tobytes()
            assert gain[k].tobytes() == expect_gain.tobytes()
        assert adaptive.rls_update(ps[1], xs[1], alpha, delta)[1] is None
        assert np.array_equal(got_p[1], delta * np.eye(d))

    def test_stacked_update_of_scalars_matches_per_run_bit_for_bit(self):
        # at d = 1 numpy rounds rls_update's outer product as a product of
        # complex scalars, as an interpolator of one tap meets it
        rng = np.random.default_rng(9)
        ps = (1.0 + rng.exponential(size=(200, 1, 1))).astype(complex)
        xs = crandn(rng, 200, 1)
        got_p, gain, broke = adaptive.rls_updates(ps, xs, 0.998, 50.0)
        assert broke.size == 0
        for k in range(200):
            expect_p, expect_gain = adaptive.rls_update(ps[k], xs[k], 0.998, 50.0)
            assert got_p[k].tobytes() == expect_p.tobytes()
            assert gain[k].tobytes() == expect_gain.tobytes()

    @pytest.mark.parametrize("d", (1, 6))
    def test_updates_scale_as_complex_division_bit_for_bit(self, d):
        # rls_update and rls_updates scale p on its float64 view; over 300
        # updates of three runs, run 1 breaking down every 50th, they equal
        # the form that divides the complex p by alpha and multiplies it by
        # 0.5, to the bit
        def update(p, x, alpha, delta):
            px = p @ x
            denom = alpha + np.real(np.vdot(x, px))
            if denom <= 0:
                return delta * np.eye(p.shape[0], dtype=complex), None
            gain = px / denom
            p = p - gain[:, None] * px.conj()
            p /= alpha
            p += p.conj().T
            p *= 0.5
            return p, gain

        def updates(p, x, alpha, delta):
            px = p @ x[:, :, None]
            denom = (x.conj()[:, None, :] @ px)[:, 0, 0].real + alpha
            broke = np.flatnonzero(denom <= 0)
            denom[broke] = 1.0
            gain = px / denom[:, None, None]
            pxh = px.conj().transpose(0, 2, 1)
            p = p - (_cmul(gain, pxh) if p.shape[1] == 1 else gain * pxh)
            p /= alpha
            p += p.conj().transpose(0, 2, 1)
            p *= 0.5
            p[broke] = delta * np.eye(p.shape[1], dtype=complex)
            return p, gain[:, :, 0], broke

        rng = np.random.default_rng(11)
        alpha, delta = 0.998, 50.0
        ps = np.tile(delta * np.eye(d, dtype=complex), (3, 1, 1))
        for t in range(300):
            xs = crandn(rng, 3, d)
            if t % 50 == 49:   # its denominator alpha - ||x||^2 is negative
                ps[1], xs[1] = -np.eye(d), 1.0
            expect_p, expect_gain, expect_broke = updates(ps, xs, alpha, delta)
            got_p, gain, broke = adaptive.rls_updates(ps, xs, alpha, delta)
            assert broke.tolist() == expect_broke.tolist() == ([1] if t % 50 == 49 else [])
            assert got_p.tobytes() == expect_p.tobytes()
            assert gain[:, None].tobytes() == expect_gain[:, None].tobytes()
            for k in range(3):
                one_p, one_gain = adaptive.rls_update(ps[k], xs[k], alpha, delta)
                ref_p, ref_gain = update(ps[k], xs[k], alpha, delta)
                assert one_p.tobytes() == ref_p.tobytes()
                assert (one_gain is None) == (ref_gain is None) == (k in broke)
                if one_gain is not None:
                    assert one_gain.tobytes() == ref_gain.tobytes()
            ps = expect_p

    def test_stacked_filter_update_matches_per_run_bit_for_bit(self):
        # four runs: run 1's p is -I, so it breaks down; runs 2 and 3 are
        # outside `live`, run 3 with a p that would break down.  The live
        # runs take _rls_filter's p, f and breakdown to the bit; the others
        # keep p and f and report no breakdown
        rng = np.random.default_rng(10)
        d, alpha, delta = 5, 0.998, 50.0
        xs, fs = 3.0 * crandn(rng, 4, d), crandn(rng, 4, d)
        ce = crandn(rng, 4)
        ps = np.empty((4, d, d), dtype=complex)
        for k in (0, 2):
            q = crandn(rng, d, d)
            ps[k] = np.linalg.inv(np.eye(d) + q @ q.conj().T)
        ps[1] = ps[3] = -np.eye(d)
        live = np.array([True, True, False, False])
        got_p, got_f, broke = adaptive._rls_filters(ps, fs, xs, ce, alpha, delta, live=live)
        assert broke.dtype == bool and broke.tolist() == [False, True, False, False]
        for k in (0, 1):
            expect_p, expect_f, expect_broke = adaptive._rls_filter(ps[k], fs[k], xs[k], ce[k],
                                                                    alpha, delta)
            assert got_p[k].tobytes() == expect_p.tobytes()
            assert got_f[k].tobytes() == expect_f.tobytes()
            assert broke[k] == expect_broke
        for k in (2, 3):
            assert got_p[k].tobytes() == ps[k].tobytes()
            assert got_f[k].tobytes() == fs[k].tobytes()
        # without `live` every run updates, run 3 breaking down too
        got_p, got_f, broke = adaptive._rls_filters(ps, fs, xs, ce, alpha, delta)
        assert broke.tolist() == [False, True, False, True]
        for k in range(4):
            expect_p, expect_f, _ = adaptive._rls_filter(ps[k], fs[k], xs[k], ce[k], alpha, delta)
            assert got_p[k].tobytes() == expect_p.tobytes()
            assert got_f[k].tobytes() == expect_f.tobytes()

    def test_inverse_tracks_accumulated_covariance(self):
        cfg = scenario(200)
        rs, bs = collect(cfg, 4)
        dec = make_decimation(36, 2)
        alpha, delta = 0.995, 20.0
        st = adaptive.make_trained_rls(dec, impulse(3), alpha=alpha, delta=delta)
        rbars = []
        for r, b in zip(rs, bs):
            rbars.append(build_re_matrix(r, 3, dec).T @ st.v.conj())
            adaptive.rls_step(st, r, b)
        expect = accumulate_and_invert(np.array(rbars), alpha, delta)
        err = np.abs(st.p - expect).max() / np.abs(expect).max()
        assert err < 1e-6

    def test_converges_within_few_filter_lengths(self):
        # stationary single user, growing-window RLS on the reduced filter:
        # the a-priori squared error reaches 3 dB of the batch minimum within
        # about two reduced filter lengths
        dec = make_decimation(36, 2)
        horizon = 4 * dec.m_red
        v = np.zeros(3, dtype=complex)
        v[0] = 1.0
        curves = []
        floors = []
        for run in range(30):
            cfg = scenario(12 * dec.m_red, k=1, seed=100 + run)
            rs, bs = collect(cfg, 200 + run)
            st = adaptive.make_trained_rls(dec, impulse(3), alpha=1.0, delta=1000.0)
            curves.append([abs(adaptive.rls_step(st, r, b, adapt_v=False)) ** 2
                           for r, b in zip(rs[:horizon], bs[:horizon])])
            d_v, _ = filter_maps(v, np.zeros(dec.m_red), dec)
            r_cov = d_v @ (rs.T @ rs.conj() / len(rs)) @ d_v.conj().T
            p = d_v @ (rs.T @ bs.conj() / len(rs))
            floors.append(1.0 - float(np.real(np.vdot(p, np.linalg.solve(r_cov, p)))))
        mean_curve = np.mean(curves, axis=0)
        floor = np.mean(floors)
        window = mean_curve[2 * dec.m_red:4 * dec.m_red].mean()
        assert window <= 2.0 * floor  # within 3 dB of the batch minimum


class TestFullRankEquivalence:
    def setup_samples(self, symbols=300):
        cfg = scenario(symbols, l=1, n_i=1)
        return collect(cfg, 77)

    def test_lms_bit_for_bit(self):
        rs, bs = self.setup_samples()
        dec = make_decimation(36, 1)
        # interpolator frozen at [1]
        st = adaptive.make_trained_sg(dec, impulse(1), 0.4, 0.0, normalized=True)
        ws, es = [], []
        for r, b in zip(rs, bs):
            es.append(adaptive.lms_step(st, r, b))
            ws.append(st.w.copy())
        ws_ref, es_ref = fullrank_nlms(rs, bs, 0.4)
        assert np.array_equal(np.array(ws), ws_ref)
        assert np.array_equal(np.array(es), es_ref)

    def test_rls_bit_for_bit(self):
        rs, bs = self.setup_samples()
        dec = make_decimation(36, 1)
        st = adaptive.make_trained_rls(dec, impulse(1), alpha=0.998, delta=100.0)
        ws, es = [], []
        for r, b in zip(rs, bs):
            es.append(adaptive.rls_step(st, r, b, adapt_v=False))
            ws.append(st.w.copy())
        ws_ref, es_ref = fullrank_rls(rs, bs, 0.998, 100.0)
        assert np.array_equal(np.array(ws), ws_ref)
        assert np.array_equal(np.array(es), es_ref)

    @staticmethod
    def run_baseline(alg):
        """(despread rows, symbols, w history, errors) of a 300-symbol
        training run of a partial-despreading baseline."""
        cfg = harness.ScenarioConfig(algorithm=alg, symbols=300, path_delays=[0, 2, 4])
        link = harness._Links(cfg, [77])
        rx = harness._Projected(cfg, link)
        ys, bs, ws, es = [], [], [], []
        for rs, chunk_bs, _ in link_chunks(link):
            chunk_ys = rx.despread(rs)
            assert all(np.array_equal(y, rx.proj_h @ r) for r, y in zip(rs, chunk_ys))
            chunk_ws = rx.combiners(chunk_ys[None], chunk_bs[None], len(bs))[0]
            es.extend(b - np.vdot(w, y) for w, y, b in zip(chunk_ws, chunk_ys, chunk_bs))
            ys.extend(chunk_ys)
            bs.extend(chunk_bs)
            ws.extend(chunk_ws[1:])
        return cfg, np.array(ys), np.array(bs), np.array(ws), np.array(es)

    def test_pd_lms_bit_for_bit(self):
        # the baseline's update is the lms kernel on the filter alone
        cfg, ys, bs, ws, es = self.run_baseline("pd-lms")
        ws_ref, es_ref = fullrank_nlms(ys, bs, cfg.mu0)
        assert np.array_equal(ws, ws_ref)
        assert np.array_equal(es, es_ref)

    def test_pd_rls_matches_recursion(self):
        # the baseline solves the least-squares problem that the textbook
        # recursion tracks, so the two agree to rounding
        cfg, ys, bs, ws, es = self.run_baseline("pd-rls")
        ws_ref, es_ref = fullrank_rls(ys, bs, cfg.alpha, cfg.delta)
        assert np.all(np.linalg.norm(ws - ws_ref, axis=1)
                      <= PD_RLS_RTOL * np.linalg.norm(ws_ref, axis=1))
        np.testing.assert_allclose(es, es_ref, rtol=PD_RLS_RTOL, atol=0)


def blind_cfg(symbols, seed=5, **kw):
    return harness.ScenarioConfig(
        n=31, k=kw.pop("k", 4), l_p=6, l=kw.pop("l", 2), n_i=kw.pop("n_i", 3),
        algorithm="cmv-sg", mode="blind", ebn0_db=kw.pop("ebn0", 15.0),
        symbols=symbols, seed=seed, path_delays=[0, 2, 4], **kw)


def constraint_vectors(cons, g, v, w):
    """(a_w, a_v) of the constraint on p = C g, from the segment matrix of p."""
    re_p = build_re_matrix(cons.c @ g, len(v), cons.dec)
    return re_p.T @ np.conj(v), re_p @ np.conj(w)


def constraint_residuals(cons, g, v, w):
    """|w^H a_w - 1| and |v^H a_v - 1|."""
    a_w, a_v = constraint_vectors(cons, g, v, w)
    return abs(np.vdot(w, a_w) - 1), abs(np.vdot(v, a_v) - 1)


class TestBlindSg:
    def test_constraint_exact_after_every_step(self):
        cfg = blind_cfg(200)
        rs, bs, g = collect(cfg, 8, want_channel=True)
        dec = make_decimation(36, 2)
        cons = cmv.build_constraints(gen_gold_set(5, 4)[0], dec, g=g)
        st = adaptive.make_blind_sg(cons, impulse(3), 0.05, 0.05, normalized=True)
        for r in rs:
            adaptive.cmv_sg_step(st, r)
            assert max(constraint_residuals(cons, g, st.v, st.w)) < 1e-8

    def test_feasible_zero_output_keeps_w(self):
        rng = np.random.default_rng(9)
        code = gen_gold_set(5, 1)[0]
        dec = make_decimation(36, 2)
        cons = cmv.build_constraints(code, dec, g=crandn(rng, 6))
        st = adaptive.make_blind_sg(cons, impulse(3), 0.1, 0.1, normalized=True)
        w0 = st.w.copy()
        # a vector orthogonal to rbar's image of w gives x = 0
        r = np.zeros(36, dtype=complex)
        adaptive.cmv_sg_step(st, r)
        assert np.abs(st.w - w0).max() < 1e-12

    def test_variance_approaches_batch_optimum(self):
        # three-user layout: output variance of the adapted filter comes
        # within 10% of the batch constrained minimum
        cfg = blind_cfg(3000, k=3, seed=31)
        rs, bs, g = collect(cfg, 32, want_channel=True)
        dec = make_decimation(36, 2)
        cons = cmv.build_constraints(gen_gold_set(5, 3)[0], dec, g=g)
        st = adaptive.make_blind_sg(cons, impulse(3), 0.05, 0.01, normalized=True)
        for r in rs[:1500]:
            adaptive.cmv_sg_step(st, r)
        # freeze the interpolator reached by the algorithm, compare w against
        # the batch solution for the matching projected statistics
        v = st.v.copy()
        d_v, _ = filter_maps(v, st.w, dec)
        late = rs[1500:]
        r_cov = d_v @ (late.T @ late.conj() / len(late)) @ d_v.conj().T
        var_online = float(np.real(np.vdot(st.w, r_cov @ st.w)))
        a_w, _ = constraint_vectors(cons, g, v, st.w)
        var_batch = cmv.min_output_variance(r_cov, a_w)
        assert var_online <= 1.10 * var_batch

    def test_tracker_aligns_with_planted_channel(self):
        cfg = blind_cfg(4000, k=2, seed=41, ebn0=12.0)
        rs, bs, g = collect(cfg, 42, want_channel=True)
        code = gen_gold_set(5, 2)[0]
        tracker = adaptive.SgChannelTracker(cmv.shifted_signatures(code, 6), alpha=0.995)
        for r in rs:
            tracker.update(r)
            assert abs(np.linalg.norm(tracker.g_hat) - 1.0) < 1e-10
        g_unit = g / np.linalg.norm(g)
        assert abs(np.vdot(tracker.g_hat, g_unit)) > 0.99

    def test_tracker_single_path(self):
        code = gen_gold_set(5, 1)[0]
        tracker = adaptive.SgChannelTracker(cmv.shifted_signatures(code, 1), alpha=0.998)
        rng = np.random.default_rng(10)
        for _ in range(5):
            tracker.update(crandn(rng, 31))
            assert np.allclose(np.abs(tracker.g_hat), [1.0])


class TestBlindRls:
    def run_blind_rls(self, symbols=1500, seed=51, track=False, alpha=0.998, k=4):
        cfg = blind_cfg(symbols, k=k, seed=seed)
        rs, bs, g = collect(cfg, seed + 1, want_channel=True)
        dec = make_decimation(36, 2)
        code = gen_gold_set(5, k)[0]
        cons = cmv.build_constraints(code, dec, g=None if track else g)
        tracker = None
        if track:
            tracker = adaptive.SgChannelTracker(cmv.shifted_signatures(code, 6),
                                                alpha=alpha)
        st = adaptive.make_blind_rls(cons, impulse(3), alpha=alpha, delta=80.0)
        rbars = []
        for r in rs:
            adaptive.cmv_rls_step(st, r, g=None if tracker is None else tracker.update(r))
            rbars.append(build_re_matrix(r, 3, dec).T @ st.v.conj())
        return st, cons, np.array(rbars), g

    def test_matches_batch_on_same_weighted_covariance(self):
        st, cons, rbars, g = self.run_blind_rls()
        alpha, delta = 0.998, 80.0
        acc = (1.0 / delta) * np.eye(cons.dec.m_red, dtype=complex)
        for rb in rbars:
            acc = alpha * acc + np.outer(rb, rb.conj())
        a_w, _ = constraint_vectors(cons, st.g_hat, st.v, st.w)
        w_batch = cmv.cmv_receiver(acc, a_w)
        rel = np.linalg.norm(st.w - w_batch) / np.linalg.norm(w_batch)
        assert rel < 1e-3
        resid = constraint_residuals(cons, st.g_hat, st.v, st.w)
        assert max(resid) < 1e-6

    def test_breakdown_restarts_and_keeps_constraint(self):
        # p = -I drives the denominator alpha - ||rbar||^2 below zero
        code = gen_gold_set(5, 1)[0]
        dec = make_decimation(36, 2)
        rng = np.random.default_rng(12)
        cons = cmv.build_constraints(code, dec, g=crandn(rng, 6))
        st = adaptive.make_blind_rls(cons, impulse(3), alpha=0.998, delta=100.0)
        st.p = -np.eye(dec.m_red, dtype=complex)
        adaptive.cmv_rls_step(st, 10.0 * crandn(rng, 36))
        assert st.breakdowns == 1
        assert np.array_equal(st.p, st.delta * np.eye(dec.m_red))
        resid = constraint_residuals(cons, st.g_hat, st.v, st.w)
        assert max(resid) < 1e-10

    def test_channel_tracking_mode(self):
        st, cons, rbars, g = self.run_blind_rls(symbols=4000, seed=71, track=True, k=2)
        g_unit = g / np.linalg.norm(g)
        assert abs(np.vdot(st.g_hat, g_unit)) > 0.98
        assert abs(np.linalg.norm(st.g_hat) - 1.0) < 1e-10


class TestStabilityBoundary:
    def test_unnormalized_step_size_dichotomy(self):
        # raw-step gradient descent: diverges above the spectral bound,
        # converges well below it (windowed MSE verdicts)
        from oracles import analytic_covariance, interp_map
        cfg = scenario(5000, seed=81)
        rs, bs = collect(cfg, 82)
        codes = gen_gold_set(5, 4)
        gains = np.zeros(6, dtype=complex)
        powers = np.asarray(cfg.path_powers) / np.linalg.norm(cfg.path_powers)
        gains[[0, 2, 4]] = powers
        r_cov = analytic_covariance(codes, np.ones(4), gains, 10 ** (-1.5), 2)
        dec = make_decimation(36, 2)
        phi = interp_map(np.array([1.0, 0, 0]), 36, 2, dec.m_red)
        rbar_cov = phi @ r_cov @ phi.conj().T
        lam_max = np.linalg.eigvalsh(rbar_cov)[-1].real

        def run(mu):
            st = adaptive.make_trained_sg(dec, impulse(3), mu, 0.0, normalized=False)
            sq = []
            for r, b in zip(rs, bs):
                sq.append(abs(adaptive.lms_step(st, r, b)) ** 2)
                if sq[-1] > 1e12:  # unambiguous blow-up, stop before overflow
                    break
            return np.array(sq)

        sq_bad = run(2.5 / lam_max)
        sq_ok = run(0.5 / lam_max)
        # above the bound: squared error exceeds 10x its starting value
        assert sq_bad.max() > 10 * sq_bad[0]
        # below the bound: windowed MSE stays bounded and settles under the
        # trivial zero-filter MSE of one
        win_ok = np.convolve(sq_ok, np.ones(50) / 50.0, mode="valid")
        assert np.isfinite(sq_ok).all()
        assert win_ok.max() <= 10 * win_ok[0]
        assert win_ok[-1] < 1.0
