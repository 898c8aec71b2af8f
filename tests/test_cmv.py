import numpy as np
import pytest

from ifir_cdma import cmv, harness
from ifir_cdma.interpolation import build_re_matrix, filter_maps, impulse, make_decimation
from ifir_cdma.signal_model import gen_gold_set


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n, floor=0.05):
    a = crandn(rng, n, n)
    return a @ a.conj().T + floor * np.eye(n)


def default_cons(l=2, l_p=6, g=None):
    code = gen_gold_set(5, 1)[0]
    dec = make_decimation(31 + l_p - 1, l)
    return cmv.build_constraints(code, dec, g=g)


class TestConstraints:
    def test_single_path_is_code(self):
        code = gen_gold_set(5, 1)[0]
        dec = make_decimation(31, 1)
        cons = cmv.build_constraints(code, dec)
        assert cons.c.shape == (31, 1)
        assert np.allclose(cons.c[:, 0], code)
        assert cons.g.shape == (1,)

    def test_delay_spread_from_observation_length(self):
        # l_p = M - N + 1, and a code longer than M fits no delay spread
        dec = make_decimation(36, 2)
        assert cmv.build_constraints(impulse(31), dec).c.shape == (36, 6)
        with pytest.raises(ValueError):
            cmv.build_constraints(impulse(37), dec)

    def test_shift_structure(self):
        cons = default_cons()
        code = gen_gold_set(5, 1)[0]
        for j in range(6):
            expect = np.zeros(36, dtype=complex)
            expect[j:j + 31] = code
            assert np.allclose(cons.c[:, j], expect)

    @pytest.mark.parametrize("l, n_i", ((1, 1), (2, 3), (3, 2), (4, 4), (8, 3)))
    def test_segments_gather_signature_segment_matrix(self, l, n_i):
        # rows past M (the zero-tailed gather) included
        rng = np.random.default_rng(l)
        g = crandn(rng, 6)
        cons = default_cons(l=l, g=g)
        re_p = (cons.segments(n_i) @ g).reshape(n_i, cons.dec.m_red)
        np.testing.assert_allclose(re_p, build_re_matrix(cons.c @ g, n_i, cons.dec),
                                   rtol=1e-14, atol=1e-14)


class TestCmvReceiver:
    def test_identity_covariance_min_norm(self):
        rng = np.random.default_rng(0)
        a = crandn(rng, 18)
        w = cmv.cmv_receiver(np.eye(18, dtype=complex), a)
        assert np.allclose(w, a / np.vdot(a, a).real, atol=1e-10)

    def test_constraint_feasibility_and_variance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = crandn(rng, 18)
            r_bar = random_psd(rng, 18)
            w = cmv.cmv_receiver(r_bar, a)
            assert abs(np.vdot(w, a) - 1) < 1e-8
            var = float(np.real(np.vdot(w, r_bar @ w)))
            assert abs(var - cmv.min_output_variance(r_bar, a)) < 1e-8 * max(var, 1.0)

    def test_optimality_over_feasible_perturbations(self):
        rng = np.random.default_rng(2)
        a = crandn(rng, 18)
        r_bar = random_psd(rng, 18)
        w = cmv.cmv_receiver(r_bar, a)
        var = float(np.real(np.vdot(w, r_bar @ w)))
        pi = np.eye(18) - np.outer(a, a.conj()) / np.vdot(a, a).real
        for _ in range(100):
            w2 = w + pi @ crandn(rng, 18)
            var2 = float(np.real(np.vdot(w2, r_bar @ w2)))
            assert var2 >= var - 1e-9


class TestAgainstSimulatedLink:
    def test_batch_cmv_detects_in_noise(self):
        cfg = harness.ScenarioConfig(
            n=31, k=4, l_p=6, l=2, n_i=3, algorithm="cmv-sg", mode="blind",
            ebn0_db=15.0, symbols=1200, seed=5, path_delays=[0, 2, 4])
        rs, bs = [], []
        g_true = None
        for r, b, g_true in harness.iter_symbols(cfg, 42):
            rs.append(r)
            bs.append(b)
        rs = np.array(rs)
        bs = np.array(bs)
        dec = make_decimation(36, 2)
        cons = cmv.build_constraints(gen_gold_set(5, 4)[0], dec, g=g_true)
        d_v, _ = filter_maps(impulse(3), np.zeros(dec.m_red), dec)
        r_cov = d_v @ (rs.T @ rs.conj() / len(rs)) @ d_v.conj().T
        a_w = d_v @ (cons.c @ g_true)   # Re_p^T conj(v)
        w = cmv.cmv_receiver(r_cov, a_w)
        outs = rs @ d_v.T @ w.conj()
        assert np.mean(np.sign(outs.real) != bs) < 0.01
