import numpy as np
import pytest

from ifir_cdma import cmv, harness
from ifir_cdma.interpolation import make_decimation
from ifir_cdma.signal_model import gen_gold_set


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n, floor=0.05):
    a = crandn(rng, n, n)
    return a @ a.conj().T + floor * np.eye(n)


def default_cons(l=2, l_p=6, g=None):
    code = gen_gold_set(5, 1)[0]
    dec = make_decimation(31 + l_p - 1, l)
    return cmv.build_constraints(code, l_p, dec, g=g)


class TestConstraints:
    def test_single_path_is_code(self):
        code = gen_gold_set(5, 1)[0]
        dec = make_decimation(31, 1)
        cons = cmv.build_constraints(code, 1, dec)
        assert cons.c.shape == (31, 1)
        assert np.allclose(cons.c[:, 0], code)
        assert cons.g.shape == (1,)

    def test_shift_structure(self):
        cons = default_cons()
        code = gen_gold_set(5, 1)[0]
        for j in range(6):
            expect = np.zeros(36, dtype=complex)
            expect[j:j + 31] = code
            assert np.allclose(cons.c[:, j], expect)

    def test_projector_identities(self):
        for l in (1, 2, 3, 4):
            cons = default_cons(l=l)
            assert np.abs(cons.pi @ cons.pi - cons.pi).max() < 1e-10
            assert np.abs(cons.pi @ cons.dc).max() < 1e-10

    @pytest.mark.parametrize("l", (6, 7, 8))
    def test_rank_deficient_decimation_raises(self, l):
        # M = 36, L_p = 6: L = 6 keeps M/L = 6 rows and still has rank 5,
        # L = 7 and 8 keep 5 rows; no constraint set is built for them
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            default_cons(l=l)

    def test_projector_rank(self):
        cons = default_cons(l=2)
        rank = int(np.round(np.trace(cons.pi).real))
        svals = np.linalg.svd(cons.pi, compute_uv=False)
        assert rank == cons.dec.m_red - 6
        assert np.sum(svals > 0.5) == rank


class TestCmvReceiver:
    def test_identity_covariance_min_norm(self):
        rng = np.random.default_rng(0)
        cons = default_cons(g=crandn(rng, 6))
        m_red = cons.dec.m_red
        w = cmv.cmv_receiver(np.eye(m_red, dtype=complex), cons)
        expect = cons.dc @ np.linalg.solve(cons.dc.conj().T @ cons.dc, cons.g)
        assert np.allclose(w, expect, atol=1e-10)

    def test_constraint_feasibility_and_variance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cons = default_cons(l=2, g=crandn(rng, 6))
            r_bar = random_psd(rng, cons.dec.m_red)
            w = cmv.cmv_receiver(r_bar, cons)
            assert np.abs(cons.dc.conj().T @ w - cons.g).max() < 1e-8
            var = float(np.real(np.vdot(w, r_bar @ w)))
            assert abs(var - cmv.min_output_variance(r_bar, cons)) < 1e-8 * max(var, 1.0)

    def test_optimality_over_feasible_perturbations(self):
        rng = np.random.default_rng(2)
        cons = default_cons(l=2, g=crandn(rng, 6))
        r_bar = random_psd(rng, cons.dec.m_red)
        w = cmv.cmv_receiver(r_bar, cons)
        var = float(np.real(np.vdot(w, r_bar @ w)))
        for _ in range(100):
            z = crandn(rng, cons.dec.m_red)
            w2 = w + cons.pi @ z
            var2 = float(np.real(np.vdot(w2, r_bar @ w2)))
            assert var2 >= var - 1e-9


class TestCmvInterpolator:
    def test_diagonal(self):
        v = cmv.cmv_interpolator(np.diag([3.0, 1.0, 0.5]))
        assert np.allclose(np.abs(v), [0, 0, 1], atol=1e-12)

    def test_degenerate_identity(self):
        v = cmv.cmv_interpolator(np.eye(4))
        r_u = np.eye(4)
        assert abs(np.real(np.vdot(v, r_u @ v)) - 1.0) < 1e-12

    def test_matches_min_eigenvalue(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r_u = random_psd(rng, 5)
            v = cmv.cmv_interpolator(r_u)
            lam_min = np.linalg.eigvalsh(r_u)[0]
            assert abs(np.real(np.vdot(v, r_u @ v)) - lam_min) < 1e-8
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestShiftIteration:
    # cmv_rls_step powers I - R/tr(R) to track the minimum eigenvector;
    # that map must send every eigenvalue of a PSD R into [0, 1]
    def test_eigenvalue_mapping_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            r = random_psd(rng, 6, floor=0.0)
            lam = np.linalg.eigvalsh(r).real
            mapped = 1.0 - lam / np.trace(r).real
            assert np.all(mapped >= -1e-12)
            assert np.all(mapped <= 1.0 + 1e-12)


class TestAgainstSimulatedLink:
    def test_batch_cmv_detects_in_noise(self):
        cfg = harness.ScenarioConfig(
            n=31, k=4, l_p=6, l=2, n_i=3, algorithm="cmv-sg", mode="blind",
            ebn0_db=15.0, symbols=1200, seed=5, path_delays=[0, 2, 4])
        rs, bs = [], []
        g_true = None
        for r, b, _, link in harness.iter_symbols(cfg, 42):
            rs.append(r)
            bs.append(b)
            g_true = link.channel.gains
        rs = np.array(rs)
        bs = np.array(bs)
        dec = make_decimation(36, 2)
        cons = cmv.build_constraints(gen_gold_set(5, 4)[0], 6, dec, g=g_true)
        rbar = rs[:, dec.indices]  # impulse interpolator
        r_cov = np.einsum("tm,tn->mn", rbar, rbar.conj()) / len(rs)
        w = cmv.cmv_receiver(r_cov, cons)
        outs = rbar @ w.conj()
        assert np.mean(np.sign(outs.real) != bs) < 0.01
