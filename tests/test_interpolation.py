import numpy as np
import pytest

from ifir_cdma import interpolation as ip

from oracles import filter_downsample


def crandn(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDecimation:
    def test_basic_indices(self):
        dec = ip.make_decimation(4, 2)
        assert list(dec.indices) == [0, 2]

    def test_identity(self):
        dec = ip.make_decimation(5, 1)
        assert np.allclose(dec.matrix(), np.eye(5))

    def test_rounding_and_clipping(self):
        dec = ip.make_decimation(36, 4)
        assert dec.m_red == 9
        assert dec.indices[-1] == 32
        # half case rounds up; the last index stays in range
        dec = ip.make_decimation(36, 8)
        assert dec.m_red == 5
        assert dec.indices[-1] == 32

    def test_orthonormal_rows_and_projector(self):
        dec = ip.make_decimation(11, 3)
        d = dec.matrix()
        assert np.allclose(d @ d.T, np.eye(dec.m_red))
        p = d.T @ d
        assert np.allclose(p, p @ p)
        assert set(np.round(np.diag(p), 12)) <= {0.0, 1.0}

    def test_errors(self):
        with pytest.raises(ValueError):
            ip.make_decimation(3, 4)
        with pytest.raises(ValueError):
            ip.make_decimation(3, 0)


class TestSegmentMatrix:
    def test_columns_are_segments(self):
        r = np.array([1.0, 2.0, 3.0, 4.0])
        dec = ip.make_decimation(4, 2)
        re = ip.build_re_matrix(r, 2, dec)
        assert np.array_equal(re, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_row_vector_case(self):
        r = np.arange(5.0)
        dec = ip.make_decimation(5, 1)
        re = ip.build_re_matrix(r, 1, dec)
        assert np.array_equal(re[0], r)

    def test_index_oracle_with_padding(self):
        rng = np.random.default_rng(0)
        for m, l, n_i in [(10, 3, 4), (7, 2, 5), (12, 4, 3)]:
            r = crandn(rng, m)
            dec = ip.make_decimation(m, l)
            re = ip.build_re_matrix(r, n_i, dec)
            for n in range(n_i):
                for s in range(dec.m_red):
                    idx = s * l + n
                    expect = r[idx] if idx < m else 0.0
                    assert re[n, s] == expect


class TestInterpolateThenDecimate:
    def test_impulse_is_decimation(self):
        rng = np.random.default_rng(1)
        r = crandn(rng, 9)
        dec = ip.make_decimation(9, 3)
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.allclose(ip.interpolate_then_decimate(v, r, dec), dec.decimate(r))

    def test_trivial_passthrough(self):
        rng = np.random.default_rng(2)
        r = crandn(rng, 6)
        dec = ip.make_decimation(6, 1)
        out = ip.interpolate_then_decimate(np.array([1.0 + 0j]), r, dec)
        assert np.allclose(out, r)

    def test_matches_filter_downsample_oracle(self):
        rng = np.random.default_rng(3)
        for m, l, n_i in [(12, 2, 3), (17, 3, 4), (9, 4, 2)]:
            r = crandn(rng, m)
            v = crandn(rng, n_i)
            dec = ip.make_decimation(m, l)
            got = ip.interpolate_then_decimate(v, r, dec)
            expect = filter_downsample(v, r, l)[:dec.m_red]
            assert np.allclose(got, expect, atol=1e-12)

    def test_rejects_zero_interpolator(self):
        with pytest.raises(ValueError):
            ip.ReceiverState(v=np.zeros(2), w=np.ones(2))


class TestReceiverOutput:
    def test_bilinear_equality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(4, 40))
            l = int(rng.integers(1, 5))
            if l > m:
                continue
            dec = ip.make_decimation(m, l)
            n_i = int(rng.integers(1, max(2, min(6, dec.m_red + 1))))
            r = crandn(rng, m)
            v = crandn(rng, n_i)
            w = crandn(rng, dec.m_red)
            re = ip.build_re_matrix(r, n_i, dec)
            x1 = np.vdot(v, re @ w.conj())           # v^H Re conj(w)
            x2 = np.vdot(w, re.T @ v.conj())         # w^H (Re^T conj(v))
            assert abs(x1 - x2) <= 1e-10 * (1.0 + abs(x1))

    def test_scale_coupling(self):
        # scaling v by t and w by 1/t leaves the output unchanged
        rng = np.random.default_rng(5)
        dec = ip.make_decimation(10, 2)
        r = crandn(rng, 10)
        v = crandn(rng, 3)
        w = crandn(rng, dec.m_red)
        base = ip.receiver_output(ip.ReceiverState(v=v, w=w), r, dec)
        for t in (2.0, -0.5, 1.3 - 0.7j, 0.01j):
            scaled = ip.receiver_output(ip.ReceiverState(v=t * v, w=w / t), r, dec)
            assert abs(scaled - base) < 1e-10 * (1 + abs(base))

    def test_zero_filter(self):
        dec = ip.make_decimation(6, 2)
        out = ip.receiver_output(
            ip.ReceiverState(v=np.array([1.0 + 0j]), w=np.zeros(3, dtype=complex)),
            np.ones(6, dtype=complex), dec)
        assert out == 0

    def test_impulse_selects_sample(self):
        rng = np.random.default_rng(6)
        r = crandn(rng, 8)
        dec = ip.make_decimation(8, 2)
        v = np.zeros(2, dtype=complex)
        v[0] = 1.0
        w = np.zeros(dec.m_red, dtype=complex)
        w[0] = 1.0
        # x = w^H rbar = conj(w0) r[0]
        assert abs(ip.receiver_output(ip.ReceiverState(v=v, w=w), r, dec) - r[0]) < 1e-12


class TestDetect:
    @pytest.mark.parametrize("x,expect", [
        (0.3 - 2j, 1.0),
        (-0.1 + 5j, -1.0),
        (0.0, 1.0),
        (0.0 + 3j, 1.0),
    ])
    def test_cases(self, x, expect):
        assert ip.detect(x) == expect
