import numpy as np
import pytest

from ifir_cdma import interpolation as ip

from oracles import filter_downsample, stacked_statistics


def crandn(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDecimation:
    def test_basic_indices(self):
        dec = ip.make_decimation(4, 2)
        assert list(dec.indices) == [0, 2]

    def test_identity(self):
        dec = ip.make_decimation(5, 1)
        assert np.allclose(np.eye(dec.m)[dec.indices], np.eye(5))

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
        d = np.eye(dec.m)[dec.indices]          # selection matrix, row s picks sample s*L
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
        # a build on another r first: the second must not see its samples
        rng = np.random.default_rng(0)
        for m, l, n_i in [(10, 3, 4), (7, 2, 5), (12, 4, 3)]:
            r = crandn(rng, m)
            dec = ip.make_decimation(m, l)
            ip.build_re_matrix(crandn(rng, m), n_i, dec)
            re = ip.build_re_matrix(r, n_i, dec)
            for n in range(n_i):
                for s in range(dec.m_red):
                    idx = s * l + n
                    expect = r[idx] if idx < m else 0.0
                    assert re[n, s] == expect

    def test_short_r_rejected(self):
        dec = ip.make_decimation(10, 3)
        with pytest.raises(ValueError):
            ip.build_re_matrix(np.ones(9, dtype=complex), 4, dec)

    def test_result_is_not_shared(self):
        rng = np.random.default_rng(8)
        dec = ip.make_decimation(10, 3)
        r = crandn(rng, 10)
        first = ip.build_re_matrix(r, 4, dec)
        expect = first.copy()
        first[:] = 99.0
        assert np.array_equal(ip.build_re_matrix(r, 4, dec), expect)

    @pytest.mark.parametrize("lead", [(5,), (2, 5)], ids=["runs", "pair-runs"])
    @pytest.mark.parametrize("l, n_i", [(2, 3), (1, 1), (1, 3), (4, 4)])
    def test_stacked_gather_is_each_build(self, lead, l, n_i):
        # a stacked block's Re in one gather over any leading axes: each
        # matrix equals its row's build bit for bit, and the stack is
        # C-contiguous, as each build is (a fancy index pad[..., idx] is not,
        # and the stacked kernels' batched products round by the layout).
        # At M = 34 every case but (1, 1) reads past the end of r, into the
        # zeros each row is padded with to the gather's width
        rng = np.random.default_rng(9)
        dec = ip.make_decimation(34, l)
        rs = crandn(rng, (*lead, 34))
        padded = np.zeros((*lead, dec.segment_index(n_i)[1].size), dtype=complex)
        padded[..., :34] = rs
        res = ip._segment_matrices(padded, n_i, dec)
        assert res.flags.c_contiguous
        assert res.shape == (*lead, n_i, dec.m_red)
        for k in np.ndindex(lead):
            assert res[k].tobytes() == ip.build_re_matrix(rs[k], n_i, dec).tobytes()


def projected(v, r, dec):
    """rbar = Re^T conj(v) as `receiver_output` sees it: entry s is its
    output with w the unit vector e_s."""
    return np.array([ip.receiver_output(ip.ReceiverState(v=v, w=w, dec=dec), r)
                     for w in np.eye(dec.m_red, dtype=complex)])


class TestInterpolateThenDecimate:
    def test_impulse_is_decimation(self):
        rng = np.random.default_rng(1)
        r = crandn(rng, 9)
        dec = ip.make_decimation(9, 3)
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.allclose(projected(v, r, dec), r[dec.indices])

    def test_trivial_passthrough(self):
        rng = np.random.default_rng(2)
        r = crandn(rng, 6)
        dec = ip.make_decimation(6, 1)
        out = projected(np.array([1.0 + 0j]), r, dec)
        assert np.allclose(out, r)

    def test_matches_filter_downsample_oracle(self):
        rng = np.random.default_rng(3)
        for m, l, n_i in [(12, 2, 3), (17, 3, 4), (9, 4, 2)]:
            r = crandn(rng, m)
            v = crandn(rng, n_i)
            dec = ip.make_decimation(m, l)
            got = projected(v, r, dec)
            expect = filter_downsample(v, r, l)[:dec.m_red]
            assert np.allclose(got, expect, atol=1e-12)

    def test_rejects_zero_interpolator(self):
        with pytest.raises(ValueError):
            ip.ReceiverState(v=np.zeros(2), w=np.ones(2), dec=ip.make_decimation(4, 2))


# (M, L, N_I): the default geometry and N=63/l_p=8 have a zero tail past M
FILTER_MAP_GEOMETRIES = [(36, 2, 3), (36, 4, 4), (36, 1, 1), (36, 3, 2), (70, 2, 3)]


class TestFilterMaps:
    @pytest.mark.parametrize("m,l,n_i", FILTER_MAP_GEOMETRIES)
    def test_maps_match_segment_matrix(self, m, l, n_i):
        rng = np.random.default_rng(m + 10 * l + n_i)
        dec = ip.make_decimation(m, l)
        v, w = crandn(rng, n_i), crandn(rng, dec.m_red)
        d_v, e_w = ip.filter_maps(v, w, dec)
        assert d_v.shape == (dec.m_red, m) and e_w.shape == (n_i, m)
        for _ in range(5):
            r = crandn(rng, m)
            re = ip.build_re_matrix(r, n_i, dec)
            np.testing.assert_allclose(d_v @ r, re.T @ v.conj(), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(e_w @ r, re @ w.conj(), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m,l,n_i", FILTER_MAP_GEOMETRIES)
    def test_gathered_statistics_match_stacked_samples(self, m, l, n_i):
        # every filter statistic is a sandwich of one sample covariance of r
        rng = np.random.default_rng(7 * m + l + n_i)
        dec = ip.make_decimation(m, l)
        t = 300
        rs = np.array([crandn(rng, m) for _ in range(t)])
        bs = np.sign(rng.standard_normal(t))
        v, w = crandn(rng, n_i), crandn(rng, dec.m_red)
        d_v, e_w = ip.filter_maps(v, w, dec)
        r_cov = rs.T @ rs.conj() / t
        p = rs.T @ bs.conj() / t
        gathered = dict(
            r_bar=d_v @ r_cov @ d_v.conj().T, p_bar=d_v @ p,
            r_u=e_w @ r_cov @ e_w.conj().T, p_u=e_w @ p,
            e_r_w=d_v @ r_cov @ e_w.conj().T, e_u_v=e_w @ r_cov @ d_v.conj().T)
        expect = stacked_statistics(rs, bs, v, w, l, dec.m_red)
        for name, value in gathered.items():
            np.testing.assert_allclose(value, expect[name], rtol=1e-12,
                                       atol=1e-12 * np.abs(expect[name]).max(),
                                       err_msg=name)


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

    def test_reads_decimation_from_state(self):
        rng = np.random.default_rng(7)
        dec = ip.make_decimation(36, 4)
        v, w, r = crandn(rng, 3), crandn(rng, dec.m_red), crandn(rng, 36)
        expect = np.vdot(w, ip.build_re_matrix(r, 3, dec).T @ v.conj())
        assert ip.receiver_output(ip.ReceiverState(v=v, w=w, dec=dec), r) == expect

    def test_scale_coupling(self):
        # scaling v by t and w by 1/t leaves the output unchanged
        rng = np.random.default_rng(5)
        dec = ip.make_decimation(10, 2)
        r = crandn(rng, 10)
        v = crandn(rng, 3)
        w = crandn(rng, dec.m_red)
        base = ip.receiver_output(ip.ReceiverState(v=v, w=w, dec=dec), r)
        for t in (2.0, -0.5, 1.3 - 0.7j, 0.01j):
            scaled = ip.receiver_output(ip.ReceiverState(v=t * v, w=w / t, dec=dec), r)
            assert abs(scaled - base) < 1e-10 * (1 + abs(base))

    def test_zero_filter(self):
        dec = ip.make_decimation(6, 2)
        out = ip.receiver_output(
            ip.ReceiverState(v=np.array([1.0 + 0j]), w=np.zeros(3, dtype=complex), dec=dec),
            np.ones(6, dtype=complex))
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
        assert abs(ip.receiver_output(ip.ReceiverState(v=v, w=w, dec=dec), r) - r[0]) < 1e-12


class TestDetect:
    @pytest.mark.parametrize("x,expect", [
        (0.3 - 2j, 1.0),
        (-0.1 + 5j, -1.0),
        (0.0, 1.0),
        (0.0 + 3j, 1.0),
    ])
    def test_cases(self, x, expect):
        assert ip.detect(x) == expect
