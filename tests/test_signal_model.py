import numpy as np
import pytest

from ifir_cdma import signal_model as sm

from oracles import build_block_matrix, build_channel_matrix, lfsr_bits, periodic_crosscorr


def frame_for(bits, amps):
    return sm.SymbolFrame(bits=np.atleast_2d(np.asarray(bits, dtype=float)),
                          amplitudes=np.asarray(amps, dtype=float))


class TestGoldSet:
    def test_single_code_unit_norm(self):
        s = sm.gen_gold_set(5, 1)
        assert s.codes.shape == (1, 31)
        assert abs(np.linalg.norm(s.codes[0]) - 1.0) < 1e-12

    def test_three_valued_crosscorrelation(self):
        # brute-force check of the whole generated family against the
        # admissible integer correlation values for degree 5
        s = sm.gen_gold_set(5, 8)
        pm = np.sign(s.codes) * 1  # back to +-1 integers
        allowed = {-1, -9, 7}
        for i in range(8):
            for j in range(i + 1, 8):
                vals = set(periodic_crosscorr(pm[i].astype(int), pm[j].astype(int)).tolist())
                assert vals <= allowed, (i, j, vals)

    def test_msequence_members_match_independent_lfsr(self):
        # family members 0 and 1 are the preferred m-sequence pair; each must
        # be a cyclic shift of an m-sequence produced by an independent
        # Galois-form generator for the same polynomial
        s = sm.gen_gold_set(5, 2)
        pm = (1 - np.sign(s.codes)) / 2  # back to bits
        # x^5 + x^2 + 1 and x^5 + x^4 + x^3 + x^2 + 1
        for row, mask in [(0, 0b10010), (1, 0b11110)]:
            ref = lfsr_bits(mask, 5)
            hits = [sh for sh in range(31)
                    if np.array_equal(np.roll(ref, sh), pm[row].astype(int))]
            assert hits, f"family row {row} is not the expected m-sequence"

    def test_degree6_family_distinct(self):
        s = sm.gen_gold_set(6, 10)
        assert s.codes.shape == (10, 63)
        rows = {tuple(np.sign(r).astype(int)) for r in s.codes}
        assert len(rows) == 10

    def test_errors(self):
        with pytest.raises(ValueError):
            sm.gen_gold_set(4, 1)
        with pytest.raises(ValueError):
            sm.gen_gold_set(5, 34)


class TestBlockMatrix:
    def test_single_block_is_code(self):
        code = np.array([1.0, -1.0]) / np.sqrt(2)
        s = build_block_matrix(code, 1)
        assert s.shape == (2, 1)
        assert np.allclose(s[:, 0], code)

    def test_offsets(self):
        code = np.array([1.0, -1.0])
        s = build_block_matrix(code, 2)
        assert s.shape == (6, 3)
        for j in range(3):
            expect = np.zeros(6)
            expect[2 * j:2 * j + 2] = code
            assert np.array_equal(s[:, j], expect)

    def test_columns_orthogonal(self):
        rng = np.random.default_rng(0)
        code = rng.standard_normal(7)
        s = build_block_matrix(code, 3)
        gram = s.T @ s
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() == 0.0


class TestChannelMatrix:
    def test_single_path_identity(self):
        h = build_channel_matrix(np.array([1.0]), 5, 1)
        assert np.allclose(h, np.eye(5))

    def test_two_path_banded(self):
        h = build_channel_matrix(np.array([1.0, 0.5]), 3, 1)
        assert h.shape == (4, 3)
        assert h[1, 0] == 0.5
        assert h[1, 1] == 1.0
        assert h[0, 0] == 1.0
        assert h[3, 2] == 0.5

    def test_product_is_convolution(self):
        # H (S b) for a single user equals the windowed convolution of the
        # symbol-scaled chip stream with the gains
        rng = np.random.default_rng(1)
        code = rng.standard_normal(5)
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        l_s = 2
        bits = np.array([1.0, -1.0, 1.0])
        h = build_channel_matrix(gains, 5, l_s)
        s = build_block_matrix(code, l_s)
        got = h @ (s @ bits)
        stream = np.concatenate([code * b for b in bits])
        full = np.convolve(stream, gains)
        expect = full[5:5 + 7]
        assert np.allclose(got, expect, atol=1e-12)


class TestSynthesize:
    def test_clean_single_user_is_code(self):
        s = sm.gen_gold_set(5, 1)
        ch = sm.make_channel([1.0], [0], 1)
        rng = np.random.default_rng(0)
        r = sm.synthesize_received(s, ch, frame_for([[1.0]], [1.0]), 0.0, rng)
        assert np.allclose(r, s.codes[0])

    def test_matches_matrix_route(self):
        # dual route: stream convolution vs explicit H @ sum_k A_k S_k b_k
        rng = np.random.default_rng(2)
        s = sm.gen_gold_set(5, 3)
        gains = np.array([1.0, 0.0, 0.5j, 0.0, 0.3, 0.0])
        ch = sm.ChannelRealization(gains=gains)
        l_s = sm.isi_span(6, 31)
        bits = np.where(rng.random((3, 2 * l_s - 1)) < 0.5, -1.0, 1.0)
        amps = np.array([1.0, 0.8, 1.3])
        r = sm.synthesize_received(s, ch, sm.SymbolFrame(bits=bits, amplitudes=amps), 0.0, rng)
        h = build_channel_matrix(gains, 31, l_s)
        z = sum(amps[k] * (build_block_matrix(s.codes[k], l_s) @ bits[k]) for k in range(3))
        assert np.allclose(r, h @ z, atol=1e-12)
        assert r.size == 31 + 6 - 1

    def test_superposition(self):
        rng = np.random.default_rng(3)
        s = sm.gen_gold_set(5, 4)
        ch = sm.make_channel([1.0, 0.4], [0, 2], 4, normalize=False)
        l_s = 2
        bits = np.where(rng.random((4, 3)) < 0.5, -1.0, 1.0)
        amps = np.array([1.0, 0.5, 2.0, 1.1])
        whole = sm.synthesize_received(s, ch, sm.SymbolFrame(bits=bits, amplitudes=amps),
                                       0.0, rng)
        parts = np.zeros_like(whole)
        for k in range(4):
            solo = sm.SpreadingSet(codes=s.codes[k:k + 1])
            parts += sm.synthesize_received(
                solo, ch, sm.SymbolFrame(bits=bits[k:k + 1], amplitudes=amps[k:k + 1]),
                0.0, rng)
        assert np.allclose(whole, parts, atol=1e-12)

    def test_matched_filter_flat_channel(self):
        # orthogonal-ish check via a flat channel and the user's own code
        s = sm.gen_gold_set(5, 1)
        ch = sm.make_channel([1.0], [0], 1)
        rng = np.random.default_rng(4)
        r = sm.synthesize_received(s, ch, frame_for([[-1.0]], [1.7]), 0.0, rng)
        assert abs(np.vdot(s.codes[0], r) - (-1.7)) < 1e-12

    def test_noise_covariance(self):
        rng = np.random.default_rng(5)
        code = np.array([[1.0, -1.0]]) / np.sqrt(2)
        s = sm.SpreadingSet(codes=code)
        ch = sm.make_channel([1.0], [0], 1)
        sigma2 = 0.7
        draws = 100_000
        clean = sm.synthesize_received(s, ch, frame_for([[1.0]], [1.0]), 0.0, rng)
        noise = np.array([
            sm.synthesize_received(s, ch, frame_for([[1.0]], [1.0]), sigma2, rng) - clean
            for _ in range(draws)])
        cov = noise.T.conj() @ noise / draws
        assert np.allclose(np.diag(cov).real, sigma2, rtol=0.05)
        assert abs(cov[0, 1]) < 0.05 * sigma2
        assert abs(np.mean(noise ** 2)) < 0.05 * sigma2  # circularity


class TestFading:
    def test_zero_doppler_constant(self):
        rng = np.random.default_rng(6)
        ch = sm.make_channel([1.0, 0.5], [0, 1], 2, doppler=0.0, normalize=False)
        before = ch.gains.copy()
        for _ in range(10):
            sm.fading_step(ch, rng)
        assert np.array_equal(ch.gains, before)

    def test_unit_average_power(self):
        rng = np.random.default_rng(7)
        ch = sm.make_channel([1.0], [0], 1, doppler=0.01, rng=rng)
        n = 120_000
        acc = 0.0
        for _ in range(n):
            sm.fading_step(ch, rng)
            acc += abs(ch.gains[0]) ** 2
        assert abs(acc / n - 1.0) < 0.03

    def test_autocorrelation_matches_spectrum(self):
        # empirical lag correlation vs numerical integration of the clipped
        # shaping spectrum, within 10% out to lag*doppler = 0.1
        rng = np.random.default_rng(8)
        fd = 0.001
        proc = sm.FadingProcess(fd)
        n = 400_000
        samples = np.array([proc.next_gain(rng) for _ in range(n)])
        f = np.linspace(-fd, fd, 200_001)
        psd = 1.0 / np.maximum(1.0 - (f / fd) ** 2, proc.clip)
        lags = np.arange(0, 101, 20)
        theory = np.array([np.trapezoid(psd * np.cos(2 * np.pi * f * lag), f) for lag in lags])
        theory /= theory[0]
        emp = np.array([np.mean(samples[:n - lag] * np.conj(samples[lag:])).real
                        for lag in lags])
        emp /= emp[0]
        assert np.all(np.abs(emp - theory) <= 0.10 * np.abs(theory))

    def test_fading_profile_normalized(self):
        rng = np.random.default_rng(9)
        ch = sm.make_channel([1.0, 0.5, 0.3], [0, 2, 4], 6, doppler=0.005, rng=rng)
        assert abs(np.linalg.norm(ch.path_powers) - 1.0) < 1e-12


def test_isi_span_rule():
    assert sm.isi_span(1, 31) == 1
    assert sm.isi_span(2, 31) == 2
    assert sm.isi_span(31, 31) == 2
    assert sm.isi_span(32, 31) == 3


def test_dimension_contract():
    rng = np.random.default_rng(10)
    s = sm.gen_gold_set(5, 2)
    for l_p in (1, 3, 6):
        ch = sm.make_channel([1.0], [0], l_p, normalize=False)
        l_s = sm.isi_span(l_p, 31)
        bits = np.ones((2, 2 * l_s - 1))
        r = sm.synthesize_received(s, ch, sm.SymbolFrame(bits=bits, amplitudes=np.ones(2)),
                                   0.1, rng)
        assert r.size == 31 + l_p - 1
