import numpy as np
import pytest

from ifir_cdma import harness, signal_model as sm

from oracles import (build_block_matrix, build_channel_matrix, fading_fft_block, lfsr_bits,
                     periodic_crosscorr)


def trapezoid(y, x):
    """Trapezoid-rule integral of samples y over the grid x (numpy 1.24 has no np.trapezoid)."""
    return np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2


def single_path_link(seed, **kw):
    """The harness's one-run link for one user over a one-path channel (l_p = 1 unless given)."""
    kw.setdefault("l_p", 1)
    cfg = harness.ScenarioConfig(k=1, path_powers=[1.0], runs=1, **kw)
    return harness._Links(cfg, [seed])


class TestGoldSet:
    def test_single_code_unit_norm(self):
        s = sm.gen_gold_set(5, 1)
        assert s.shape == (1, 31)
        assert abs(np.linalg.norm(s[0]) - 1.0) < 1e-12

    def test_three_valued_crosscorrelation(self):
        # brute-force check of the whole generated family against the
        # admissible integer correlation values for degree 5
        s = sm.gen_gold_set(5, 8)
        pm = np.sign(s) * 1  # back to +-1 integers
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
        pm = (1 - np.sign(s)) / 2  # back to bits
        # x^5 + x^2 + 1 and x^5 + x^4 + x^3 + x^2 + 1
        for row, mask in [(0, 0b10010), (1, 0b11110)]:
            ref = lfsr_bits(mask, 5)
            hits = [sh for sh in range(31)
                    if np.array_equal(np.roll(ref, sh), pm[row].astype(int))]
            assert hits, f"family row {row} is not the expected m-sequence"

    def test_degree6_family_distinct(self):
        s = sm.gen_gold_set(6, 10)
        assert s.shape == (10, 63)
        rows = {tuple(np.sign(r).astype(int)) for r in s}
        assert len(rows) == 10

    def test_one_read_only_copy(self):
        # the codes draw nothing, so every call shares one array, which a
        # stray write cannot change
        s = sm.gen_gold_set(5, 8)
        assert sm.gen_gold_set(5, 8) is s
        with pytest.raises(ValueError):
            s[0, 0] = 0.0

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
    # the link synthesises r(i); its match with the spec matrices for
    # many users, unequal amplitudes and faded gains is
    # test_harness.test_link_matches_synthesis

    def test_clean_single_user_is_code(self):
        link = single_path_link(0, symbols=20)
        link.sigma2 = 0.0
        (rs, bs, _, _), = link.chunks()
        for r, b in zip(rs, bs):
            assert np.allclose(r, b * link.codes[0])

    def test_matched_filter_flat_channel(self):
        link = single_path_link(4, symbols=20)
        link.sigma2 = 0.0
        (rs, bs, _, _), = link.chunks()
        for r, b in zip(rs, bs):
            assert abs(np.vdot(link.codes[0], r) - b) < 1e-12

    def test_noise_covariance(self):
        # two links on one seed draw the same noise chunks; one is made
        # noiseless after construction, so their difference is the noise
        draws = 20_000
        noisy = single_path_link(5, symbols=draws, ebn0_db=3.0)
        clean = single_path_link(5, symbols=draws, ebn0_db=3.0)
        clean.sigma2 = 0.0
        sigma2 = noisy.sigma2
        noise = np.concatenate([r - c for (r, _, _, _), (c, _, _, _)
                                in zip(noisy.chunks(), clean.chunks())])
        cov = noise.T @ noise.conj() / draws
        off = cov - np.diag(np.diag(cov))
        assert np.allclose(np.diag(cov).real, sigma2, rtol=0.05)
        assert np.abs(off).max() < 0.05 * sigma2
        assert np.abs(noise.T @ noise / draws).max() < 0.05 * sigma2  # circularity


class TestFading:
    def test_repeated_delays_rejected(self):
        # two powers at one delay would overwrite each other
        with pytest.raises(ValueError):
            sm.make_channel([1.0, 0.5, 0.3], [0, 0, 2], 6)

    def test_zero_doppler_constant(self):
        # a static link keeps its channel's gains through every noise chunk
        cfg = harness.ScenarioConfig(k=1, l_p=2, path_powers=[1.0, 0.5], path_delays=[0, 1],
                                     runs=1, symbols=2 * harness.NOISE_CHUNK + 10)
        link = harness._Links(cfg, [6])
        channel = link.channels[0]
        before = channel.gains.copy()
        gains = np.concatenate([gs for _, _, _, gs in link.chunks()])
        assert gains.shape == (cfg.symbols, cfg.l_p)
        assert np.array_equal(gains, np.broadcast_to(before, gains.shape))
        assert channel.fading is None
        assert np.array_equal(channel.gains, before)

    def test_unit_average_power(self):
        rng = np.random.default_rng(7)
        ch = sm.make_channel([1.0], [0], 1, doppler=0.01, rng=rng)
        gains = sm.fading_gains(ch, 120_000, rng)
        assert abs(np.mean(np.abs(gains[:, 0]) ** 2) - 1.0) < 0.03

    @pytest.mark.parametrize("count", (256, 7))
    def test_next_gains_match_next_gain(self, count):
        # slices of `count` samples, which split the 500-sample chunks and
        # cross the period wrap at 2^16, against one next_gain per sample
        # on a twin: same samples, same generator state after
        fd, total = 1e-3, (1 << 16) + 1500
        proc, twin = sm.FadingProcess(fd), sm.FadingProcess(fd)
        rng, twin_rng = np.random.default_rng(15), np.random.default_rng(15)
        got = np.concatenate([proc.next_gains(min(count, total - start), rng)
                              for start in range(0, total, count)])
        expect = np.array([twin.next_gain(twin_rng) for _ in range(total)])
        assert proc._block.size == 500
        assert got.tobytes() == expect.tobytes()
        assert rng.bit_generator.state == twin_rng.bit_generator.state

    def test_autocorrelation_matches_spectrum(self):
        # empirical lag correlation vs numerical integration of the clipped
        # Jakes power spectrum 1/sqrt(max(1 - (f/f_d)^2, clip)), out to
        # lag*doppler = 0.4, where the squared spectrum would read 0.37
        # lower.  The 0.06 band is ~4x the seed-to-seed spread measured at
        # lag 400 (std 0.014, largest of 12 seeds 0.033).
        rng = np.random.default_rng(8)
        fd = 0.001
        proc = sm.FadingProcess(fd)
        n = 400_000
        samples = np.array([proc.next_gain(rng) for _ in range(n)])
        f = np.linspace(-fd, fd, 200_001)
        psd = 1.0 / np.sqrt(np.maximum(1.0 - (f / fd) ** 2, sm._CLIP))
        lags = np.arange(0, 401, 50)
        theory = np.array([trapezoid(psd * np.cos(2 * np.pi * f * lag), f) for lag in lags])
        theory /= theory[0]
        # the reference is Clarke's J0(2 pi f_d tau) = (1/pi) int_0^pi
        # cos(2 pi f_d tau sin t) dt, up to the clip's flattening of the
        # band-edge peaks (0.025 at lag 400)
        t = np.linspace(0.0, np.pi, 20_001)
        j0 = np.array([trapezoid(np.cos(2 * np.pi * fd * lag * np.sin(t)), t) / np.pi
                       for lag in lags])
        assert np.abs(theory - j0).max() <= 0.03
        emp = np.array([np.mean(samples[:n - lag] * np.conj(samples[lag:])).real
                        for lag in lags])
        emp /= emp[0]
        assert np.abs(emp - theory).max() <= 0.06

    def test_on_demand_samples_match_fft_block(self):
        # a whole period of next_gain (many chunk boundaries, a short last
        # chunk) and the wrap into a second period, against inverse FFTs of
        # the same in-band draws: white values, real parts first, per period
        fd, n, extra = 1e-3, 1 << 16, 1500
        proc = sm.FadingProcess(fd)
        rng, twin = np.random.default_rng(12), np.random.default_rng(12)
        got = np.array([proc.next_gain(rng) for _ in range(n + extra)])
        assert 2 * proc._block.size < extra
        nb = int(np.sum(np.abs(np.fft.fftfreq(n)) < fd))
        periods = [fading_fft_block(twin.standard_normal(nb) + 1j * twin.standard_normal(nb),
                                    n, fd, sm._CLIP) for _ in range(2)]
        expect = np.concatenate((periods[0], periods[1][:extra]))
        assert np.abs(got - expect).max() <= 1e-12
        assert abs(np.mean(np.abs(got[:n]) ** 2) - 1.0) <= 1e-9

    @pytest.mark.parametrize("fd, period", [(1e-3, 1 << 16), (1e-4, 1 << 20), (1e-5, 1 << 22)])
    def test_period_doubles_to_the_cap(self, fd, period):
        # doubled from 2^16 until N f_d >= 64, but never past 2^22
        assert sm._period(fd) == period

    def test_on_demand_samples_match_fft_block_slow_fading(self):
        # the bench's fading regime, f_dt = 1e-4 with period 2^20: the first
        # ~10 chunks against one inverse FFT of the same in-band draws
        fd, n, used = 1e-4, 1 << 20, 3000
        proc = sm.FadingProcess(fd)
        rng, twin = np.random.default_rng(14), np.random.default_rng(14)
        got = np.array([proc.next_gain(rng) for _ in range(used)])
        assert 8 * proc._block.size < used
        nb = int(np.sum(np.abs(np.fft.fftfreq(n)) < fd))
        block = fading_fft_block(twin.standard_normal(nb) + 1j * twin.standard_normal(nb),
                                 n, fd, sm._CLIP)
        assert np.abs(got - block[:used]).max() <= 1e-12

    def test_chunk_memory_bounded_near_nyquist(self):
        proc = sm.FadingProcess(0.45)
        proc.next_gain(np.random.default_rng(13))
        nb = int(np.sum(np.abs(np.fft.fftfreq(1 << 16)) < 0.45))
        assert proc._block.size * nb <= sm._CHUNK_ELEMENTS

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
    for l_p in (1, 3, 6):
        link = single_path_link(10, symbols=3, l_p=l_p)
        (rs, _, rs_des, _), = link.chunks()
        assert rs.shape == rs_des.shape == (3, 31 + l_p - 1)
