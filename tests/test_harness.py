import concurrent.futures
import csv
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ifir_cdma import adaptive, cmv, harness, signal_model
from ifir_cdma.interpolation import build_re_matrix
from oracles import (build_block_matrix, build_channel_matrix, link_step_per_symbol,
                     per_symbol_trial, rake_combiners)

# Recorded on a small seeded scenario (runs=2, symbols=400, seed=5, default
# n_tr=200): summary() as (final_mse, final_sinr_db, final_ber), then
# sinr_db[n_tr], sinr_db[-1] and ber[-1].  RAKE's mse before n_tr is not
# pinned: its combiner is trained a-priori, like every other receiver.
# A "-tracked" row runs its blind receiver with known_channel false.
PINS = {
    "lms": (0.1979243005105247, 7.257656972116679, 0.005,
            6.617509275387561, 7.641191153610264, 0.005),
    "rls": (0.18482705952773365, 6.988950662841649, 0.0,
            6.336237681592217, 7.883187664946503, 0.0),
    "cmv-sg": (0.34287352433171475, 5.468309982965554, 0.02375,
               5.15387610108892, 5.832697156632625, 0.02375),
    "cmv-rls": (0.4846030038483885, 3.8378018719363616, 0.05375,
                4.0272459499797115, 3.4810322560598665, 0.05375),
    "rake": (0.2705643277599483, 5.998613142664314, 0.0275,
             6.121696457835379, 6.497350063043127, 0.0275),
    "pd-lms": (0.20083010270562915, 7.206395236312943, 0.0075,
               5.982125946208127, 8.08591409766316, 0.0075),
    "pd-rls": (0.1409847478091832, 8.398704816254003, 0.0025,
               8.38667307807169, 8.712196453866216, 0.0025),
    "cmv-sg-tracked": (0.4596398413584726, 3.9081417001830836, 0.04875,
                       4.078322886694762, 4.022543100527915, 0.04875),
    "cmv-rls-tracked": (0.49661054239311947, 3.1250195971315238, 0.10625,
                        3.0461520594928073, 3.313428970759564, 0.10625),
}
INTERPOLATED = ("lms", "rls", "cmv-sg", "cmv-rls")
FACTORIES = ("make_trained_sg", "make_trained_rls", "make_blind_sg", "make_blind_rls")


def scenario(alg, **kw):
    kw.setdefault("mode", "blind" if alg.startswith("cmv") else "training")
    return harness.ScenarioConfig(algorithm=alg, **kw)


def link_symbols(link):
    """(r, b, r_des, g) per symbol of a link's chunks, as the trial takes them."""
    for chunk in link.chunks():
        yield from zip(*chunk)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("alg", harness.ALGORITHMS)
def test_every_algorithm_clears_the_floor(alg, seed):
    # the default scenario, as the paper's receivers must detect it
    s = harness.run_campaign(scenario(alg, runs=2, symbols=1000, seed=seed))
    sm = s.summary()
    assert sm["final_sinr_db"] >= 3.0 and sm["final_ber"] <= 0.05, sm


@pytest.mark.parametrize("name", PINS)
def test_seeded_campaign_pins(name):
    alg = name.removesuffix("-tracked")
    cfg = scenario(alg, runs=2, symbols=400, seed=5, known_channel=not name.endswith("-tracked"))
    s = harness.run_campaign(cfg)
    sm = s.summary()
    got = (sm["final_mse"], sm["final_sinr_db"], sm["final_ber"],
           s.sinr_db[cfg.n_tr], s.sinr_db[-1], s.ber[-1])
    np.testing.assert_allclose(got, PINS[name], rtol=1e-12, atol=0)


ORACLE_CASES = (
    [pytest.param(alg, {}, id=f"{alg}-static") for alg in harness.ALGORITHMS]
    + [pytest.param(alg, {"f_dt": 1e-3}, id=f"{alg}-fading") for alg in harness.ALGORITHMS]
    # 10-sample fading chunks, many of them inside one noise chunk
    + [pytest.param(alg, {"f_dt": 0.05}, id=f"{alg}-fast-fading") for alg in ("lms", "cmv-sg")]
    + [pytest.param(alg, {"mode": "decision-directed", "n_tr": 100}, id=f"{alg}-directed")
       for alg in harness.ALGORITHMS if not alg.startswith("cmv")]
    + [pytest.param(alg, {"known_channel": False}, id=f"{alg}-tracked")
       for alg in ("cmv-sg", "cmv-rls")]
    # one chunk, short or exactly full
    + [pytest.param(alg, {"symbols": 100}, id=f"{alg}-short") for alg in harness.ALGORITHMS]
    + [pytest.param(alg, {"symbols": harness.NOISE_CHUNK}, id=f"{alg}-one-chunk")
       for alg in harness.ALGORITHMS])


@pytest.mark.parametrize("alg, change", ORACLE_CASES)
def test_trial_matches_per_symbol_loop(alg, change):
    # by default two full noise chunks and a short last one
    cfg = scenario(alg, runs=1, **{"symbols": 2 * harness.NOISE_CHUNK + 88, **change})
    got = harness.run_trial(cfg, 31)
    for name, expect in zip(("mse", "sinr_db", "ber"), per_symbol_trial(cfg, 31)):
        assert getattr(got, name).tobytes() == expect.tobytes(), name


@pytest.mark.parametrize("alg, breakdowns", (("rls", 1), ("cmv-rls", 1), ("pd-rls", 1),
                                             ("lms", 0), ("rake", 0)))
def test_rls_breakdowns_reach_export(monkeypatch, tmp_path, alg, breakdowns):
    # the 10th rls_update of the campaign breaks down; the second run has none
    calls = []

    def breaking(p, x, alpha, delta, _update=adaptive.rls_update):
        calls.append(None)
        if len(calls) == 10:
            return delta * np.eye(p.shape[0], dtype=complex), None
        return _update(p, x, alpha, delta)

    monkeypatch.setattr(adaptive, "rls_update", breaking)
    s = harness.run_campaign(scenario(alg, runs=2, symbols=40, n_tr=20))
    path = tmp_path / "series.json"
    harness.export(s, path, "json")
    assert json.loads(path.read_text())["metadata"]["breakdowns"] == breakdowns


def test_campaign_reduction_rule():
    # MSE and BER are run means, SINR the dB of the mean linear ratio (in
    # dB the mean would be off by up to 7.3 dB here), breakdowns add up
    cfg = scenario("pd-rls", runs=3, symbols=150, seed=11)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(11).spawn(3)]
    trials = [harness.run_trial(cfg, seed) for seed in seeds]
    s = harness.run_campaign(cfg)
    for name in ("mse", "ber"):
        expect = np.mean([getattr(t, name) for t in trials], axis=0)
        assert getattr(s, name).tobytes() == expect.tobytes(), name
    sinr_lin = np.mean([10.0 ** (t.sinr_db / 10.0) for t in trials], axis=0)
    assert s.sinr_db.tobytes() == (10.0 * np.log10(sinr_lin)).tobytes()
    assert s.metadata["breakdowns"] == sum(t.metadata["breakdowns"] for t in trials)
    assert (s.metadata["runs_averaged"], s.metadata["run_seed"]) == (3, 11)


def test_non_finite_error_raises(monkeypatch):
    # a run whose output turns NaN without overflowing names its first bad
    # symbol; the output is taken three times per symbol, decision first
    calls = []

    def nan_from_symbol_5(state, r, _output=harness.receiver_output):
        calls.append(None)
        return complex("nan") if len(calls) > 15 else _output(state, r)

    monkeypatch.setattr(harness, "receiver_output", nan_from_symbol_5)
    with pytest.raises(np.linalg.LinAlgError, match="run seed 7 .* symbol 5 "):
        harness.run_trial(scenario("lms", runs=1, symbols=20), 7)


@pytest.mark.parametrize("f_dt", (0.0, 1e-3))
def test_worker_count_does_not_change_results(f_dt):
    cfg = scenario("rls", runs=3, symbols=150, seed=9, f_dt=f_dt)
    one = harness.run_campaign(cfg, workers=1)
    two = harness.run_campaign(cfg, workers=2)
    for name in ("mse", "sinr_db", "ber"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools campaigns open, recorded by a stand-in
    executor that maps in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def with_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_campaign_pool_capped_at_run_count(monkeypatch, pool_sizes):
    # the pool may fork all max_workers processes at its first submit, so
    # it must not be sized by the worker count alone
    with_cpus(monkeypatch, 8)
    cfg = scenario("lms", runs=3, symbols=40, n_tr=10, seed=4)
    pooled = harness.run_campaign(cfg, workers=10_000)
    assert pool_sizes == [3]
    serial = harness.run_campaign(cfg, workers=1)
    for name in ("mse", "sinr_db", "ber"):
        assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes()
    harness.run_campaign(scenario("lms", runs=1, symbols=40, n_tr=10), workers=10_000)
    assert pool_sizes == [3], "a one-run campaign needs no pool"


def test_campaign_pool_capped_at_cpu_count(monkeypatch, pool_sizes):
    with_cpus(monkeypatch, 2)
    harness.run_campaign(scenario("lms", runs=3, symbols=40, n_tr=10, seed=4), workers=10_000)
    assert pool_sizes == [2]


@pytest.mark.parametrize("alg, change, reference", (
    ("cmv-sg", {"known_channel": False}, "genie"),
    ("cmv-rls", {"known_channel": False}, "genie"),
    ("cmv-sg", {}, None),
    ("cmv-rls", {"f_dt": 1e-3}, None),
    ("lms", {}, None),
    ("rake", {}, None)))
def test_export_names_a_genie_phase_reference(tmp_path, alg, change, reference):
    # tracked blind runs rotate their decisions by the true channel
    s = harness.run_campaign(scenario(alg, runs=2, symbols=40, n_tr=20, **change))
    path = tmp_path / "series.json"
    harness.export(s, path, "json")
    assert json.loads(path.read_text())["metadata"]["phase_reference"] == reference


def test_json_export_round_trip(tmp_path):
    s = harness.run_campaign(scenario("pd-rls", runs=2, symbols=120, seed=3))
    path = tmp_path / "series.json"
    harness.export(s, path, "json")
    doc = json.loads(path.read_text())
    assert doc["columns"] == harness.CSV_COLUMNS
    assert doc["metadata"] == s.metadata
    assert doc["summary"] == s.summary()
    assert doc["series"]["iteration"] == list(range(120))
    for name in ("mse", "sinr_db", "ber"):
        assert np.array_equal(np.array(doc["series"][name]), getattr(s, name))


def run_capturing_state(monkeypatch, cfg):
    """run_trial; returns the adaptive state it built and that state's initial v."""
    built = []
    for name in FACTORIES:
        def capture(*args, _make=getattr(adaptive, name), **kwargs):
            st = _make(*args, **kwargs)
            built.append((st, st.v.copy()))
            return st

        monkeypatch.setattr(adaptive, name, capture)
    harness.run_trial(cfg, 17)
    assert len(built) == 1
    return built[0]


@pytest.mark.parametrize("frozen", (True, False))
@pytest.mark.parametrize("alg", INTERPOLATED)
def test_freeze_interpolator_keeps_v(monkeypatch, alg, frozen):
    cfg = scenario(alg, runs=1, symbols=150, interpolator_init="linear",
                   freeze_interpolator=frozen)
    st, v0 = run_capturing_state(monkeypatch, cfg)
    moved = np.abs(st.v - v0).max()
    assert moved <= 1e-12 if frozen else moved > 1e-6


@pytest.mark.parametrize("alg", ("cmv-sg", "cmv-rls"))
def test_freeze_interpolator_changes_blind_outputs(alg):
    runs = [harness.run_trial(scenario(alg, runs=1, symbols=150, freeze_interpolator=f), 17)
            for f in (True, False)]
    assert not np.array_equal(runs[0].sinr_db, runs[1].sinr_db)


@pytest.mark.parametrize("change", (
    pytest.param({"f_dt": 0.0}, id="0.0"),
    pytest.param({"f_dt": 1e-3}, id="0.001"),
    pytest.param({"n": 63, "k": 4, "l_p": 8}, id="n63"),
    pytest.param({"path_delays": [0, 2, 4],
                  "interferer_db": [-6.0, -3.0, 0.0, 2.0, 4.0, 6.0, 9.0]}, id="fixed")))
def test_link_matches_synthesis(change):
    # the link's received vector against the spec matrices,
    # H sum_k A_k S_k b_k on the symbol's gains, and its desired-only
    # component against A_0 b times the signal model's signature, symbol by symbol
    cfg = scenario("rls", runs=1, symbols=60, **change)
    link = harness._Link(cfg, np.random.default_rng(3))
    link.sigma2 = 0.0
    span = 2 * link.l_s - 1
    blocks = [build_block_matrix(code, link.l_s) for code in link.codes]
    for i, (r, b, r_des, g) in enumerate(link_symbols(link)):
        chips = sum(a * (s @ bits) for a, s, bits in zip(link.amps, blocks,
                                                          link.bits[:, i:i + span]))
        expect = build_channel_matrix(g, cfg.n, link.l_s) @ chips
        assert np.abs(r - expect).max() <= 1e-12
        signature = signal_model.effective_signature(link.codes[0], g)
        assert np.abs(r_des - link.amps[0] * b * signature).max() <= 1e-12


def test_link_matches_synthesis_across_a_fading_period_wrap():
    # the first fading period (2^16 samples at f_dt = 1e-3) ends at symbol
    # 65535, the last of a noise chunk; the link against the spec matrices
    # on the symbol's gains, around that symbol
    cfg = scenario("rls", runs=1, symbols=65_601, f_dt=1e-3)
    link = harness._Link(cfg, np.random.default_rng(3))
    link.sigma2 = 0.0
    span = 2 * link.l_s - 1
    blocks = [build_block_matrix(code, link.l_s) for code in link.codes]
    for i, (r, _, _, g) in enumerate(link_symbols(link)):
        if i < 65_500:
            continue
        chips = sum(a * (s @ bits) for a, s, bits in zip(link.amps, blocks,
                                                          link.bits[:, i:i + span]))
        expect = build_channel_matrix(g, cfg.n, link.l_s) @ chips
        assert np.abs(r - expect).max() <= 1e-12


@pytest.mark.parametrize("f_dt", (0.0, 1e-3))
def test_iter_symbols_matches_per_symbol_link(f_dt):
    # the chunked link seen a symbol at a time, across a noise-chunk
    # boundary, against a twin link stepped symbol by symbol
    cfg = scenario("lms", runs=1, symbols=harness.NOISE_CHUNK + 40, f_dt=f_dt)
    twin = harness._Link(cfg, np.random.default_rng(13))
    for i, (r, b, r_des, g) in enumerate(harness.iter_symbols(cfg, 13)):
        expect = link_step_per_symbol(twin, i)
        for got, ref in zip((r, b, r_des), expect):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), i
        assert g.tobytes() == twin.channel.gains.tobytes(), i
    assert i == cfg.symbols - 1


@pytest.mark.parametrize("delays", ([0, 3, 5], [4, 1, 0]))
def test_path_delays_fix_the_channel(delays):
    # a path_delays list fixes the delays of every run
    cfg = scenario("lms", runs=1, symbols=40, n_tr=10, path_delays=delays)
    for seed in range(5):
        link = harness._Link(cfg, np.random.default_rng(seed))
        assert list(link.channel.path_delays) == delays
        assert np.flatnonzero(link.channel.gains).tolist() == sorted(delays)


@pytest.mark.parametrize("alg, change", [(alg, {"f_dt": 1e-3}) for alg in harness.ALGORITHMS]
                         + [(alg, {"known_channel": False}) for alg in ("cmv-sg", "cmv-rls")])
def test_fading_and_tracked_trials_differ(alg, change):
    base = harness.run_trial(scenario(alg, runs=1, symbols=150), 23)
    other = harness.run_trial(scenario(alg, runs=1, symbols=150, **change), 23)
    for name in ("mse", "sinr_db", "ber"):
        assert np.all(np.isfinite(getattr(other, name)))
    assert not np.array_equal(base.mse, other.mse)
    assert not np.array_equal(base.sinr_db, other.sinr_db)


def test_csv_export_round_trip(tmp_path):
    s = harness.run_campaign(scenario("lms", runs=2, symbols=90, seed=4))
    path = tmp_path / "series.csv"
    harness.export(s, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == harness.CSV_COLUMNS
    body = rows[1:]
    assert len(body) == 90
    assert [int(row[0]) for row in body] == list(range(90))
    for col, name in ((1, "mse"), (2, "sinr_db"), (3, "ber")):
        assert np.array_equal(np.array([float(row[col]) for row in body]), getattr(s, name))
    assert {tuple(row[4:]) for row in body} == {("lms", "2", "3", "4")}


def test_unknown_export_format(tmp_path):
    s = harness.run_campaign(scenario("lms", runs=1, symbols=10))
    with pytest.raises(ValueError):
        harness.export(s, tmp_path / "series.xml", "xml")


def test_unencodable_metadata_leaves_no_json(tmp_path):
    s = harness.run_campaign(scenario("lms", runs=1, symbols=10))
    s.metadata["note"] = object()
    path = tmp_path / "series.json"
    with pytest.raises(TypeError):
        harness.export(s, path, "json")
    assert not path.exists()


@pytest.mark.parametrize("alg", ("cmv-sg", "cmv-rls"))
def test_known_channel_constraint_follows_fading(alg):
    # with a known channel both blind receivers hold their response to
    # p = C g at 1 for each symbol's gains g, symbol by symbol, under fading
    cfg = scenario(alg, runs=1, symbols=300, f_dt=1e-3)
    link = harness._Link(cfg, np.random.default_rng(23))
    _, _, adapt, st = harness._receiver(cfg, link)
    c = cmv.shifted_signatures(link.codes[0], cfg.l_p)
    for r, b, _, g in link_symbols(link):
        adapt(r, b, g)
        re_p = build_re_matrix(c @ g, cfg.n_i, st.dec)
        v, w = st.v, st.w
        assert abs(np.vdot(w, re_p.T @ v.conj()) - 1) <= 1e-9
        assert abs(np.vdot(v, re_p @ w.conj()) - 1) <= 1e-9


def test_benchmark_scenarios_validate():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            docs = workloads.scenarios(name, harness.ALGORITHMS, 101, smoke=smoke)
            assert set(docs) == set(harness.ALGORITHMS)
            for doc in docs.values():
                harness.ScenarioConfig.from_dict(doc)


def test_fixed_interferer_offsets_set_amplitudes():
    offs = [3.0, -2.0, 6.0, 0.0, 1.5, -4.0, 2.0]
    cfg = scenario("lms", runs=1, symbols=10, interferer_db=offs)
    link = harness._Link(cfg, np.random.default_rng(0))
    assert link.amps[0] == 1.0
    np.testing.assert_allclose(link.amps[1:], 10.0 ** (np.array(offs) / 20.0), rtol=1e-15)


def test_lognormal_interferers_match_configured_spread():
    # 40 links x 32 interferers of 4 dB spread.  Over 60 seeds the sample
    # mean (dB) varied with std 0.12 and the sample std relative to 4 dB
    # with std 0.021; the bands are ~4x those.
    sigma = 4.0
    cfg = scenario("lms", runs=1, symbols=1, k=33, interferer_sigma_db=sigma)
    offs = np.concatenate([20.0 * np.log10(harness._Link(cfg, np.random.default_rng(s)).amps[1:])
                           for s in range(40)])
    assert abs(offs.mean()) <= 0.5
    assert abs(offs.std(ddof=1) / sigma - 1.0) <= 0.08


@pytest.mark.parametrize("alg", harness.ALGORITHMS)
def test_n63_campaign_is_finite(alg):
    cfg = scenario(alg, runs=2, symbols=300, seed=7, n=63, k=4, l_p=8)
    s = harness.run_campaign(cfg)
    for name in ("mse", "sinr_db", "ber"):
        series = getattr(s, name)
        assert series.shape == (300,) and np.all(np.isfinite(series)), name


@pytest.mark.parametrize("change", (
    pytest.param({}, id="default"),
    pytest.param({"n": 63, "k": 4, "l_p": 8}, id="n63")))
def test_rake_combiner_matches_per_symbol_solve(change):
    # w after every training symbol against a fresh solve of the normal
    # equations scaled by g^H C^H C g; past n_tr, w stays frozen
    cfg = scenario("rake", runs=1, symbols=260, **change)
    link = harness._Link(cfg, np.random.default_rng(29))
    rx = harness._Projected(cfg, link)
    rs, bs, ws = [], [], []
    for r, b, _, g in link_symbols(link):
        rx.adapt(rx.proj_h @ r, b, g)
        rs.append(r)
        bs.append(b)
        ws.append(rx.w.copy())
    expect = rake_combiners(link.codes[0], cfg.l_p, rs[:cfg.n_tr], bs[:cfg.n_tr])
    for got, ref in zip(ws, expect):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert all(np.array_equal(w, ws[cfg.n_tr - 1]) for w in ws[cfg.n_tr:])


@pytest.mark.parametrize("normalized", (True, False))
def test_pd_lms_step_follows_normalized_steps(normalized):
    # one adapt moves w by mu0 conj(xi) y, divided by ||y||^2 when normalised
    cfg = scenario("pd-lms", runs=1, symbols=10, mu0=0.05, normalized_steps=normalized)
    link = harness._Link(cfg, np.random.default_rng(4))
    rx = harness._Projected(cfg, link)
    rng = np.random.default_rng(5)
    rx.w = rng.standard_normal(rx.w.size) + 1j * rng.standard_normal(rx.w.size)
    w0 = rx.w.copy()
    r, b, _, g = next(link_symbols(link))
    y = rx.proj_h @ r
    xi = b - np.vdot(w0, y)
    rx.adapt(y, b, g)
    step = cfg.mu0 / np.real(np.vdot(y, y)) if normalized else cfg.mu0
    np.testing.assert_allclose(rx.w - w0, step * np.conj(xi) * y, rtol=1e-12, atol=1e-15)


def test_numpy_integers_configure_a_run(tmp_path):
    cfg = scenario("lms", runs=np.int64(1), symbols=np.int32(40), n_tr=np.int64(10),
                   seed=np.uint32(3), path_delays=list(np.array([0, 2, 4])))
    s = harness.run_campaign(cfg)
    assert s.mse.shape == (40,)
    # validate stores them as Python ints, so the metadata encodes as JSON
    path = tmp_path / "series.json"
    harness.export(s, path, "json")
    meta = json.loads(path.read_text())["metadata"]
    assert (meta["runs"], meta["symbols"], meta["n_tr"], meta["seed"]) == (1, 40, 10, 3)
    assert meta["path_delays"] == [0, 2, 4]


def test_numpy_reals_configure_a_run(tmp_path):
    cfg = scenario("lms", runs=1, symbols=40, n_tr=10, ebn0_db=np.float32(10.0),
                   mu0=np.float64(0.05), delta=100, path_powers=[1, np.float32(0.5), 0.25],
                   k=3, interferer_db=[np.float32(-3.0), 2])
    # validate stores them as Python numbers, so the metadata encodes as
    # JSON; Python ints stay ints
    path = tmp_path / "series.json"
    harness.export(harness.run_campaign(cfg), path, "json")
    meta = json.loads(path.read_text())["metadata"]
    got = [meta["ebn0_db"], meta["mu0"], meta["delta"], *meta["path_powers"], *meta["interferer_db"]]
    assert got == [10.0, 0.05, 100, 1, 0.5, 0.25, -3.0, 2]
    assert [type(x) for x in got] == [float, float, int, int, float, float, float, int]


def test_a_field_of_any_type_fails_only_as_a_config_error():
    # the CLI reports ConfigError, and only it, as a configuration error
    values = (None, True, 3, 1.5, "x", [1], [[1]], {0: 1})
    for name in harness.ScenarioConfig.__dataclass_fields__:
        for value in values:
            try:
                harness.ScenarioConfig(**{name: value})
            except harness.ConfigError:
                pass
    # a mapping is not a delay list, even when its keys would be
    with pytest.raises(harness.ConfigError, match="path_delays must be a list"):
        harness.ScenarioConfig(path_delays={0: 1, 2: 1, 4: 1})
