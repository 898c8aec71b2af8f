import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ifir_cdma import adaptive, harness, signal_model
from oracles import build_block_matrix, build_channel_matrix, per_symbol_trial

# Recorded on a small seeded scenario (runs=2, symbols=400, seed=5, default
# n_tr=200): summary() as (final_mse, final_sinr_db, final_ber), then
# sinr_db[n_tr], sinr_db[-1] and ber[-1].  RAKE's mse before n_tr is not
# pinned: its combiner is trained a-priori, like every other receiver.
PINS = {
    "lms": (0.1979243005105247, 7.257656972116679, 0.005,
            6.617509275387561, 7.641191153610264, 0.005),
    "rls": (0.18482705952773365, 6.988950662841649, 0.0,
            6.336237681592217, 7.883187664946503, 0.0),
    "cmv-sg": (1.147697739236009, -8.450538410055541, 0.29875,
               -3.8896340443971074, -10.541807446183922, 0.29875),
    "cmv-rls": (1.1122283591341349, -15.44376246141061, 0.39875,
                -13.742905642432266, -16.63292015624333, 0.39875),
    "rake": (0.2705643277599483, 5.998613142664314, 0.0275,
             6.121696457835379, 6.497350063043127, 0.0275),
    "pd-lms": (0.20083010270562915, 7.206395236312943, 0.0075,
               5.982125946208127, 8.08591409766316, 0.0075),
    "pd-rls": (0.1409847478091832, 8.398704816254003, 0.0025,
               8.38667307807169, 8.712196453866216, 0.0025),
}
INTERPOLATED = ("lms", "rls", "cmv-sg", "cmv-rls")
FACTORIES = ("make_trained_sg", "make_trained_rls", "make_blind_sg", "make_blind_rls")


def scenario(alg, **kw):
    kw.setdefault("mode", "blind" if alg.startswith("cmv") else "training")
    return harness.ScenarioConfig(algorithm=alg, **kw)


@pytest.mark.parametrize("alg", harness.ALGORITHMS)
def test_seeded_campaign_pins(alg):
    cfg = scenario(alg, runs=2, symbols=400, seed=5)
    s = harness.run_campaign(cfg)
    sm = s.summary()
    got = (sm["final_mse"], sm["final_sinr_db"], sm["final_ber"],
           s.sinr_db[cfg.n_tr], s.sinr_db[-1], s.ber[-1])
    np.testing.assert_allclose(got, PINS[alg], rtol=1e-12, atol=0)


ORACLE_CASES = (
    [pytest.param(alg, {}, id=f"{alg}-static") for alg in harness.ALGORITHMS]
    + [pytest.param(alg, {"f_dt": 1e-3}, id=f"{alg}-fading") for alg in harness.ALGORITHMS]
    + [pytest.param(alg, {"mode": "decision-directed", "n_tr": 100}, id=f"{alg}-directed")
       for alg in harness.ALGORITHMS if not alg.startswith("cmv")]
    + [pytest.param(alg, {"known_channel": False}, id=f"{alg}-tracked")
       for alg in ("cmv-sg", "cmv-rls")])


@pytest.mark.parametrize("alg, change", ORACLE_CASES)
def test_trial_matches_per_symbol_loop(alg, change):
    # two full noise chunks and a short last one
    cfg = scenario(alg, runs=1, symbols=2 * harness.NOISE_CHUNK + 88, **change)
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
            return delta * np.eye(p.shape[0], dtype=complex), None, p @ x, 0.0
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

    def nan_from_symbol_5(state, r, dec, _output=harness.receiver_output):
        calls.append(None)
        return complex("nan") if len(calls) > 15 else _output(state, r, dec)

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
            built.append((st, st.state.v.copy()))
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
    moved = np.abs(st.state.v - v0).max()
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
    pytest.param({"channel_profile": "fixed", "path_delays": [0, 2, 4],
                  "interferer_db": [-6.0, -3.0, 0.0, 2.0, 4.0, 6.0, 9.0]}, id="fixed")))
def test_link_matches_synthesis(change):
    # the link's received vector against the spec matrices,
    # H sum_k A_k S_k b_k on the channel's current gains, and its desired
    # signature against the signal model, symbol by symbol
    cfg = scenario("rls", runs=1, symbols=60, **change)
    link = harness._Link(cfg, np.random.default_rng(3))
    link.sigma2 = 0.0
    span = 2 * link.l_s - 1
    blocks = [build_block_matrix(code, link.l_s) for code in link.codes]
    for i in range(cfg.symbols):
        r, _, _ = link.step(i)
        chips = sum(a * (s @ bits) for a, s, bits in zip(link.amps, blocks,
                                                          link.bits[:, i:i + span]))
        expect = build_channel_matrix(link.channel.gains, cfg.n, link.l_s) @ chips
        assert np.abs(r - expect).max() <= 1e-12
        signature = signal_model.effective_signature(link.codes[0], link.channel.gains)
        assert np.abs(link.signature - signature).max() <= 1e-12


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


@pytest.mark.parametrize("alg", ("cmv-sg", "cmv-rls"))
def test_known_channel_constraint_follows_fading(alg):
    # with a known channel both blind receivers constrain DC^H w to the
    # link's current gains, symbol by symbol, under fading
    cfg = scenario(alg, runs=1, symbols=300, f_dt=1e-3)
    link = harness._Link(cfg, np.random.default_rng(23))
    _, adapt, st = harness._interpolated_receiver(cfg, link)
    dc_h = st.cons.dc.conj().T
    for i in range(cfg.symbols):
        r, b, _ = link.step(i)
        adapt(r, b)
        assert np.abs(dc_h @ st.state.w - link.channel.gains).max() <= 1e-9


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


@pytest.mark.parametrize("normalized", (True, False))
def test_pd_lms_step_follows_normalized_steps(normalized):
    # one adapt moves w by mu0 conj(xi) y, divided by ||y||^2 when normalised
    cfg = scenario("pd-lms", runs=1, symbols=10, mu0=0.05, normalized_steps=normalized)
    link = harness._Link(cfg, np.random.default_rng(4))
    rx = harness._Projected(cfg, link)
    rng = np.random.default_rng(5)
    rx.w = rng.standard_normal(rx.w.size) + 1j * rng.standard_normal(rx.w.size)
    w0 = rx.w.copy()
    r, b, _ = link.step(0)
    y = rx.proj_h @ r
    xi = b - np.vdot(w0, y)
    rx.adapt(r, b)
    step = cfg.mu0 / np.real(np.vdot(y, y)) if normalized else cfg.mu0
    np.testing.assert_allclose(rx.w - w0, step * np.conj(xi) * y, rtol=1e-12, atol=1e-15)


def test_numpy_integers_configure_a_run():
    cfg = scenario("lms", runs=np.int64(1), symbols=np.int32(40), n_tr=np.int64(10),
                   seed=np.uint32(3), channel_profile="fixed",
                   path_delays=list(np.array([0, 2, 4])))
    assert harness.run_campaign(cfg).mse.shape == (40,)
