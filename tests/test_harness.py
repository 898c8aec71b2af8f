import csv
import json

import numpy as np
import pytest

from ifir_cdma import adaptive, harness, signal_model

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
    mode = "blind" if alg.startswith("cmv") else "training"
    return harness.ScenarioConfig(algorithm=alg, mode=mode, **kw)


@pytest.mark.parametrize("alg", harness.ALGORITHMS)
def test_seeded_campaign_pins(alg):
    cfg = scenario(alg, runs=2, symbols=400, seed=5)
    s = harness.run_campaign(cfg)
    sm = s.summary()
    got = (sm["final_mse"], sm["final_sinr_db"], sm["final_ber"],
           s.sinr_db[cfg.n_tr], s.sinr_db[-1], s.ber[-1])
    np.testing.assert_allclose(got, PINS[alg], rtol=1e-12, atol=0)


def test_worker_count_does_not_change_results():
    cfg = scenario("rls", runs=3, symbols=150, seed=9)
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


def test_static_link_matches_synthesis():
    cfg = scenario("rls", runs=1, symbols=60)
    link = harness._Link(cfg, np.random.default_rng(3))
    link.sigma2 = 0.0
    span = 2 * link.l_s - 1
    for i in range(cfg.symbols):
        r, _, _ = link.step(i)
        frame = signal_model.SymbolFrame(bits=link.bits[:, i:i + span], amplitudes=link.amps)
        expect = signal_model.synthesize_received(
            link.spreading, link.channel, frame, 0.0, np.random.default_rng(0))
        assert np.abs(r - expect).max() <= 1e-12


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
