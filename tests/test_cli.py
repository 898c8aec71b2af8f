import json

import numpy as np

from ifir_cdma import cli


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def run(tmp_path, config_path):
    out = tmp_path / "out.json"
    code = cli.main(["--config", str(config_path), "--out", str(out), "--format", "json"])
    return code, out


def test_small_scenario_exits_zero(tmp_path):
    cfg = write_config(tmp_path, {"algorithm": "lms", "runs": 1, "symbols": 60, "n_tr": 20})
    code, out = run(tmp_path, cfg)
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["series"]["mse"]) == 60
    assert doc["metadata"]["algorithm"] == "lms"


def test_unknown_field_exits_two(tmp_path):
    code, out = run(tmp_path, write_config(tmp_path, {"algorithm": "lms", "bogus": 1}))
    assert code == 2
    assert not out.exists()


def test_missing_file_exits_two(tmp_path):
    code, _ = run(tmp_path, tmp_path / "absent.json")
    assert code == 2


def test_non_object_json_exits_two(tmp_path):
    code, _ = run(tmp_path, write_config(tmp_path, [1, 2, 3]))
    assert code == 2


def test_numerical_failure_exits_three(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(cli, "run_campaign", fail)
    code, out = run(tmp_path, write_config(tmp_path, {"algorithm": "lms", "runs": 1}))
    assert code == 3
    assert not out.exists()


def test_seed_and_runs_overrides_reach_export(tmp_path):
    cfg = write_config(tmp_path, {"algorithm": "rls", "runs": 1, "symbols": 40,
                                  "n_tr": 10, "seed": 1})
    out = tmp_path / "out.json"
    code = cli.main(["--config", str(cfg), "--out", str(out), "--format", "json",
                     "--seed", "11", "--runs", "2"])
    assert code == 0
    meta = json.loads(out.read_text())["metadata"]
    assert (meta["seed"], meta["run_seed"]) == (11, 11)
    assert (meta["runs"], meta["runs_averaged"]) == (2, 2)


def test_zero_decision_run_reports_no_ber(tmp_path, capsys):
    code, _ = run(tmp_path, write_config(tmp_path, {"algorithm": "lms", "runs": 1,
                                                    "symbols": 100}))
    assert code == 0
    captured = capsys.readouterr()
    assert "BER n/a" in captured.out
    assert "n_tr=200" in captured.err and "symbols=100" in captured.err


def test_blind_run_reports_ber(tmp_path, capsys):
    code, _ = run(tmp_path, write_config(tmp_path, {"algorithm": "cmv-sg", "mode": "blind",
                                                    "runs": 1, "symbols": 100}))
    assert code == 0
    captured = capsys.readouterr()
    assert "BER n/a" not in captured.out and "BER " in captured.out
    assert captured.err == ""
