import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ifir_cdma import cli, harness


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def run(tmp_path, config_path):
    out = tmp_path / "out.json"
    code = cli.main(["--config", str(config_path), "--out", str(out), "--format", "json"])
    return code, out


def run_module(tmp_path, doc):
    """`python -m ifir_cdma` on a scenario, in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ifir_cdma", "--config", str(write_config(tmp_path, doc)),
         "--out", str(out), "--format", "json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    return proc, out


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


@pytest.mark.parametrize("raw", [
    pytest.param('{"algorithm": "lms", "caf\xe9": 1}'.encode("latin-1"), id="latin-1-key"),
    pytest.param(b"\xff\xfe" + '{"algorithm": "lms"}'.encode("utf-16-le"), id="utf-16-bom"),
])
def test_config_not_utf8_exits_two(tmp_path, capsys, raw):
    path = tmp_path / "scenario.json"
    path.write_bytes(raw)
    code, out = run(tmp_path, path)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_three(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(cli, "run_campaign", fail)
    code, out = run(tmp_path, write_config(tmp_path, {"algorithm": "lms", "runs": 1}))
    assert code == 3
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy's overflow warnings come first
@pytest.mark.parametrize("doc", [
    {"algorithm": "lms", "normalized_steps": False, "mu0": 1.5, "eta0": 0.5},
    {"algorithm": "pd-lms", "normalized_steps": False, "mu0": 0.5},
    # the a-priori errors stay finite; the last a-posteriori output overflows
    {"algorithm": "lms", "normalized_steps": False, "mu0": 1.5, "eta0": 0.5, "symbols": 7,
     "n_tr": 7, "seed": 2},
])
def test_diverging_run_exits_three(tmp_path, capsys, doc):
    code, out = run(tmp_path, write_config(tmp_path, {"runs": 1, "symbols": 2000, "n_tr": 200,
                                                      **doc}))
    assert code == 3
    assert not out.exists()
    assert "diverged" in capsys.readouterr().err


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


@pytest.mark.parametrize("doc", [
    {"algorithm": "lms", "interpolator_init": "bogus"},
    {"algorithm": "rake", "interpolator_init": "bogus"},
    {"algorithm": "cmv-rls", "mode": "blind", "alpha": 1.0},
    {"algorithm": "lms", "path_delays": [0, 3, 9]},
    {"algorithm": "lms", "path_delays": [0, 2]},
    {"algorithm": "lms", "path_powers": [1.0, 0.5, 0.3, 0.2]},
    {"algorithm": "lms", "l_p": 5, "runs": 10, "seed": 1},
    {"algorithm": "lms", "path_powers": [0, 0, 0]},
    {"algorithm": "lms", "path_powers": [1.0, -0.5, 0.3]},
    {"algorithm": "lms", "path_powers": [1.0, float("inf"), 0.3]},
    {"algorithm": "lms", "path_powers": [1.0, float("nan"), 0.3]},
    {"algorithm": "lms", "path_powers": [1.0, "strong", 0.3]},
    {"algorithm": "lms", "f_dt": -0.01},
    {"algorithm": "lms", "f_dt": float("nan")},
    {"algorithm": "lms", "f_dt": 0.5},
    {"algorithm": "lms", "f_dt": 0.7},
    {"algorithm": "lms", "ebn0_db": float("nan")},
    {"algorithm": "lms", "ebn0_db": float("inf")},
    {"algorithm": "lms", "interferer_db": [0.0] * 6 + [float("nan")]},
    {"algorithm": "lms", "interferer_db": [0.0] * 6 + [float("inf")]},
    {"algorithm": "lms", "interferer_db": [0.0] * 6 + ["loud"]},
    {"algorithm": "lms", "interferer_sigma_db": float("nan")},
    {"algorithm": "lms", "interferer_sigma_db": -1.0},
    {"algorithm": "lms", "mu0": float("nan")},
    {"algorithm": "lms", "mu0": -0.5},
    {"algorithm": "lms", "eta0": 0.0},
    {"algorithm": "lms", "eta0": float("inf")},
    {"algorithm": "rls", "delta": -1},
    {"algorithm": "rls", "delta": 0},
    {"algorithm": "lms", "runs": 1.0, "n_tr": 10},
    {"algorithm": "lms", "symbols": 50.5, "n_tr": 10},
    {"algorithm": "lms", "n_i": 2.0},
    {"algorithm": "lms", "k": 2.0},
    {"algorithm": "lms", "n_tr": 10.5},
    {"algorithm": "pd-lms", "pd_rank": 4.0},
    {"algorithm": "lms", "seed": 1.5},
    {"algorithm": "lms", "seed": -1},
    {"algorithm": "lms", "runs": True},
    {"algorithm": "lms", "freeze_interpolator": "false"},
    {"algorithm": "lms", "normalized_steps": "no"},
    {"algorithm": "cmv-sg", "mode": "blind", "known_channel": "false"},
    {"algorithm": "lms", "path_delays": [0, 1.5, 3]},
    {"algorithm": "lms", "path_delays": [0, True, 3]},
    {"algorithm": "lms", "interferer_db": [0.0] * 7, "interferer_sigma_db": 3.0},
    {"algorithm": "lms", "path_delays": [0, 0, 2]},
    {"algorithm": "lms", "ebn0_db": -1e308},
    {"algorithm": "lms", "path_powers": [1e200, 1, 1]},
    {"algorithm": "lms", "path_powers": [1e-200, 0, 0]},
    # log-normal spreads whose amplitudes overflow
    {"algorithm": "lms", "interferer_sigma_db": 1e10},
    {"algorithm": "lms", "interferer_sigma_db": 1e300},
    # wrongly typed or overflowing values
    {"algorithm": "lms", "path_powers": "123"},
    {"algorithm": "lms", "interferer_db": "1234567"},
    {"algorithm": "lms", "interferer_db": [7000, 0, 0, 0, 0, 0, 0]},
    {"algorithm": "lms", "mu0": True},
    {"algorithm": "rls", "alpha": True},
    {"algorithm": "lms", "path_powers": [1.0, True, 0.3]},
    {"algorithm": "lms", "interferer_db": [0.0] * 6 + [False]},
    # one input per remaining `validate` branch
    {"algorithm": "lms", "n": 15},
    {"algorithm": "lms", "k": 0},
    {"algorithm": "lms", "k": 34},
    {"algorithm": "lms", "l_p": 0},
    {"algorithm": "lms", "l": 0},
    {"algorithm": "lms", "n_i": 0},
    {"algorithm": "lms", "symbols": 0},
    {"algorithm": "lms", "runs": 0},
    {"algorithm": "lms", "l": 37},
    {"algorithm": "lms", "l": 4, "n_i": 10},
    {"algorithm": "mmse"},
    {"algorithm": "lms", "mode": "supervised"},
    {"algorithm": "cmv-sg", "mode": "training"},
    {"algorithm": "lms", "mode": "blind"},
    {"algorithm": "rls", "alpha": 0.0},
    {"algorithm": "rls", "alpha": 1.5},
    {"algorithm": "lms", "n_tr": -1},
    {"algorithm": "lms", "mode": "decision-directed", "n_tr": 61},
    {"algorithm": "lms", "interferer_db": [0.0] * 3},
    {"algorithm": "pd-lms", "pd_rank": 0},
    {"algorithm": "pd-rls", "pd_rank": 37},
    # a RAKE without training symbols has no combiner
    {"algorithm": "rake", "runs": 1, "symbols": 300, "n_tr": 0},
])
def test_invalid_scenario_exits_two(tmp_path, capsys, doc):
    code, out = run(tmp_path, write_config(tmp_path, {"runs": 1, "symbols": 60, **doc}))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ifir-cdma: configuration error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("l", (2, 3, 4, 5, 6, 7, 8))
@pytest.mark.parametrize("alg", ("cmv-sg", "cmv-rls"))
def test_blind_geometries_with_full_rank_constraints_run(tmp_path, alg, l):
    # one constraint on p = C g needs no rank from the l_p decimated
    # shifts, so L = 6..8 (rank 5 at N=31, l_p=6) run as well
    code, _ = run(tmp_path, write_config(tmp_path, {"algorithm": alg, "mode": "blind",
                                                    "l": l, "runs": 1, "symbols": 20}))
    assert code == 0


def test_widest_interferer_spread_runs(tmp_path):
    code, out = run(tmp_path, write_config(tmp_path, {"algorithm": "lms", "runs": 1,
                                                      "symbols": 60, "n_tr": 20,
                                                      "interferer_sigma_db": 80.0}))
    assert code == 0 and out.exists()


def test_unwritable_output_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"algorithm": "lms", "runs": 1, "symbols": 20, "n_tr": 10})
    out = tmp_path / "missing" / "out.json"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ifir-cdma: cannot write output:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("workers", ("0", "-2"))
def test_workers_below_one_exits_two(tmp_path, workers):
    cfg = write_config(tmp_path, {"algorithm": "lms", "runs": 1, "symbols": 60})
    out = tmp_path / "out.json"
    assert cli.main(["--config", str(cfg), "--out", str(out), "--workers", workers]) == 2
    assert not out.exists()


@pytest.mark.parametrize("doc, decided", [
    ({"algorithm": "lms", "runs": 1, "symbols": 100}, 0),
    ({"algorithm": "lms", "runs": 1, "symbols": 100, "n_tr": 30}, 70),
    ({"algorithm": "cmv-sg", "mode": "blind", "runs": 1, "symbols": 100}, 100),
])
def test_export_counts_decided_symbols(tmp_path, doc, decided):
    code, out = run(tmp_path, write_config(tmp_path, doc))
    assert code == 0
    exported = json.loads(out.read_text())
    assert exported["metadata"]["decided"] == decided
    assert (exported["summary"]["final_ber"] is None) == (decided == 0)


def test_module_runs_a_scenario(tmp_path):
    proc, out = run_module(tmp_path, {"algorithm": "lms", "runs": 1, "symbols": 60, "n_tr": 20})
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["series"]["ber"]) == 60


@pytest.mark.parametrize("doc", [
    {"algorithm": "lms", "bogus": 1},
    {"algorithm": "lms", "path_delays": [0, 0, 2]},
    {"algorithm": "lms", "ebn0_db": -1e308},
    {"algorithm": "lms", "path_powers": [1e200, 1, 1]},
    {"algorithm": "lms", "path_powers": "123"},
    {"algorithm": "lms", "interferer_db": [7000, 0, 0, 0, 0, 0, 0]},
    {"algorithm": "lms", "interferer_sigma_db": 1e300},
    {"algorithm": "lms", "ebn0_db": 10 ** 400},
    {"algorithm": "lms", "mu0": 10 ** 400},
    {"algorithm": "lms", "path_powers": [10 ** 400, 1, 1]},
    {"algorithm": "lms", "path_powers": [10 ** 300, 1, 1]},
    {"algorithm": "lms", "runs": 10 ** 20},
    {"algorithm": "lms", "symbols": 10 ** 20},
    # a chip stream of these lengths needs more bytes than numpy can size
    {"algorithm": "lms", "symbols": int(np.iinfo(np.intp).max)},
    {"algorithm": "lms", "symbols": 2 ** 62},
    {"algorithm": "lms", "symbols": 2 ** 60},
], ids=("unknown-field", "repeated-delays", "ebn0-overflow", "power-overflow",
        "powers-string", "interferer-overflow", "sigma-overflow", "ebn0-huge-int",
        "mu0-huge-int", "power-huge-int", "power-square-huge-int", "runs-huge-int",
        "symbols-huge-int", "symbols-intp-max", "symbols-2^62", "symbols-2^60"))
def test_module_config_error_exits_two(tmp_path, doc):
    proc, out = run_module(tmp_path, {"runs": 1, "symbols": 60, **doc})
    assert proc.returncode == 2
    assert not out.exists()
    assert proc.stderr.startswith("ifir-cdma: configuration error:")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_cli_import_loads_no_theory_module():
    # the program path (cli -> harness -> adaptive/cmv) needs neither the
    # batch MMSE design nor the convergence analysis, nor the process
    # pool that only a campaign with workers > 1 starts
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ifir_cdma.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith(('ifir_cdma', 'concurrent.futures'))))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert "ifir_cdma.cli" in loaded
    assert "ifir_cdma.mmse" not in loaded and "ifir_cdma.analysis" not in loaded
    assert "concurrent.futures.process" not in loaded


def test_module_diverging_run_exits_three(tmp_path):
    proc, out = run_module(tmp_path, {"algorithm": "lms", "normalized_steps": False,
                                      "mu0": 1.5, "eta0": 0.5, "runs": 1, "symbols": 2000,
                                      "n_tr": 200})
    assert proc.returncode == 3
    assert not out.exists()
    assert "diverged" in proc.stderr and "Traceback" not in proc.stderr


def test_readme_documents_every_field_and_flag():
    # each scenario field has a row with its JSON default; each long flag is named
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    defaults = harness.ScenarioConfig().to_dict()
    missing = [name for name, value in defaults.items()
               if f"| `{name}` | `{json.dumps(value)}` |" not in readme]
    flags = set(re.findall(r"--[a-z]+", cli.build_parser().format_help()))
    missing += [flag for flag in sorted(flags) if f"`{flag}" not in readme]
    assert not missing
