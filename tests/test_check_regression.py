"""`benchmarks/check_regression.py` over temp dirs: what turns it red, and what does not."""

import copy
import importlib.util
import json
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/check_regression.py"
spec = importlib.util.spec_from_file_location(PATH.stem, PATH)
checker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker)

#: a table-only record (the E-series) and one with metrics, a gate and a headline
E7 = {
    "name": "e7",
    "claim": "semijoin ships less",
    "table": {
        "headers": ["strategy", "wire_bytes"],
        "rows": [["hub, ship-all", 40551], ["hub, semijoin", 551]],
    },
}
A3 = {
    "name": "a3",
    "claim": "warm beats cold",
    "table": {"headers": ["phase", "sim_total_s"], "rows": [["cold", 7.5], ["warm", 1.0]]},
    "metrics": {"warm_speedup": 8.0},
    "headline": {"metric": "warm_speedup", "direction": "up"},
    "gates": {
        "warm_speedup_5x": {
            "metric": "warm_speedup", "value": 8.0, "op": ">=", "threshold": 5.0, "pass": True,
        }
    },
    "pass": True,
}


@pytest.fixture
def run(tmp_path, capsys):
    """Write baselines and results as given, run the checker: (exit code, stderr)."""

    def run(baselines, results):
        for directory, records in (("baselines", baselines), ("results", results)):
            (tmp_path / directory).mkdir()
            for record in records:
                path = tmp_path / directory / f"{record['name']}.json"
                path.write_text(json.dumps(record))
        code = checker.main(
            ["--baselines", str(tmp_path / "baselines"), "--results", str(tmp_path / "results")]
        )
        return code, capsys.readouterr().err

    return run


def test_identical_dirs_pass(run):
    assert run([E7, A3], [E7, A3]) == (0, "")


def test_one_changed_cell_fails_and_names_experiment_and_row(run):
    moved = copy.deepcopy(E7)
    moved["table"]["rows"][1][1] = 40551
    code, err = run([E7, A3], [moved, A3])
    assert code == 1
    assert "e7.json: table row 2 moved: ['hub, semijoin', 551] -> ['hub, semijoin', 40551]" in err
    assert "a3.json" not in err


def test_every_changed_row_is_named_not_only_the_first(run):
    moved = copy.deepcopy(A3)
    moved["table"]["rows"][0][1] = 7.0
    moved["table"]["rows"][1][1] = 2.0
    code, err = run([A3], [moved])
    assert code == 1
    assert "a3.json: table row 1 moved: ['cold', 7.5] -> ['cold', 7.0]" in err
    assert "a3.json: table row 2 moved: ['warm', 1.0] -> ['warm', 2.0]" in err


def test_a_dropped_row_and_a_renamed_column_fail(run):
    shorter = copy.deepcopy(E7)
    del shorter["table"]["rows"][1]
    renamed = copy.deepcopy(A3)
    renamed["table"]["headers"][1] = "wall_s"
    code, err = run([E7, A3], [shorter, renamed])
    assert code == 1
    assert "e7.json: table has 1 rows, baseline 2" in err
    assert "a3.json: table headers ['phase', 'sim_total_s'] -> ['phase', 'wall_s']" in err


def test_a_failed_gate_fails(run):
    gates = copy.deepcopy(A3["gates"])
    gates["warm_speedup_5x"]["pass"] = False
    code, err = run([A3], [{**A3, "gates": gates}])
    assert code == 1
    assert "a3.json: gates failed: warm_speedup_5x" in err


@pytest.mark.parametrize("value, code", [(6.0, 1), (10.0, 0)])
def test_a_headline_25_percent_worse_fails_and_25_percent_better_passes(run, value, code):
    got, err = run([A3], [{**A3, "metrics": {"warm_speedup": value}}])
    assert got == code
    assert ("a3.json: headline warm_speedup regressed 25.0%" in err) == bool(code)


def test_a_baselined_experiment_with_no_fresh_result_fails(run):
    code, err = run([E7, A3], [A3])
    assert code == 1
    assert "e7.json: no fresh result" in err


def test_a_fresh_result_with_no_baseline_fails(run):
    code, err = run([A3], [E7, A3])
    assert code == 1
    assert "e7.json: fresh result has no baseline" in err
