"""Each experiment script's `main(argv)` at tiny sizes, so a library API
change cannot silently break the scripts."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_equivalence_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert load("equivalence_sweep").main(["--count", "4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 8
    assert all(row["agree"] == "True" for row in rows)


def test_scaling_function_sweep(tmp_path):
    out = tmp_path / "phi.csv"
    assert load("scaling_function_sweep").main(["--points", "5", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 5
    assert max(float(row["error_Jmax"]) for row in rows) < 1e-9


def test_fock_level_table(capsys):
    assert load("fock_level_table").main(["--levels", "2"]) == 0
    text = capsys.readouterr().out
    assert "instance: cuntz" in text and "instance: collapse" in text


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.stem)
def test_every_script_is_covered(path):
    assert f"test_{path.stem}" in globals()
