"""The compare mode of ``_parity_sweep.py``: value changes are counted by
function, refusal changes are listed one by one and make the exit code 1.
Its independence mode lists the groups whose outcome differs by error mode
or by store state, and any makes the exit code 1."""

import json

import pytest

import _parity_sweep

VALUE = [{"type": "float", "shape": [], "sha256": "a", "writeable": False}]
REFUSED = {"refused": "DomainError", "message": "k4: negative or NaN rate"}


def record(case, outcome, tau=1.0, mode="ignore", state="cold"):
    return {"case": case, "tau": tau, "mode": mode, "state": state, "outcome": outcome}


def write(path, records):
    path.write_text(json.dumps(records))
    return str(path)


def test_identical_files_compare_clean(tmp_path, capsys):
    old = write(tmp_path / "old.json", [record("c6 p 0.05", VALUE), record("k4 p nan", REFUSED)])
    assert _parity_sweep.main(["--compare", old, old]) == 0
    assert capsys.readouterr().out == "0 of 2 records changed value bits\n0 records changed refusal\n"


def test_changed_values_are_counted_and_changed_refusals_listed(tmp_path, capsys):
    other = [{**VALUE[0], "sha256": "b"}]
    old = write(tmp_path / "old.json", [record("c6 p 0.05", VALUE), record("c6 p grid", VALUE),
                                        record("c5 p 0.05", VALUE), record("k4 p nan", REFUSED)])
    new = write(tmp_path / "new.json", [record("c6 p 0.05", other), record("c6 p grid", other),
                                        record("c5 p 0.05", VALUE), record("k4 p nan", VALUE)])
    assert _parity_sweep.main(["--compare", old, new]) == 1
    assert capsys.readouterr().out == (
        "2 of 4 records changed value bits\n  c6: 2\n1 records changed refusal\n"
        f"  k4 p nan | 1.0 | ignore | cold: {REFUSED} -> {VALUE}\n")


def test_files_of_other_cases_are_refused(tmp_path):
    old = write(tmp_path / "old.json", [record("c6 p 0.05", VALUE)])
    new = write(tmp_path / "new.json", [record("c6 p 0.05", VALUE, tau=2.0)])
    with pytest.raises(SystemExit, match="different cases"):
        _parity_sweep.main(["--compare", old, new])


def test_outcomes_that_differ_by_mode_or_state_are_listed(tmp_path, capsys):
    same = [record("c6 p 0.05", VALUE, mode=mode, state=state)
            for mode in ("ignore", "raise") for state in ("cold", "warm")]
    assert _parity_sweep.main(["--independence", write(tmp_path / "same.json", same)]) == 0
    assert capsys.readouterr().out == ("0 (case, tau, state) groups differ by error mode\n"
                                       "0 (case, tau, mode) groups differ by store state\n")
    differ = same[:3] + [record("c6 p 0.05", REFUSED, mode="raise", state="warm")]
    assert _parity_sweep.main(["--independence", write(tmp_path / "differ.json", differ)]) == 1
    assert capsys.readouterr().out == (
        "1 (case, tau, state) groups differ by error mode\n  c6 p 0.05 | 1.0 | warm\n"
        "1 (case, tau, mode) groups differ by store state\n  c6 p 0.05 | 1.0 | raise\n")
