import json

import pytest

from cbtk.bounds import BoundReport, best_threshold
from cbtk.cli import main
from cbtk.lpp import AciParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_table(capsys):
    code, out, _ = run(capsys, "threshold", "-d", "4,4,4,10", "-D", "4")
    assert code == 0
    assert "threshold:       532" in out
    assert "delta2" in out and "520" in out


def test_threshold_json_round_trip(capsys):
    code, out, _ = run(capsys, "threshold", "-d", "4,4,4,10", "-D", "4", "--json")
    assert code == 0
    data = json.loads(out)
    report = best_threshold(AciParams((4, 4, 4, 10), 4))
    assert BoundReport.from_dict(data) == report
    assert data["threshold"] == 532
    assert data["egh_conjectural"] == 520
    assert data["selected_tag"] == "delta2"
    assert [b["tag"] for b in data["bounds"]] == [
        "codim3", "delta2", "symmetric", "phi_chain", "engheta_hmmcs"]


def test_threshold_table_and_json_agree(capsys):
    code, table_out, _ = run(capsys, "threshold", "-d", "3,3,3", "-D", "3")
    assert code == 0
    code, json_out, _ = run(capsys, "threshold", "-d", "3,3,3", "-D", "3", "--json")
    data = json.loads(json_out)
    assert data["threshold"] == 22 and data["selected_tag"] == "codim3"
    assert "threshold:       22" in table_out
    for b in data["bounds"]:
        if b["applicable"]:
            assert str(b["value"]) in table_out


def test_threshold_usage_errors(capsys):
    code, _, err = run(capsys, "threshold", "-d", "2,2", "-D", "5")
    assert code == 2 and "sigma" in err
    code, _, err = run(capsys, "threshold", "-d", "2,x", "-D", "1")
    assert code == 2
    code, _, err = run(capsys, "threshold", "-d", "2,0", "-D", "1")
    assert code == 2


def test_degrees_sorted_with_notice(capsys):
    code, out, err = run(capsys, "threshold", "-d", "10,4,4,4", "-D", "4", "--json")
    assert code == 0
    assert "sorted" in err
    assert json.loads(out)["degrees"] == [4, 4, 4, 10]


def test_lpp_command(capsys):
    code, out, _ = run(capsys, "lpp", "-d", "4,4,4", "-D", "4")
    assert code == 0
    assert "x1^3*x2" in out and "(1, 3, 4)" in out and "52" in out
    code, out, _ = run(capsys, "lpp", "-d", "2,2", "-D", "3")
    assert code == 0
    assert "x1*x2*x3" in out and "predicted multiplicity: 3" in out
    code, out, _ = run(capsys, "lpp", "-d", "3,3,3", "-D", "3", "--json")
    data = json.loads(out)
    assert data["c"] == [1, 2, 3] and data["multiplicity"] == 21


def test_hilbert_command(capsys):
    code, out, _ = run(capsys, "hilbert", "--ideal", "x1^2,x2^2,x3^2,x1*x2",
                       "-n", "3", "--up-to", "4", "--csv")
    assert code == 0
    assert out.splitlines() == ["degree,value", "0,1", "1,3", "2,2", "3,0", "4,0"]
    code, out, _ = run(capsys, "hilbert", "--ideal", "", "-n", "2", "--up-to", "3")
    assert code == 0 and "1,2,3,4" in out
    code, out, _ = run(capsys, "hilbert", "--ideal", "1", "-n", "2", "--up-to", "3", "--json")
    assert json.loads(out)["values"] == [0, 0, 0, 0]
    code, _, err = run(capsys, "hilbert", "--ideal", "x1^2,y", "-n", "2", "--up-to", "3")
    assert code == 2


def test_verify_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "--mode", "exhaustive", "-d", "3,3,3", "-D", "3")
    assert code == 0
    assert "21" in out
    code, out, _ = run(capsys, "verify", "--mode", "exhaustive", "-d", "3,3,3", "-D", "3", "--json")
    data = json.loads(out)
    assert data["max_multiplicity"] == data["lpp_multiplicity"] == 21
    assert "x1^2*x2" in data["maximizers"]


def test_verify_random(capsys):
    code, out, _ = run(capsys, "verify", "--mode", "random", "-d", "2,2,2", "-D", "2",
                       "-n", "3", "-p", "101", "--trials", "25", "--seed", "42", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0 and data["attempted"] == 25
    assert data["seed"] == 42


def test_verify_bad_config(capsys):
    code, _, err = run(capsys, "verify", "--mode", "random", "-d", "2,2,2", "-D", "2",
                       "--trials", "-1")
    assert code == 2 and "trials" in err
    code, _, err = run(capsys, "verify", "--mode", "random", "-d", "2,2,2", "-D", "9")
    assert code == 2


def test_verify_piece_cap_exits_2(capsys, monkeypatch):
    # a resource limit is a usage-level exit, not a check failure
    monkeypatch.setenv("CB_MAX_DIM", "50")
    code, out, err = run(capsys, "verify", "--mode", "random", "-d", "3,3,3", "-D", "3",
                         "-n", "4")
    assert code == 2 and out == ""
    assert "cap 50" in err and "CB_MAX_DIM" in err and "Traceback" not in err


def test_hilbert_recursion_limit_exits_2(capsys):
    code, out, err = run(capsys, "hilbert", "--ideal", "x1^2000", "-n", "2", "--up-to", "1500")
    assert code == 2 and out == ""
    assert "recursion limit" in err and "Traceback" not in err


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_verify_bad_max_dim_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("CB_MAX_DIM", raw)
    code, _, err = run(capsys, "verify", "--mode", "random", "-d", "2,2,2", "-D", "2",
                       "--trials", "1")
    assert code == 2
    assert err == f"error: CB_MAX_DIM must be an integer >= 1, got {raw!r}\n"


def test_reproduce(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "FAIL" not in out
    assert "threshold(4,4,4,10;4)" in out
    code, out, _ = run(capsys, "reproduce", "--json")
    data = json.loads(out)
    assert data["mismatches"] == 0
    assert all(row["ok"] for row in data["rows"])


def test_usage_exit_code_is_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
