import json

import pytest

from curvemul import cli
from curvemul.cli import main
from curvemul.function_field import best_stat_curves


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compare_table(capsys):
    code, out = run(capsys, "compare-table")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "q,cor_iv8,prop3,winner"
    assert lines[1] == "5,4.80,6.00,cor_iv8"
    assert lines[6] == "13,3.59,3.60,cor_iv8"
    assert any(line.startswith("# crossover q=15") for line in lines)


def test_construct_and_verify_round_trip(tmp_path, capsys):
    out_file = str(tmp_path / "f.json")
    code, out = run(capsys, "construct", "--q", "4", "--n", "4", "--genus", "1",
                    "--out", out_file)
    assert code == 0
    assert "rank=8" in out and "method=theorem2-case1" in out and "verified=exhaustive" in out
    code, out = run(capsys, "verify", "--file", out_file)
    assert code == 0 and "status=ok" in out and "pairs=65536" in out


def test_construct_case3_flag(tmp_path, capsys):
    out_file = str(tmp_path / "f23.json")
    code, out = run(capsys, "construct", "--q", "2", "--n", "3", "--genus", "0",
                    "--allow-degree2", "--out", out_file)
    assert code == 0 and "rank=6" in out
    # without the flag the hypotheses are unsatisfiable
    code, out = run(capsys, "construct", "--q", "2", "--n", "3", "--genus", "0")
    assert code == 2 and "status=infeasible" in out


def test_construct_infeasible_exit2(capsys):
    code, out = run(capsys, "construct", "--q", "2", "--n", "9")
    assert code == 2 and "status=infeasible" in out


def test_verify_detects_tampering(tmp_path, capsys):
    out_file = str(tmp_path / "f.json")
    assert run(capsys, "construct", "--q", "2", "--n", "2", "--out", out_file)[0] == 0
    data = json.loads(open(out_file).read())
    term = data["terms"][0]
    term["c"] = (term["c"] + 1) % 4
    with open(out_file, "w") as fh:
        json.dump(data, fh)
    code, out = run(capsys, "verify", "--file", out_file)
    assert code == 1 and "status=fail" in out and "failure=(" in out


def test_verify_malformed_file_exit3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "verify", "--file", str(bad))
    assert code == 3
    code, out = run(capsys, "verify", "--file", str(tmp_path / "missing.json"))
    assert code == 3


def test_verify_wrong_json_types_exit3(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert run(capsys, "construct", "--q", "2", "--n", "2", "--out", str(good))[0] == 0
    data = json.loads(good.read_text())
    data["terms"] = 5
    for doc in ({"p": "x"}, [], data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--file", str(bad))
        assert code == 3 and "status=bad-input" in out, doc


def test_bound_command(tmp_path, capsys):
    cert_file = str(tmp_path / "cert.json")
    code, out = run(capsys, "bound", "--q", "2", "--n", "4", "--out", cert_file)
    assert code == 0 and "value=9" in out and "method=composition" in out
    cert = json.loads(open(cert_file).read())
    assert cert["value"] == 9
    assert [c["value"] for c in cert["children"]] == [3, 3]


def test_asym_command(capsys):
    code, out = run(capsys, "asym", "--q", "25")
    assert code == 0
    assert "source=Prop2 value=3" in out
    code, out = run(capsys, "asym", "--q", "5", "--tmax", "2")
    assert code == 0 and "source=Eq5-suppressed" in out and "source=Eq5" in out


def test_curves_command(capsys):
    code, out = run(capsys, "curves", "--q", "2", "--min-n1", "5")
    assert code == 0
    assert all(line.split(",")[4] == "5" for line in out.strip().splitlines())
    code, out = run(capsys, "curves", "--q", "2", "--min-n1", "6")
    assert code == 0 and out.strip() == ""
    code, out = run(capsys, "curves", "--q", "4", "--genus", "0")
    assert code == 0 and out.strip() == "2,4,,0,5,6"


def test_curves_without_rows_prints_nothing(capsys):
    # the rows go out in one write, and no rows write nothing, not a newline
    code, out = run(capsys, "curves", "--q", "4", "--min-n1", "100")
    assert code == 0 and out == ""


def test_brute_rank_command(capsys):
    code, out = run(capsys, "brute-rank", "--q", "2", "--n", "2", "--max", "4")
    assert code == 0 and "rank=3" in out
    code, out = run(capsys, "brute-rank", "--q", "2", "--n", "2", "--max", "2")
    assert code == 0 and "rank_gt=2" in out


def test_bad_input_exit3(capsys):
    assert run(capsys, "construct", "--q", "6", "--n", "2")[0] == 3   # not a prime power
    assert run(capsys, "construct", "--q", "2", "--n", "25")[0] == 3  # q^n over budget
    assert run(capsys, "nonsense")[0] == 3
    assert run(capsys, "construct", "--q", "4", "--n", "2", "--curve", "1,2")[0] == 3
    assert run(capsys, "bound", "--q", "2", "--n", "0")[0] == 3
    assert run(capsys, "bound", "--q", "2", "--n", "-3")[0] == 3
    assert run(capsys, "bound", "--q", "2", "--n", "4", "--depth", "-1")[0] == 3


def test_construct_with_explicit_curve(capsys):
    code, out = run(capsys, "construct", "--q", "4", "--n", "4",
                    "--curve", "0,0,1,0,0")
    assert code == 0 and "rank=8" in out
    code, out = run(capsys, "construct", "--q", "4", "--n", "4", "--genus", "1",
                    "--curve", "0,0,1,0,0")
    assert code == 0 and "rank=8" in out


@pytest.mark.parametrize("selectors", [
    ("--genus", "0", "--curve", "0,0,1,0,0"),
    ("--genus", "0", "--catalog-index", "0"),
    ("--curve", "0,0,1,0,0", "--catalog-index", "0"),
])
def test_construct_conflicting_curve_selectors_exit3(capsys, selectors):
    code, out = run(capsys, "construct", "--q", "4", "--n", "2", *selectors)
    assert code == 3 and "status=bad-input" in out


def test_construct_searches_genus1_only_after_genus0_fails(capsys, monkeypatch):
    calls = []

    def counting(field):
        calls.append(field.size)
        return best_stat_curves(field)
    monkeypatch.setattr(cli, "best_stat_curves", counting)
    code, out = run(capsys, "construct", "--q", "64", "--n", "3")
    assert (code, calls) == (0, [])
    assert run(capsys, "construct", "--q", "64", "--n", "3", "--genus", "0") == (code, out)
    # case 1 and case 3 both try the genus-1 curves; they are searched once
    code, out = run(capsys, "construct", "--q", "2", "--n", "5", "--allow-degree2")
    assert code == 2 and calls == [2] and out.count("genus1") == 4


def test_construct_catalog_index(capsys):
    code, out = run(capsys, "construct", "--q", "4", "--n", "4", "--catalog-index", "0")
    assert code == 0 and "rank=8" in out


def test_sampled_pairs_below_one_exit3(tmp_path, capsys):
    f22 = str(tmp_path / "f22.json")
    assert run(capsys, "construct", "--q", "2", "--n", "2", "--out", f22)[0] == 0
    code, out = run(capsys, "verify", "--file", f22, "--mode", "sampled", "--pairs", "-5")
    assert code == 3 and "status=bad-input" in out
    code, out = run(capsys, "construct", "--q", "16", "--n", "3", "--mode", "sampled",
                    "--pairs", "0")
    assert code == 3 and "status=bad-input" in out
    code, out = run(capsys, "construct", "--q", "16", "--n", "3", "--pairs", "0")  # auto
    assert code == 3 and "status=bad-input" in out
    code, out = run(capsys, "verify", "--file", f22, "--pairs", "0")  # auto -> exhaustive
    assert code == 0 and "mode=exhaustive" in out


def test_asym_negative_tmax_exit3(capsys):
    code, out = run(capsys, "asym", "--q", "4", "--tmax", "-1")
    assert code == 3 and "status=bad-input" in out


def test_brute_rank_max_below_one_exit3(capsys):
    code, out = run(capsys, "brute-rank", "--q", "2", "--n", "2", "--max", "0")
    assert code == 3 and "status=bad-input" in out and "rank_gt" not in out


def test_search_budgets_exit3(capsys):
    # the curve search stops at q = 64, whichever subcommand reaches it
    code, out = run(capsys, "construct", "--q", "128", "--n", "2", "--catalog-index", "0")
    assert code == 3 and "status=bad-input" in out and "q <= 64" in out
    code, out = run(capsys, "curves", "--q", "128")
    assert code == 3 and "status=bad-input" in out
    code, out = run(capsys, "brute-rank", "--q", "2", "--n", "3", "--max", "6")
    assert code == 3 and "status=bad-input" in out


def test_tensor_mode(tmp_path, capsys):
    f = str(tmp_path / "f165.json")
    code, out = run(capsys, "construct", "--q", "16", "--n", "5", "--mode", "tensor",
                    "--out", f)
    assert code == 0 and "verified=tensor pairs=15 seed=0" in out
    code, out = run(capsys, "verify", "--file", f, "--mode", "tensor")
    assert code == 0 and "status=ok" in out and "mode=tensor pairs=15 seed=0" in out
    # the parser is shared between calls, but no option value carries over
    code, out = run(capsys, "verify", "--file", f, "--pairs", "7")
    assert code == 0 and "mode=sampled pairs=7 seed=0" in out
    data = json.loads(open(f).read())
    data["terms"][0]["c"] ^= 1
    with open(f, "w") as fh:
        json.dump(data, fh)
    code, out = run(capsys, "verify", "--file", f, "--mode", "tensor")
    assert code == 1 and "status=fail" in out and "mode=tensor" in out and "failure=(" in out


def test_construct_negative_seed_exit3_before_building(capsys, monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("construct built a formula for a bad seed")

    monkeypatch.setattr(cli.ccma, "construct_case1", never)
    code, out = run(capsys, "construct", "--q", "4", "--n", "2", "--seed", "-3")
    assert code == 3 and out == ("status=bad-input "
                                 "detail=seed must be a non-negative int, got -3\n")


def test_verify_negative_seed_exit3(tmp_path, capsys):
    # --seed -3 would draw the pairs of --seed 3 and report seed=-3
    f = str(tmp_path / "f42.json")
    assert run(capsys, "construct", "--q", "4", "--n", "2", "--out", f)[0] == 0
    code, out = run(capsys, "verify", "--file", f, "--mode", "sampled", "--seed", "-3")
    assert code == 3 and out.startswith("status=bad-input") and "seed" in out
    code, out = run(capsys, "verify", "--file", f, "--mode", "sampled", "--seed", "3")
    assert code == 0 and "seed=3" in out


@pytest.mark.parametrize("argv", [
    ("construct", "--q", "2", "--n", "2"),
    ("bound", "--q", "2", "--n", "2"),
    ("compare-table",),
])
def test_unwritable_out_exit3(tmp_path, capsys, argv):
    # a missing directory and a directory in place of a file are bad input,
    # not a traceback (which would exit 1, the verify-failure code)
    for out_path in (tmp_path / "missing" / "f.json", tmp_path):
        code, out = run(capsys, *argv, "--out", str(out_path))
        assert code == 3 and out.startswith("status=bad-input"), (out_path, out)


def test_verify_deeply_nested_file_exit3(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    code, out = run(capsys, "verify", "--file", str(deep))
    assert code == 3 and "status=bad-input" in out
