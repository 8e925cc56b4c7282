import multiprocessing
import os
import sys
import time
from pathlib import Path

import pytest

from domcount import cli
from domcount.cli import main, sci4
from domcount.family import closed_form_count
from domcount.limits import oracle_max_order

FIXTURE = Path(__file__).parent / "data" / "spider224.forest"


@pytest.fixture
def tstar_file():
    return str(FIXTURE)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_digits(value):
    """Decimal digits of ``value`` regardless of the int/str conversion cap."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)


def test_sci4():
    assert sci4(18) == "1.800e1"
    assert sci4(1688) == "1.688e3"
    assert sci4(0) == "0.000e0"
    assert sci4(4160320577253792) == "4.160e15"


def test_count_text(capsys, tstar_file):
    code, out, _ = run(capsys, "count", "--input", tstar_file)
    assert code == 0
    assert "gamma=4" in out
    assert "mds_count=18" in out
    assert "alpha=5" in out


def test_count_csv(capsys, tstar_file):
    code, out, _ = run(capsys, "count", "--input", tstar_file, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,components,gamma,mds_count,mds_count_sci,alpha,mis_count,mis_count_sci"
    assert lines[1].startswith("9,1,4,18,1.800e1,5,")


def test_count_prints_counts_past_the_digit_cap(capsys, tmp_path):
    target = tmp_path / "matching.forest"
    target.write_text("n 30000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(15000)))
    cap = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--input", str(target), "--format", "csv")
    assert sys.get_int_max_str_digits() == cap
    assert (code, err) == (0, "")
    digits = full_digits(2**15000)
    assert len(digits) == 4516
    sci = f"{digits[0]}.{digits[1:4]}e4515"
    assert out.splitlines()[1] == f"30000,15000,15000,{digits},{sci},15000,{digits},{sci}"


def test_optimize_family_prints_counts_past_the_digit_cap(capsys):
    cap = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "optimize-family", "--gamma", "15000", "--format", "csv")
    assert sys.get_int_max_str_digits() == cap
    assert (code, err) == (0, "")
    fields = out.splitlines()[1].split(",")
    value = closed_form_count(15000, int(fields[1]))
    assert fields[2] == full_digits(value)
    assert fields[4] == full_digits(value - 2**14999)
    for digits, sci in ((fields[2], fields[3]), (fields[4], fields[5])):
        assert sci == f"{digits[0]}.{digits[1:4]}e{len(digits) - 1}"


def test_enumerate_text(capsys, tstar_file):
    code, out, _ = run(capsys, "enumerate", "--input", tstar_file, "--limit", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma=4 count=18 shown=3"
    assert len(lines) == 4


def test_enumerate_mis_csv(capsys, tmp_path):
    target = tmp_path / "p4.forest"
    target.write_text("n 4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "enumerate", "--input", str(target), "--set", "mis", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,size,vertices"
    assert lines[1:] == ["0,2,0 2", "1,2,0 3", "2,2,1 3"]


def test_family_balanced(capsys):
    code, out, _ = run(capsys, "family", "--gamma", "10", "--k", "3")
    assert code == 0
    assert "# role 0 x" in out
    assert "order=22 gamma=10 k=3 mds_count=1688 (1.688e3) closed_form=1688" in out


def test_family_explicit_parts_csv(capsys):
    code, out, _ = run(capsys, "family", "--p", "4,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,gamma,k,p,mds_count,mds_count_sci,closed_form"
    fields = lines[1].split(",")
    assert fields[0] == "15" and fields[1] == "7" and fields[2] == "2"
    assert fields[6] == ""  # unbalanced parts: no closed-form column value


def test_family_requires_parameters(capsys):
    code, _, err = run(capsys, "family", "--gamma", "10")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("gamma", ["0", "1"])
def test_family_gamma_below_two(capsys, gamma):
    code, out, err = run(capsys, "family", "--gamma", gamma, "--k", "1")
    assert (code, out) == (2, "")
    assert err == f"error: gamma must be at least 2, got {gamma}\n"


@pytest.mark.parametrize("argv", [
    ("family", "--gamma", "99999999999999999999", "--k", "1"),
    ("family", "--p", "99999999999"),
    ("family", "--gamma", "100000000", "--k", "99999999"),
    ("optimize-family", "--gamma", "99999999999"),
])
def test_family_commands_refuse_a_huge_gamma_at_once(capsys, argv):
    # Each of these once built lists or a tree linear in gamma before
    # failing with a MemoryError, or ran for minutes.
    began = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - began < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: gamma ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("family", "--gamma", "{}", "--k", "3"),
    ("family", "--p", "{}"),
    ("optimize-family", "--gamma", "{}"),
])
def test_family_gamma_limit_is_inclusive(capsys, monkeypatch, argv):
    # --p gives gamma as the sum of its parts plus one.
    monkeypatch.setattr(cli, "FAMILY_MAX_GAMMA", 12)
    for gamma, expected in ((12, 0), (13, 2)):
        value = str(gamma) if argv[1] == "--gamma" else f"5,{gamma - 6}"
        code, out, err = run(capsys, *(a.format(value) for a in argv))
        assert code == expected, gamma
        if expected:
            assert (out, err) == ("", f"error: gamma {gamma} exceeds the family limit 12\n")


def test_optimize_family_text(capsys):
    code, out, _ = run(capsys, "optimize-family", "--gamma", "10")
    assert code == 0
    assert "gamma=10 best_k=3 formula_value=1688 (1.688e3) table_value=1176 (1.176e3)" in out


def test_optimize_family_csv_with_trend(capsys):
    code, out, _ = run(capsys, "optimize-family", "--gamma", "10,50", "--format", "csv", "--trend")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("gamma,best_k,formula_value,formula_sci,table_value,table_sci,"
                        "ratio_to_reference,k_scaled")
    assert lines[1].startswith("10,3,1688,1.688e3,1176,1.176e3,0.37")
    assert lines[2].startswith("50,9,")
    assert ",4.160e15," in lines[2]


def test_search_text(capsys):
    code, out, _ = run(capsys, "search", "--max-order", "9")
    assert code == 0
    assert "trees processed: 95" in out
    assert "exceeds 2^gamma=16" in out


def test_search_csv_identical_across_jobs(capsys):
    code1, out1, err1 = run(capsys, "search", "--max-order", "9", "--format", "csv", "--emit-all", "--jobs", "1")
    code2, out2, err2 = run(capsys, "search", "--max-order", "9", "--format", "csv", "--emit-all",
                            "--jobs", str(os.cpu_count()))
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2
    assert out1.splitlines()[0].startswith("order,code,")
    assert len(out1.splitlines()) == 96


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "6")
    assert code == 0
    assert "verify ok: orders 1..6, 14 trees" in out


@pytest.mark.parametrize("max_order", [0, -3, oracle_max_order() + 1])
def test_verify_max_order_out_of_range(capsys, monkeypatch, max_order):
    import domcount.cli as cli_module

    def no_trees(n):
        raise AssertionError("verify started work on a rejected --max-order")

    monkeypatch.setattr(cli_module, "generate_trees", no_trees)
    code, out, err = run(capsys, "verify", f"--max-order={max_order}")
    assert (code, out) == (2, "")
    assert "--max-order" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--input", "/nonexistent/x.forest")
    assert code == 2
    assert "error" in err


def test_malformed_forest_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.forest"
    bad.write_text("n 3\n0 1\n1 2\n0 2\n")
    code, _, err = run(capsys, "count", "--input", str(bad))
    assert code == 2
    assert "cycle" in err


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
def test_search_jobs_out_of_range(capsys, jobs):
    code, out, err = run(capsys, "search", "--max-order", "4", "--jobs", str(jobs))
    assert (code, out) == (2, "")
    assert "--jobs" in err


def test_enumerate_negative_limit(capsys):
    code, out, err = run(capsys, "enumerate", "--input", str(FIXTURE), "--limit", "-1")
    assert (code, out) == (2, "")
    assert "limit" in err


def test_search_order_out_of_range(capsys):
    # The orders are checked before the CSV header is written.
    for extra in ((), ("--format", "csv", "--emit-all")):
        code, out, err = run(capsys, "search", "--max-order", "99", *extra)
        assert (code, out) == (2, "")
        assert "ceiling" in err


def test_optimize_family_bad_gamma(capsys):
    code, _, err = run(capsys, "optimize-family", "--gamma", "1")
    assert code == 2
    assert "gamma" in err


@pytest.mark.parametrize("value", ["", "5,,6", "5,x"])
def test_optimize_family_gamma_not_integers(capsys, value):
    code, out, err = run(capsys, "optimize-family", "--gamma", value)
    assert (code, out) == (2, "")
    assert err == f"error: --gamma expects comma-separated integers, got {value!r}\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_search_violation_exits_1(capsys, monkeypatch):
    import domcount.search as search_module
    monkeypatch.setattr(search_module, "verify_mds_bound", lambda gamma, count: False)
    code, out, _ = run(capsys, "search", "--max-order", "4")
    assert code == 1
    assert "mds bound violations: 5" in out  # all five trees of orders 1..4


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers see the patched check only when forked")
def test_worker_violations_match_across_jobs(capsys, monkeypatch):
    # Every tree fails the MDS check inside its task; with one block per
    # task both workers report violations, and the merge keeps stream order.
    import domcount.search as search_module
    monkeypatch.setattr(search_module, "verify_mds_bound", lambda gamma, count: False)
    monkeypatch.setattr(search_module, "_BLOCKS_PER_TASK", 1)
    argv = ("search", "--max-order", "6", "--format", "csv", "--emit-all", "--jobs")
    solo, duo = run(capsys, *argv, "1"), run(capsys, *argv, "2")
    assert solo == duo
    assert solo[0] == 1
    assert "mds bound violations: 14" in solo[2]  # all 14 trees of orders 1..6


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    import domcount.cli as cli_module
    from domcount.domination import DomResult
    monkeypatch.setattr(cli_module, "brute_force_domination", lambda forest: DomResult(0, 0))
    code, out, _ = run(capsys, "verify", "--max-order", "3")
    assert code == 1
    assert "mismatch (domination)" in out
    assert "verify FAILED" in out
