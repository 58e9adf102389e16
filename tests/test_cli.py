"""Tests for the command-line interface."""

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_automata import SEVEN_BLOCKS

from univoque.cli import (
    CSV_HEADER,
    MAX_CURVE_ROWS,
    UnsupportedDomainError,
    _grid_size,
    curve_rows,
    main,
)
from univoque import selftest
from univoque.critical import Constants
from univoque.selftest import run_selftest
from univoque.sequences import MAX_EXPANDED_LENGTH, Alphabet, parse_seq


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_pi_plain_value(capsys):
    code, out, _ = run(capsys, "pi", "m1^w", "--m", "3", "--q", "2.5")
    assert code == 0
    assert out.strip() == "1.4666666666666668"


def test_pi_finite_word(capsys):
    code, out, _ = run(capsys, "pi", "m1", "--m", "3", "--q", "2.0")
    assert code == 0
    assert float(out) == pytest.approx(3 / 2 + 1 / 4)


def test_pi_complement(capsys):
    code, out, _ = run(capsys, "pi", "(1m)^w", "--m", "3", "--q", "2.5",
                       "--complement")
    assert code == 0
    # reflection of (1m)^w is (2 0)^w: value 2q/(q^2-1)
    assert float(out) == pytest.approx(2 * 2.5 / (2.5 ** 2 - 1), rel=1e-14)


def test_pi_general_alphabet(capsys):
    code, out, _ = run(capsys, "pi", "(10)^w", "--digits", "0,1", "--q", "1.5")
    assert code == 0
    assert float(out) == pytest.approx(1.5 / (1.5 ** 2 - 1), rel=1e-14)


def test_pi_rejects_conflicting_alphabets(capsys):
    code, _, err = run(capsys, "pi", "1^w", "--m", "3", "--digits", "0,1",
                       "--q", "2.0")
    assert code == 2
    assert "either --m or --digits" in err


def test_pi_rejects_a_repeat_count_in_other_digits(capsys):
    code, out, err = run(capsys, "pi", "1^\u0663", "--m", "3", "--q", "2.5")
    assert code == 2
    assert out == ""
    assert "(offset 2)" in err


def test_pi_rejects_non_finite_base(capsys):
    code, out, err = run(capsys, "pi", "1^w", "--q", "inf", "--m", "3")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_pi_rejects_a_base_that_is_not_a_number(capsys):
    code, out, err = run(capsys, "pi", "1^w", "--q", "abc", "--m", "3")
    assert code == 2
    assert out == ""
    assert "invalid float value: 'abc'" in err


def test_pi_rejects_a_value_that_overflows(capsys):
    code, out, err = run(capsys, "pi", "m^w", "--q", "1.5", "--m", "1e308")
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_check_general_rejects_a_slack_that_overflows(capsys):
    code, out, err = run(capsys, "check", "m^w", "--q", "1.5", "--general",
                         "--m", "1e308")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the slack overflows a float")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (("check", "(10)^w", "--q", "1.5", "--general", "--digits=-1e308,0"),
     "the slack overflows a float: -inf"),
    (("pi", "1^w", "--q", "2", "--digits", ","),
     "--digits needs a comma-separated list"),
    (("pi", "1^w", "--q", "2"), "specify --m (alphabet {0,1,m}) or --digits"),
    (("pi", "m1", "--q", "2", "--m", "3", "--complement"),
     "--complement needs an infinite sequence (use ^w)"),
    (("pi", "1^w", "--q", "2", "--digits", "0,1", "--complement"),
     "--complement needs --m"),
    (("check", "1^w", "--q", "2.4", "--ternary"), "--ternary needs --m"),
], ids=["raise-slack-overflows", "empty-digits", "no-alphabet",
        "complement-of-a-word", "complement-without-m", "ternary-without-m"])
def test_bad_input_gives_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def _length(notation):
    seq = parse_seq(notation, Alphabet.ternary(3))
    return len(seq.preperiod) + len(seq.period)


@pytest.mark.parametrize("mode", ["--ternary", "--general"])
def test_check_rejects_a_sequence_above_the_length_cap_promptly(capsys, mode):
    # one symbol more than (1m)^499999(m1)^w, refused by the parser
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "(1m)^500000(1)^w", "--q", "2.4", mode,
                         "--m", "3")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: expands to more than {MAX_EXPANDED_LENGTH} symbols")
    assert err.count("\n") == 1


@pytest.mark.parametrize("mode", ["--ternary", "--general"])
def test_check_gives_a_verdict_at_the_length_cap(capsys, mode):
    # one backward pass per verdict: a quadratic route would not finish
    notation = "(1m)^499999(m1)^w"
    assert _length(notation) == MAX_EXPANDED_LENGTH
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", notation, "--q", "2.4", mode, "--m", "3")
    assert time.perf_counter() - t0 < 10.0
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] in ("ProvenUnique", "ProvenNotUnique",
                                           "Inconclusive")


def test_check_rejects_deeply_nested_notation(capsys):
    text = "(" * 2000 + "1" + ")" * 2000 + "^w"
    code, out, err = run(capsys, "check", text, "--q", "2.4", "--ternary",
                         "--m", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: groups nested deeper than")
    assert err.count("\n") == 1


def test_check_ternary_json_shape(capsys):
    code, out, _ = run(capsys, "check", "(m1)^w", "--ternary", "--m", "3",
                       "--q", "2.25")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["verdict", "witness", "slack"]
    assert payload["verdict"] == "ProvenUnique"
    assert list(payload["witness"]) == ["position", "condition", "slack",
                                        "boundary"]
    assert payload["slack"] == payload["witness"]["slack"] > 0


def test_check_general_not_unique(capsys):
    code, out, _ = run(capsys, "check", "(10)^w", "--general",
                       "--digits", "0,1", "--q", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ProvenNotUnique"
    assert payload["slack"] == pytest.approx(-0.2)


def test_check_vacuous_witness_is_null(capsys):
    code, out, _ = run(capsys, "check", "m^w", "--ternary", "--m", "3",
                       "--q", "2.3")
    payload = json.loads(out)
    assert code == 0
    assert payload["witness"] is None
    assert payload["slack"] is None


def test_check_needs_an_infinite_sequence(capsys):
    code, _, err = run(capsys, "check", "m1", "--ternary", "--m", "3",
                       "--q", "2.3")
    assert code == 2
    assert "infinite" in err


def test_check_ternary_rejects_digits(capsys):
    code, out, err = run(capsys, "check", "(1m)^w", "--q", "2.4", "--ternary",
                         "--m", "3", "--digits", "0,1,3")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --ternary takes --m, not --digits"]


@pytest.mark.parametrize("argv", [
    ("(m1)^w", "--q", "2.4", "--ternary", "--m", "inf"),
    ("1^w", "--q", "3", "--general", "--digits", "0,1e999"),
    ("1^w", "--q", "inf", "--general", "--digits", "0,1"),
])
def test_check_rejects_non_finite_numbers(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_notation_error_exit_code(capsys):
    code, _, err = run(capsys, "pi", "m1^", "--m", "3", "--q", "2.5")
    assert code == 2
    assert "offset 3" in err


def test_scan_curve_csv_layout(capsys):
    code, out, _ = run(capsys, "scan-curve", "--m-lo", "2.0", "--m-hi", "2.2",
                       "--step", "0.1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER == "m,P,R,p,r,branch"
    assert len(lines) == 4
    assert lines[1].endswith("Comp0_full")
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[4]) == pytest.approx(2.618033988749895)


def test_scan_curve_marks_gaps_with_na(capsys):
    code, out, _ = run(capsys, "scan-curve", "--m-lo", "2.5", "--m-hi", "2.6",
                       "--step", "0.05")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        row = line.split(",")
        assert row[3] == "NA" and row[4] == "NA" and row[5] == "NA"


def test_scan_curve_is_deterministic(capsys):
    args = ("scan-curve", "--m-lo", "2.0", "--m-hi", "5.0", "--step", "0.25")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_scan_curve_writes_files(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, out, _ = run(capsys, "scan-curve", "--m-lo", "2.0", "--m-hi", "2.1",
                       "--step", "0.05", "--out", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith(CSV_HEADER)
    assert text.endswith("\n")


@pytest.mark.parametrize("target", ["missing/curves.csv", "."])
def test_scan_curve_reports_an_unwritable_out(tmp_path, capsys, target):
    code, out, err = run(capsys, "scan-curve", "--m-lo", "2", "--m-hi", "2.1",
                         "--step", "0.05", "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_scan_curve_domain_exit_code(capsys):
    code, _, err = run(capsys, "scan-curve", "--m-lo", "1.5", "--m-hi", "3",
                       "--step", "0.5")
    assert code == 3
    assert "m >= 2" in err


@pytest.mark.parametrize("lo,hi,step", [("3", "2", "0.5"), ("2", "3", "0")])
def test_scan_curve_bad_grid_exit_code(capsys, lo, hi, step):
    code, _, _ = run(capsys, "scan-curve", "--m-lo", lo, "--m-hi", hi,
                     "--step", step)
    assert code == 2


def test_scan_curve_rejects_non_finite_grid(capsys):
    # with an infinite upper end the row loop would never stop
    code, out, err = run(capsys, "scan-curve", "--m-lo", "2", "--m-hi", "inf",
                         "--step", "0.5")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_scan_curve_rejects_oversized_grid_promptly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "scan-curve", "--m-lo", "2", "--m-hi", "5",
                         "--step", "1e-12")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert str(MAX_CURVE_ROWS) in err


def test_grid_size_cap_is_exact():
    step = 1 / 1024  # the grid points below are exact in binary
    top = 2.0 + (MAX_CURVE_ROWS - 1) * step
    assert _grid_size(2.0, top, step) == MAX_CURVE_ROWS
    with pytest.raises(ValueError):
        _grid_size(2.0, top + step, step)
    # a step below the spacing of floats near m_lo never moves m
    with pytest.raises(ValueError):
        _grid_size(2.0, 3.0, 1e-17)


# sha256 of stdout, pinned so that solver and parser changes keep the
# CSV, the selftest report and the check JSON byte for byte.  The
# classifications carry correctly rounded growth rates,
# 1.8392867552141612 (the tribonacci root) and 1.7346913456924695; the
# scan at q = 2.5, above r(3), runs the frontier to full depth and
# keeps only 111.  The DOT entry is the seven-state automaton of the
# blocks scanned at r(3) plus the eighth.
GOLDEN_STDOUT = {
    ("scan-curve", "--m-lo", "2", "--m-hi", "5", "--step", "0.01"):
        "5d591be69c151d01e307f43c5790d09cc5444bf7b5e70a4dc59616920d618fb9",
    ("selftest",):
        "54910ba82bc37635396861cd431190af0188e2b2d3fd02cda9fa667a3d1d8b1d",
    ("automaton", "--blocks", "111", "--classify"):
        "6977ca1605a21f93b581fca9b5cdbc25e8120a526c40b8a64f888b7b32cac7cd",
    ("automaton", "--blocks", "1111,mmm", "--classify"):
        "5d65ecbb9214ad3e101bf900b9b5df6ed266bc6e6bcda245b07f30f724acff49",
    ("automaton", "--scan", "3", "2.37019910851", "7", "--blocks", "1mm1m11mm1",
     "--dot"):
        "9b403e31670d585263f515d1c9bb59a4cec4408c288aec3a5c8cadc2fd299122",
    ("automaton", "--scan", "3", "2.5", "16", "--classify"):
        "6977ca1605a21f93b581fca9b5cdbc25e8120a526c40b8a64f888b7b32cac7cd",
    # CountablyInfinite, evidence [1, 2, 3, 4, 5, 6]
    ("automaton", "--scan", "3", "2.37019910851", "7", "--blocks", "1mm1m11mm1",
     "--classify"):
        "69393d4c5a467bfbee08b3d55009921991a9fb0585617cecb884f8451a9b7176",
    # slack 0.03084404642701566; exactly 0.030844046427015764...
    ("check", "mm1(m11m)^w", "--q", "2.37", "--ternary", "--m", "3"):
        "42482eb3822421a67b2411f3f7a414c691a4799be9a3c25f49e7c1aec8d5f419",
    # slack -0.07226107226107215; exactly -0.072261072261072382...
    ("check", "11(m1)^w", "--q", "2.3", "--general", "--m", "3"):
        "941e61282f45332c6196dbe8b6e03c6d5511cf0da5f6e09d4cc66be39d741de7",
    ("check", "1(10)^w", "--q", "1.8", "--general", "--digits", "0,1"):
        "a56c29dac81f11caa6312930723d5cc59acf572c5fad28be51ef5f659e32815b",
}


def _golden_id(argv):
    if argv[0] == "check":
        return f"check-{argv[1]}-{argv[4][2:]}"
    if argv[0] == "automaton":
        # the scan pinned with --dot keeps its older, shorter id
        if argv[1] == "--scan" and "--dot" not in argv:
            return f"automaton-{argv[2]}-{argv[3]}"
        return f"automaton-{argv[2]}"
    return argv[0]


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=_golden_id)
def test_golden_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_curve_rows_helper_raises_typed_errors():
    with pytest.raises(UnsupportedDomainError):
        curve_rows(1.0, 3.0, 0.5)
    with pytest.raises(ValueError):
        curve_rows(2.0, 2.0, 0.5)


def test_automaton_count(capsys):
    code, out, _ = run(capsys, "automaton", "--blocks", "11,mm",
                       "--count", "6")
    assert code == 0
    assert out.strip() == "2"


def test_automaton_classify_json(capsys):
    code, out, _ = run(capsys, "automaton", "--blocks", "11,mm", "--classify")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == 3
    assert payload["kind"] == "FinitePaths"
    assert payload["path_count"] == 2
    assert payload["growth_rate"] == 1.0


def test_automaton_dot(capsys):
    code, out, _ = run(capsys, "automaton", "--blocks", "1m", "--dot")
    assert code == 0
    assert out.startswith("digraph safety {")
    assert "// forbidden: 1m" in out


def test_automaton_scan_source(capsys):
    code, out, _ = run(capsys, "automaton", "--scan", "3", "2.5", "3",
                       "--classify")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == 3
    assert payload["kind"] == "Uncountable"


def test_automaton_scan_rejects_non_finite_numbers(capsys):
    code, out, err = run(capsys, "automaton", "--scan", "3", "nan", "1",
                         "--classify")
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("q", ["99", "1.5"])
def test_automaton_scan_validates_q_at_lmax_one(capsys, q):
    # lmax 1 tests no word; the scan still refuses a q outside (2, R(m)]
    code, out, err = run(capsys, "automaton", "--scan", "3", q, "1", "--classify")
    assert code == 2
    assert out == ""
    assert f"q={float(q)} outside" in err


def test_automaton_scan_needs_an_integer_lmax(capsys):
    code, out, err = run(capsys, "automaton", "--scan", "3", "2.37019910851",
                         "7.9", "--classify")
    assert code == 2
    assert out == ""
    assert "LMAX" in err
    code, out, _ = run(capsys, "automaton", "--scan", "3", "2.37019910851",
                       "7", "--classify")
    assert code == 0
    assert json.loads(out)["states"] == 9


def test_automaton_rejects_a_branching_component_above_the_perron_bound(capsys):
    # avoiding one long block leaves a branching component of about
    # 10,000 states, far above MAX_PERRON_STATES
    rng = random.Random(10_000)
    block = "".join(rng.choice("1m") for _ in range(10_000))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "automaton", "--blocks", block, "--classify")
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert out == ""
    assert "MAX_PERRON_STATES = 128" in err
    # nothing is written when a later part fails
    code, out, err = run(capsys, "automaton", "--blocks", block, "--dot", "--classify")
    assert (code, out) == (2, "")
    assert "MAX_PERRON_STATES" in err
    code, out, _ = run(capsys, "automaton", "--blocks", block, "--dot")
    assert code == 0
    assert out.count("->") > 2 * 9_000
    code, out, _ = run(capsys, "automaton", "--blocks", block, "--count", "64")
    assert code == 0
    assert out.strip() == str(2 ** 64)


def test_automaton_without_action_fails(capsys):
    code, _, err = run(capsys, "automaton", "--blocks", "11")
    assert code == 2
    assert "nothing to do" in err


def test_automaton_names_a_zero_in_a_block(capsys):
    code, out, err = run(capsys, "automaton", "--blocks", "10", "--count", "3")
    assert (code, out) == (2, "")
    assert "zero-free" in err


@pytest.mark.parametrize("spec", ["1m,,m1", "1m,", ""])
def test_automaton_refuses_an_empty_block(capsys, spec):
    code, out, err = run(capsys, "automaton", "--blocks", spec, "--count", "3")
    assert (code, out) == (2, "")
    assert "block must be nonempty" in err


def test_automaton_without_source_fails(capsys):
    code, _, _ = run(capsys, "automaton", "--dot")
    assert code == 2


def test_selftest_passes_and_prints_one_line_per_suite(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == len(run_selftest())
    assert all(line.startswith("PASS ") for line in lines)
    assert any("forbidden_scan" in line for line in lines)
    assert any(" ".join(SEVEN_BLOCKS) in line for line in lines)


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(entry["passed"] for entry in payload)
    names = [entry["name"] for entry in payload]
    assert "sign_relations" in names and "automata_fixtures" in names


def test_stdout_closed_early_exits_1_without_a_traceback():
    # as in `univoque selftest --json | head -c 10`, with the reader
    # gone before anything is written
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from univoque.cli import main; sys.exit(main(sys.argv[2:]))")
    proc = subprocess.Popen([sys.executable, "-c", code, str(src), "selftest", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate()
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_selftest_perturbation_fails(capsys):
    code, out, _ = run(capsys, "selftest", "--perturb-p", "0.001")
    assert code == 1
    assert "FAIL sign_relations" in out


def _drifted_constants(real):
    fields = {name: getattr(real(), name) for name in Constants.__slots__}
    fields["q_4"] = math.nextafter(fields["q_4"], math.inf)
    drifted = Constants(**fields)
    return lambda: drifted


# suite, the name in univoque.selftest that is broken, how, and a note
# that the suite's line must then carry
_BROKEN_INPUTS = [
    ("constants", "compute_constants", _drifted_constants, "drifted: q_4"),
    ("branch_residuals", "r_of_m", lambda real: lambda m: real(m) + 1e-6,
     "Comp0_full: bad r at m=2.0; Comp0_full: bisection disagrees at m=2.0"),
    ("family_certificates", "certify_family", lambda real: lambda *args: True,
     "mmmmm1+mmmmmm1@q=2.5: True/True"),
    ("forbidden_scan", "scan_forbidden", lambda real: lambda *args: real(*args)[:-1],
     ": " + " ".join(SEVEN_BLOCKS[:-1])),
    ("automata_fixtures", "build_safety_automaton",
     lambda real: lambda blocks: real(tuple(blocks)[1:]), "kinds Uncountable/Uncountable"),
]


@pytest.mark.parametrize("suite,name,broken,note", _BROKEN_INPUTS,
                         ids=[case[0] for case in _BROKEN_INPUTS])
def test_every_selftest_suite_can_fail(capsys, monkeypatch, suite, name, broken, note):
    monkeypatch.setattr(selftest, name, broken(getattr(selftest, name)))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    [line] = [line for line in out.splitlines() if line.split()[1] == f"{suite}:"]
    assert line.startswith(f"FAIL {suite}: ")
    assert note in line


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_selftest_rejects_a_non_finite_perturbation(capsys, value):
    code, out, err = run(capsys, "selftest", "--perturb-p", value)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("value", ["1e100", "1e154", "1e308", "-1.5"])
def test_selftest_rejects_a_perturbation_above_one(capsys, value):
    code, out, err = run(capsys, "selftest", f"--perturb-p={value}")
    assert code == 2
    assert out == ""
    assert "must lie in [-1, 1]" in err
    assert err.count("error:") == 1


@pytest.mark.parametrize("value", ["1", "-1"])
def test_selftest_runs_at_either_end_of_the_perturbation_range(capsys, value):
    code, out, err = run(capsys, "selftest", f"--perturb-p={value}")
    assert (code, err) == (1, "")
    assert "FAIL sign_relations" in out


def test_missing_subcommand_exits_2(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "pi", "1^w", "--nope")[0] == 2
