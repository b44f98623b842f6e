import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symgen
from symgen.cli import run
from symgen.criteria import (
    FAMILIES,
    FamilySpec,
    Specialization,
    check_sequence,
    inner_value,
    render_value,
    verdict_records,
)
from symgen.oracle import conjecture_probe, verdict
from symgen.partitions import Partition
from symgen.symfunc import render_symfunc, skew, sym, to_basis
from symgen.tabloids import w


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RIBBON_FILE = """# ribbons at every degree
1: [1]
2: [2]
3: [2,2]/[1]
4: [2,2,1]/[1]
"""


@pytest.fixture
def ribbon_path(tmp_path):
    path = tmp_path / "ribbons.txt"
    path.write_text(RIBBON_FILE, encoding="utf-8")
    return str(path)


def test_expand(capsys):
    code, out, _ = invoke(capsys, "expand", "--expr", "s[2,1]", "--to", "h")
    assert code == 0
    assert out == "1*h[2,1] - 1*h[3]\n"
    # equals the direct library call
    assert out.strip() == render_symfunc(to_basis(sym("s", (2, 1)), "h"))


def test_expand_is_byte_stable(capsys):
    first = invoke(capsys, "expand", "--expr", "3*m[2,1] - 1*m[3]", "--to", "p")
    second = invoke(capsys, "expand", "--expr", "3*m[2,1] - 1*m[3]", "--to", "p")
    assert first == second


def test_inner_schur_hook(capsys):
    code, out, _ = invoke(
        capsys, "inner", "--family", "s", "--lambda", "3,1,1", "--n", "5"
    )
    assert code == 0 and out == "1\n"


def test_inner_hl_at_root(capsys):
    code, out, _ = invoke(
        capsys, "inner", "--family", "hl-P", "--lambda", "2,1", "--n", "3",
        "--at-root", "2",
    )
    assert code == 0 and out == "-1\n"
    spec = FamilySpec("hl-P", "Q", Specialization.at_root(2))
    assert out.strip() == render_value(
        inner_value(spec, Partition((2, 1)), None, 3)
    )


def test_inner_skew_family(capsys):
    code, out, _ = invoke(
        capsys, "inner", "--family", "skew-m", "--lambda", "[2,1]",
        "--mu", "[1]", "--n", "2",
    )
    assert code == 0 and out == "2\n"


def test_skew_subcommand(capsys):
    code, out, _ = invoke(
        capsys, "skew", "--family", "h", "--lambda", "2,1", "--mu", "1"
    )
    assert code == 0
    expected = to_basis(skew("h", (2, 1), (1,)), "h")
    assert out.strip() == render_symfunc(expected)


def test_tabloids(capsys):
    code, out, _ = invoke(capsys, "tabloids", "--shape", "2", "--type", "1,1")
    assert code == 0 and out == "w=1\n"
    code, out, _ = invoke(
        capsys, "tabloids", "--shape", "2,2", "--type", "2,1,1", "--list"
    )
    assert code == 0
    assert out.splitlines() == ["w=4", "[2][1,1] weight=2", "[1,1][2] weight=2"]
    assert int(out.splitlines()[0][2:]) == w((2, 2), (2, 1, 1))


def test_check_ribbons(capsys, ribbon_path):
    code, out, _ = invoke(
        capsys, "check", "--family", "skew-s", "--ring", "Z",
        "--seq-file", ribbon_path,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "overall=true"
    records = [json.loads(line) for line in lines[:-1]]
    spec = FamilySpec("skew-s", "Z")
    seq = [
        (Partition((1,)), None), (Partition((2,)), None),
        (Partition((2, 2)), Partition((1,))),
        (Partition((2, 2, 1)), Partition((1,))),
    ]
    assert records == verdict_records(spec, check_sequence(spec, seq))


def test_check_output_byte_stable(capsys, ribbon_path):
    args = ("check", "--family", "skew-s", "--ring", "Z", "--seq-file", ribbon_path)
    assert invoke(capsys, *args) == invoke(capsys, *args)


def test_check_failing_sequence_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1: [1]\n2: [2]\n3: [3]\n4: [2,2]\n", encoding="utf-8")
    code, out, _ = invoke(
        capsys, "check", "--family", "s", "--ring", "Q", "--seq-file", str(path)
    )
    assert code == 1
    assert out.splitlines()[-1] == "overall=false"


def test_oracle_subcommand(capsys, ribbon_path):
    code, out, _ = invoke(
        capsys, "oracle", "--family", "skew-s", "--ring", "Z",
        "--seq-file", ribbon_path, "--max-degree", "3",
    )
    assert code == 0
    lines = out.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    spec = FamilySpec("skew-s", "Z")
    seq = [
        (Partition((1,)), None), (Partition((2,)), None),
        (Partition((2, 2)), Partition((1,))),
    ]
    assert records == verdict(spec, seq, 3)
    assert lines[-1] == "overall=true"


@pytest.mark.parametrize(
    "second, code, overall", [("[1,1]", 0, "overall=true"), ("[2]", 1, "overall=false")]
)
def test_python_dash_m_runs_the_cli(tmp_path, second, code, overall):
    path = tmp_path / "two.txt"
    path.write_text(f"1: [1]\n2: {second}\n", encoding="utf-8")
    src = str(Path(symgen.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "symgen", "oracle", "--family", "m", "--ring", "Z",
         "--seq-file", str(path), "--max-degree", "2"],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == code and proc.stderr == ""
    lines = proc.stdout.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    seq = [(Partition((1,)), None), (Partition(json.loads(second)), None)]
    assert records == verdict(FamilySpec("m", "Z"), seq, 2)
    assert lines[-1] == overall


def test_probe_subcommand(capsys, ribbon_path):
    code, out, _ = invoke(
        capsys, "probe", "--seq-file", ribbon_path, "--max-degree", "3"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    seq = [
        (Partition((1,)), None), (Partition((2,)), None),
        (Partition((2, 2)), Partition((1,))),
    ]
    assert records == conjecture_probe(seq, 3)


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "oracle", "--family", "s")
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_bad_sequence_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2: [2]\n", encoding="utf-8")
    code, _, err = invoke(
        capsys, "check", "--family", "s", "--ring", "Q", "--seq-file", str(path)
    )
    assert code == 2 and err.startswith("error: ")
    code, _, err = invoke(
        capsys, "check", "--family", "s", "--ring", "Q", "--seq-file",
        str(tmp_path / "missing.txt"),
    )
    assert code == 2 and err.startswith("error: ")


def test_unsupported_combination_exit_code(capsys, ribbon_path):
    code, _, err = invoke(
        capsys, "check", "--family", "hl-P", "--ring", "Z",
        "--seq-file", ribbon_path,
    )
    assert code == 2 and err.startswith("error: ")


def test_seed_manifest(capsys):
    code, out, _ = invoke(
        capsys, "--seed-manifest", "inner", "--family", "s",
        "--lambda", "2,1", "--n", "3",
    )
    assert code == 0
    manifest = json.loads(out.splitlines()[0])
    assert manifest["package"] == "symgen"
    assert manifest["invocation"]["family"] == "s"
    assert out.splitlines()[1] == "-1"


def test_check_at_root_via_cli(capsys, tmp_path):
    path = tmp_path / "cols.txt"
    path.write_text("1: [1]\n2: [1,1]\n3: [1,1,1]\n", encoding="utf-8")
    code, out, _ = invoke(
        capsys, "check", "--family", "hl-P", "--ring", "Q",
        "--seq-file", str(path), "--at-root", "2",
    )
    records = [json.loads(line) for line in out.splitlines()[:-1]]
    spec = FamilySpec("hl-P", "Q", Specialization.at_root(2))
    seq = [(Partition([1] * n), None) for n in (1, 2, 3)]
    assert records == verdict_records(spec, check_sequence(spec, seq))


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "s", "--lambda", "2", "--n", "3"),
        ("--family", "s", "--lambda", "2", "--n", "0"),
        ("--family", "skew-h", "--lambda", "3,1", "--n", "2"),
        ("--family", "s", "--lambda", "2", "--mu", "1", "--n", "1"),
    ],
)
def test_inner_rejects_ungraded_input(capsys, argv):
    code, out, err = invoke(capsys, "inner", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_inner_rejects_degree_zero(capsys, name):
    code, out, err = invoke(capsys, "inner", "--family", name, "--lambda", "0", "--n", "0")
    assert code == 2 and out == ""
    assert err == "error: degree 0: degrees start at 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("inner", "--family", "s", "--lambda", "2,0,1", "--n", "3"),
        ("tabloids", "--shape", "2,0,1", "--type", "1,1,1"),
        ("check", "--family", "s", "--ring", "Q", "--seq-file", "{seq}"),
    ],
)
def test_partitions_with_interior_zeros_exit_two(capsys, tmp_path, argv):
    path = tmp_path / "zero.txt"
    path.write_text("1: [1]\n2: [2]\n3: [2,0,1]\n", encoding="utf-8")
    code, out, err = invoke(capsys, *(arg.format(seq=path) for arg in argv))
    assert code == 2 and out == ""
    assert err == "error: parts not weakly decreasing: (2, 0, 1)\n"


def test_expand_rejects_terms_without_operator(capsys):
    code, out, err = invoke(capsys, "expand", "--expr", "m[2] m[1,1]", "--to", "m")
    assert code == 2 and out == ""
    assert err == "error: cannot parse symmetric function near ' m[1,1]'\n"


def test_parsers_read_the_terminal_width_once(monkeypatch):
    import shutil

    from symgen import cli
    from symgen.cli import _build_parser

    queries = []
    original = shutil.get_terminal_size

    def counted(*args, **kwargs):
        queries.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    cli._formatter.cache_clear()
    _build_parser()
    _build_parser("check")
    assert len(queries) == 1


def test_expand_zero_denominator_exit_code(capsys):
    code, out, err = invoke(capsys, "expand", "--expr", "1/0*m[2]", "--to", "p")
    assert code == 2 and out == ""
    assert err == "error: zero denominator in coefficient 1/0\n"


@pytest.mark.parametrize("degree", ["0", "-1"])
@pytest.mark.parametrize(
    "command", [("oracle", "--family", "skew-s", "--ring", "Z"), ("probe",)]
)
def test_max_degree_below_one_exit_code(capsys, ribbon_path, command, degree):
    code, out, err = invoke(
        capsys, *command, "--seq-file", ribbon_path, "--max-degree", degree
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_probe_rejects_large_degree(capsys, ribbon_path):
    code, _, err = invoke(
        capsys, "probe", "--seq-file", ribbon_path, "--max-degree", "9"
    )
    assert code == 2 and err.startswith("error: ")


@pytest.fixture
def two_line_path(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("1: [1]\n2: [2]\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "command", [("oracle", "--family", "skew-s", "--ring", "Z"), ("probe",)]
)
def test_max_degree_beyond_file_exit_code(capsys, two_line_path, command):
    code, out, err = invoke(
        capsys, *command, "--seq-file", two_line_path, "--max-degree", "5"
    )
    assert code == 2 and out == ""
    assert err == "error: --max-degree 5 exceeds the 2 degrees in the file\n"


def test_probe_default_degree_stops_at_short_file(capsys, two_line_path):
    code, out, _ = invoke(capsys, "probe", "--seq-file", two_line_path)
    assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize(
    "command, recorded",
    [(("oracle", "--family", "skew-s", "--ring", "Z"), None), (("probe",), 4)],
)
def test_seed_manifest_default_max_degree(capsys, two_line_path, command, recorded):
    _, out, _ = invoke(capsys, "--seed-manifest", *command, "--seq-file", two_line_path)
    assert json.loads(out.splitlines()[0])["invocation"]["max_degree"] == recorded


def test_probe_rejects_degree_above_cap(capsys, tmp_path):
    path = tmp_path / "nine.txt"
    path.write_text("".join(f"{n}: [{n}]\n" for n in range(1, 10)), encoding="utf-8")
    code, out, err = invoke(
        capsys, "probe", "--seq-file", str(path), "--max-degree", "9"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_probe_runs_up_to_cap(capsys, tmp_path):
    path = tmp_path / "eight.txt"
    lines = [f"{n}: [{n}]\n" for n in range(1, 8)] + ["8: [4,3,2,1,1]/[2,1]\n"]
    path.write_text("".join(lines), encoding="utf-8")
    code, out, err = invoke(
        capsys, "probe", "--seq-file", str(path), "--max-degree", "8"
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and err == ""
    assert [r["n"] for r in records] == list(range(1, 9))
    assert records[-1]["lambda"] == "[4,3,2,1,1]" and records[-1]["nonzero"]


def test_mac_pair_specialization_via_cli(capsys):
    code, out, _ = invoke(
        capsys, "inner", "--family", "mac-P", "--lambda", "2", "--n", "2",
        "--at-q", "1/2", "--at-t", "1/3",
    )
    assert code == 0
    spec = FamilySpec(
        "mac-P", "Q",
        Specialization.at_pair("1/2", "1/3"),
    )
    assert out.strip() == render_value(inner_value(spec, Partition((2,)), None, 2))


def test_mac_pair_value_defined_only_after_cancellation(capsys):
    # the unreduced <P_(2), p_2> = (1 - t^2)(1 - q) / ((1 - qt)(1 - t)) has
    # 1 - t in its denominator; the reduced form is 2 at (q, t) = (2, 1)
    code, out, _ = invoke(
        capsys, "inner", "--family", "mac-P", "--lambda", "2", "--n", "2",
        "--at-q", "2", "--at-t", "1",
    )
    assert code == 0 and out == "2\n"


def test_criterion_mismatch_exits_two(capsys, monkeypatch, ribbon_path):
    import symgen.criteria as criteria

    original = criteria.criterion

    def flipped(*args):
        ok, reason = original(*args)
        return not ok, reason

    monkeypatch.setattr(criteria, "criterion", flipped)
    for command in ("check", "oracle"):
        code, out, err = invoke(
            capsys, command, "--family", "skew-s", "--ring", "Z",
            "--seq-file", ribbon_path,
        )
        assert code == 2 and out == ""
        assert err == "error: degree 1: criterion False (ribbon) disagrees with the value 1\n"


def test_inner_zero_denominator_value_exit_code(capsys):
    code, out, err = invoke(
        capsys, "inner", "--family", "big-S", "--lambda", "3", "--n", "3",
        "--at-value", "1/0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_zero_denominator_pair_exit_code(capsys, ribbon_path):
    code, out, err = invoke(
        capsys, "check", "--family", "mac-P", "--ring", "Q",
        "--seq-file", ribbon_path, "--at-q", "1/0", "--at-t", "2",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_oracle_undefined_specialization(capsys, tmp_path):
    path = tmp_path / "mac.txt"
    path.write_text("1: [1]\n2: [2]\n3: [1,1,1]\n", encoding="utf-8")
    argv = ["--family", "mac-P", "--ring", "Q", "--seq-file", str(path),
            "--at-q", "1", "--at-t", "1"]
    code, out, err = invoke(capsys, "oracle", *argv)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "overall=false"
    records = [json.loads(line) for line in lines[:-1]]
    assert [r["n"] for r in records] == [1, 2, 3]
    assert records[0]["det"] == "1" and records[0]["independent"]
    assert records[0]["generates"] and records[0]["inner"] == "1"
    # u_2 does not exist at q = t = 1; u_3 does, but its degree matrix needs u_2
    undefined, after = records[1], records[2]
    assert undefined["det"] is None and undefined["inner"] is None
    assert not undefined["independent"] and not undefined["generates"]
    assert after["det"] is None and after["inner"] == after["value"] == "1"
    assert not after["independent"] and not after["generates"]
    # the criterion fields are those of check on the same input
    _, check_out, _ = invoke(capsys, "check", *argv)
    for record, line in zip(records, check_out.splitlines()):
        assert dict(list(record.items())[:6]) == json.loads(line)
    assert undefined["reason"] == "specialization-undefined"


@pytest.mark.parametrize(
    "flags",
    [
        ("--at-root", "3", "--at-value", "1/2"),
        ("--at-root", "3", "--at-q", "1", "--at-t", "2"),
        ("--at-value", "1/2", "--at-q", "1"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ("check", "--family", "hl-P", "--ring", "Q", "--seq-file", "RIBBONS"),
        ("oracle", "--family", "hl-P", "--ring", "Q", "--seq-file", "RIBBONS"),
        ("inner", "--family", "hl-P", "--lambda", "2,1", "--n", "3"),
    ],
)
def test_conflicting_specializations_exit_two(capsys, ribbon_path, command, flags):
    argv = [ribbon_path if arg == "RIBBONS" else arg for arg in command]
    code, out, err = invoke(capsys, *argv, *flags)
    assert code == 2 and out == ""
    assert err == "error: give at most one of --at-root, --at-value and --at-q/--at-t\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--at-q", "2"), "--at-q and --at-t must be given together"),
        (("--at-t", "2"), "--at-q and --at-t must be given together"),
        (("--at-root", "0"), "root order must be positive"),
    ],
)
def test_incomplete_specializations_exit_two(capsys, flags, message):
    code, out, err = invoke(
        capsys, "inner", "--family", "mac-P", "--lambda", "2", "--n", "2", *flags
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _count_subparsers(monkeypatch):
    import argparse

    declared = []
    original = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        declared.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return declared


def test_named_command_declares_one_subparser(capsys, monkeypatch, ribbon_path):
    declared = _count_subparsers(monkeypatch)
    code, _, _ = invoke(
        capsys, "--seed", "check", "--family", "skew-s", "--ring", "Z",
        "--seq-file", ribbon_path,
    )
    assert code == 0 and declared == ["check"]
    declared.clear()
    with pytest.raises(SystemExit):
        run(["--help"])
    assert declared == ["expand", "inner", "skew", "tabloids", "check", "oracle", "probe"]


def _full_parser_outcome(capsys, argv):
    """(exit code, stdout, stderr) of argv parsed by the parser that declares
    every subcommand, as ``run`` reports a parse."""
    from symgen.cli import CliError, _build_parser

    try:
        _build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["check", "--help"],
        ["--seed-manifest", "oracle", "-h"],
        ["chek", "--family", "s"],
        ["check", "--family", "s"],
        [],
    ],
)
def test_parse_outcome_matches_full_parser(capsys, argv):
    want = _full_parser_outcome(capsys, argv)
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want
    assert want[0] in (0, 2) and (want[1] or want[2])


def test_seed_abbreviation_and_manifest_keys_match_full_parser(capsys):
    from symgen.cli import _build_parser

    argv = ["--seed", "inner", "--family", "s", "--lambda", "2,1", "--n", "3"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    manifest = json.loads(out.splitlines()[0])
    parsed = vars(_build_parser().parse_args(argv))
    assert parsed.pop("seed_manifest") is True
    assert manifest["invocation"] == parsed


@pytest.mark.parametrize(
    "argv, shown",
    [(["--help"], ["expand", "inner", "skew", "tabloids", "check", "oracle", "probe"]),
     (["check", "--help"], ["--family", "--ring", "--seq-file", "--at-root"])],
)
def test_python_dash_m_help(argv, shown):
    # the only path on which run reads its argv from sys.argv
    src = str(Path(symgen.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "symgen", *argv],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert all(word in proc.stdout for word in shown)
