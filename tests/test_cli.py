import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symgen
from symgen.cli import _COMMANDS, CliError, _build_parser, run
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

from exact_reference import reference_parser


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(*argv):
    """A fresh interpreter on argv, importing symgen from this checkout."""
    src = str(Path(symgen.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


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
    proc = _python(
        "-m", "symgen", "oracle", "--family", "m", "--ring", "Z",
        "--seq-file", str(path), "--max-degree", "2",
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


def test_parsing_reads_no_terminal_width(monkeypatch, ribbon_path):
    import shutil

    def refused(*args, **kwargs):
        raise AssertionError("the parser queried the terminal")

    monkeypatch.setattr(shutil, "get_terminal_size", refused)
    parser = _build_parser()
    args = parser.parse_args(["check", "--family", "s", "--ring", "Q", "--seq-file", ribbon_path])
    assert args.seq_file == ribbon_path
    with pytest.raises(SystemExit):
        parser.parse_args(["check", "--help"])


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


def test_cli_run_imports_no_argparse(ribbon_path):
    script = (
        "import sys\n"
        "from symgen import cli\n"
        "code = cli.run(['--seed', 'check', '--family', 'skew-s', '--ring', 'Z',"
        f" '--seq-file', {ribbon_path!r}])\n"
        "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)),"
        " sorted({'argparse', 'shutil'} & set(vars(cli))))\n"
    )
    proc = _python("-c", script)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 [] []"


def _outcome(parse, capsys):
    """(what ``parse()`` returns or its exit code, the long flags named on
    stdout, the heads of the stderr lines): 0 after a help, 2 on a rejected
    argv."""
    try:
        code = parse()
    except SystemExit as exc:
        code = exc.code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    captured = capsys.readouterr()
    named = set(re.findall(r"--[a-z][a-z-]*", captured.out))
    return code, named, [line.split(":")[0] for line in captured.err.splitlines()]


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
    # argparse declaring every subcommand from the same flag tables: run
    # exits as it does, prints a help naming the same flags, or one error line
    want = _outcome(lambda: reference_parser().parse_args(argv), capsys)
    assert _outcome(lambda: run(argv), capsys) == want
    assert (want[0] == 0 and want[1] and not want[2]) or want == (2, set(), ["error"])


def test_seed_abbreviation_and_manifest_keys_match_full_parser(capsys):
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
    proc = _python("-m", "symgen", *argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert all(word in proc.stdout for word in shown)


@pytest.mark.parametrize(
    "family, flags",
    [("hl-P", ("--at-value", "-1/2")), ("mac-P", ("--at-q", "-2", "--at-t", "-1/3"))],
)
def test_value_may_start_with_a_dash(capsys, family, flags):
    argv = ("inner", "--family", family, "--lambda", "2", "--n", "2")
    joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    code, out, err = invoke(capsys, *argv, *flags)
    assert code == 0 and err == "" and out.strip() not in ("", "undefined")
    assert (code, out, err) == invoke(capsys, *argv, *joined)


# (accepted, rejected) values of a flag; argparse reads the dashed ones
# only after "="
_TEST_VALUES = {
    int: (["3", "-1", "0"], ["x", "2.5"]),
    str: (["s", "2,1", "[2]", "1/2", "-1/2", "-x", "-h", "--n", "a=b"], []),
}


def _flag_tokens(draw, flag):
    """(tokens, the same with a dashed value joined by "="), for one use of
    a flag of the table, spelled out or, half the time, by a prefix of at
    least three characters, which may be ambiguous; one use in eight is
    rejected."""
    name = flag.name
    if draw(st.booleans()):
        name = draw(st.sampled_from([name[:k] for k in range(3, len(name) + 1)]))
    rejected = draw(st.integers(0, 7)) == 0
    if flag.convert is bool:
        tokens = [f"{name}=x"] if rejected else [name]
        return tokens, tokens
    accepted, bad = _TEST_VALUES.get(flag.convert) or (list(flag.convert), ["bad"])
    value = draw(st.sampled_from(bad if rejected and bad else accepted))
    if draw(st.booleans()):
        return [f"{name}={value}"], [f"{name}={value}"]
    return [name, value], [f"{name}={value}"] if value.startswith("-") else [name, value]


@st.composite
def argvs(draw):
    """(argv, argparse's argv): a command line drawn from the flag tables,
    with flags missing, repeated, abbreviated, unknown or after --help, in
    any order.  argparse's argv joins a value that starts with "-" to its
    flag, the one place where the two parsers read a command's flags
    differently."""
    top = draw(st.sampled_from([[], ["--seed-manifest"], ["--seed"], ["--s"], ["-h"]]))
    command = draw(st.sampled_from([*_COMMANDS, "chek"]))
    flags = _COMMANDS.get(command, (None, _COMMANDS["inner"][1]))[1]
    items = [_flag_tokens(draw, flag) for flag in flags if draw(st.integers(0, 7))]
    extras = draw(st.lists(st.sampled_from(
        ["repeat", "repeat", "unknown", "unknown=", "stray", "-h", "--help", "--he", "--a"]
    ), max_size=2))
    for extra in extras:
        if extra == "repeat":
            items.append(_flag_tokens(draw, draw(st.sampled_from(flags))))
        else:
            tokens = {"unknown": ["--bogus"], "unknown=": ["--bogus=1"], "stray": ["x"]}
            items.append((tokens.get(extra, [extra]),) * 2)
    items = draw(st.permutations(items))
    if draw(st.integers(0, 5)) == 0:  # a value flag with no value, at the end
        bare = [flag.name for flag in flags if flag.convert is not bool]
        items.append(([draw(st.sampled_from(bare))],) * 2)
    head = top + [command]
    ours = head + [token for tokens, _ in items for token in tokens]
    if command not in _COMMANDS:  # the flags are not the scope's: nothing to join
        return ours, ours
    return ours, head + [token for _, tokens in items for token in tokens]


_reference_parser = cache(reference_parser)


def _parsed(parser, argv):
    """The namespace as a dict, or the exit code of a rejected argv (2) or a
    printed help (0)."""
    try:
        with redirect_stdout(io.StringIO()):
            return vars(parser.parse_args(argv))
    except CliError:
        return 2
    except SystemExit as exc:
        return exc.code


@settings(max_examples=600, deadline=None)
@given(argvs())
@example((["inner", "--fam", "s", "--l=2", "--n", "2", "--n", "3"],) * 2)
@example((["check", "--help", "--at", "1"],) * 2)
@example((["check", "--family", "s", "--ring", "Q", "--seq-file", "f", "--max"],) * 2)
@example((["inner", "--family", "s", "--lambda", "2", "--n", "2", "--at-value", "-1/2"],
          ["inner", "--family", "s", "--lambda", "2", "--n", "2", "--at-value=-1/2"]))
def test_parser_matches_argparse(pair):
    ours, theirs = pair
    want = _parsed(_reference_parser(), theirs)
    assert _parsed(_build_parser(), ours) == want
    assert _parsed(_build_parser(), theirs) == want
