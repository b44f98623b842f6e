"""Golden-file regression: CLI output is frozen byte for byte.

Regenerate a file deliberately with, e.g.:
    symgen check --family skew-s --ring Z --seq-file tests/golden/ribbons5.txt \
        > tests/golden/check_skew_s.txt
"""

from pathlib import Path

import pytest

from symgen.cli import run

GOLDEN = Path(__file__).parent / "golden"
SEQ = str(GOLDEN / "ribbons5.txt")

CASES = {
    "check_skew_s.txt": (0, ["check", "--family", "skew-s", "--ring", "Z",
                             "--seq-file", SEQ]),
    "oracle_skew_m.txt": (1, ["oracle", "--family", "skew-m", "--ring", "Z",
                              "--seq-file", SEQ]),
    "oracle_skew_m_q.txt": (1, ["oracle", "--family", "skew-m", "--ring", "Q",
                                "--seq-file", SEQ]),
    "probe.txt": (0, ["probe", "--seq-file", SEQ, "--max-degree", "5"]),
    "expand_p3_s.txt": (0, ["expand", "--expr", "p[3]", "--to", "s"]),
    "expand_p12_s.txt": (0, ["expand", "--expr", "1*p[12]", "--to", "s"]),
    "inner_mac_j.txt": (0, ["inner", "--family", "mac-J", "--lambda", "2,2",
                            "--n", "4"]),
    "inner_hl_q.txt": (0, ["inner", "--family", "hl-Q", "--lambda", "2,1",
                           "--n", "3"]),
    "tabloids.txt": (0, ["tabloids", "--shape", "3,2", "--type", "2,2,1",
                         "--list"]),
    "skew_hl_p.txt": (0, ["skew", "--family", "hl-P", "--lambda", "3,2",
                          "--mu", "1"]),
    "skew_s_m.txt": (0, ["skew", "--family", "s", "--lambda", "3,2,1",
                         "--mu", "2", "--to", "m"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    expected_code, argv = CASES[name]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
