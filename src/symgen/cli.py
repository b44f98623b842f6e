"""Command-line front door.

Subcommands: expand, inner, skew, tabloids, check, oracle, probe.  Every
subcommand is a thin adapter over the library; output is byte-stable across
runs (canonical orders and renderings everywhere).

Verdict records are JSON lines with a fixed field order
(n, family, ring, criterion, reason, value[, det, independent, generates,
inner]).  Sequence files are UTF-8 text, one line per degree, "n: [lam]" or
"n: [lam]/[mu]", '#' comments, degrees consecutive from 1.

Exit codes: 0 success, 1 when a check/oracle run's overall verdict is false,
2 on parse errors (more than one of --at-root, --at-value and --at-q/--at-t
included), shapes that do not fit the degree (``inner`` included),
a ``--max-degree`` below 1 or beyond the file (or, for probe, beyond
``oracle.PROBE_MAX_DEGREE``, which is 8), or a criterion that disagrees with
its own exact value (one-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from fractions import Fraction
from functools import cache, partial

from . import __version__
from .criteria import (
    RINGS,
    FamilySpec,
    GradingViolation,
    Specialization,
    UnsupportedCombination,
    check_sequence,
    family,
    inner_value,
    parse_sequence_file,
    render_value,
    verdict_records,
)
from .deformed import skew_hl_P
from .oracle import conjecture_probe, verdict
from .partitions import parse_partition
from .symfunc import parse_symfunc, render_symfunc, skew, to_basis
from .tabloids import enumerate_tabloids, w


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class CliError(Exception):
    pass


@cache
def _formatter():
    """argparse's help formatter at the terminal width, read once per
    process: argparse builds a formatter for every declared argument, and
    each would otherwise query the terminal, though only help text uses it."""
    return partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


class _Default(int):
    """A --max-degree the user did not give: unlike a given one, it stops at
    the end of a shorter file instead of being rejected."""


# probe's last degree when --max-degree is not given
PROBE_DEFAULT_DEGREE = _Default(4)

# the skew subcommand's element constructors and default target bases
_SKEW_ELEMENTS = {
    **{b: (lambda lam, mu, b=b: skew(b, lam, mu), "h") for b in "mhesf"},
    "hl-P": (lambda lam, mu: skew_hl_P(lam, mu), "m"),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser with only ``command``'s subparser declared, or with all of
    them when ``command`` names none (None, ``--help``, a typo)."""
    parser = _Parser(
        prog="symgen", description=__doc__.splitlines()[0], formatter_class=_formatter()
    )
    parser.add_argument(
        "--seed-manifest",
        action="store_true",
        help="print a JSON manifest of the full invocation before the output",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, declare, _ = _COMMANDS[name]
        declare(sub.add_parser(name, help=help_text, formatter_class=_formatter()))
    return parser


def _named_command(argv: list[str]) -> str | None:
    """The subcommand argv names, when only --seed-manifest (or one of its
    abbreviations) comes before it; else None, and the full parser decides."""
    for arg in argv:
        if not arg.startswith("-"):
            return arg
        if len(arg) < 3 or not "--seed-manifest".startswith(arg):
            return None
    return None


def _expand_flags(p):
    p.add_argument("--expr", required=True, help='e.g. "s[2,1]" or "3*m[2,1] - 1*m[3]"')
    p.add_argument("--to", required=True, choices=list("mhepsf"))
    p.add_argument("--ring", default="Q", choices=["Q", "Qt", "Qqt"])


def _inner_flags(p):
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--n", type=int, required=True)
    _specialization_flags(p)


def _skew_flags(p):
    p.add_argument("--family", required=True, choices=list(_SKEW_ELEMENTS))
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default="")
    p.add_argument("--to", default=None, choices=list("mhepsf"))


def _tabloids_flags(p):
    p.add_argument("--shape", required=True)
    p.add_argument("--type", dest="typ", required=True)
    p.add_argument("--list", action="store_true")


def _sequence_flags(p):
    p.add_argument("--family", required=True)
    p.add_argument("--ring", required=True, choices=["Q", "Z", "Qt", "Qqt"])
    p.add_argument("--seq-file", required=True)
    _specialization_flags(p)


def _oracle_flags(p):
    _sequence_flags(p)
    p.add_argument("--max-degree", type=int, default=None)


def _probe_flags(p):
    p.add_argument("--seq-file", required=True)
    p.add_argument("--max-degree", type=int, default=PROBE_DEFAULT_DEGREE)


def _specialization_flags(p):
    p.add_argument("--at-root", type=int, default=None, metavar="K")
    p.add_argument("--at-value", default=None, metavar="RAT")
    p.add_argument("--at-q", default=None, metavar="RAT")
    p.add_argument("--at-t", default=None, metavar="RAT")


def _rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{flag}: not a rational number: {text}") from exc


def _specialization(args) -> Specialization | None:
    """The specialization the flags give: a root, a value or a (q,t) pair,
    at most one of them."""
    at_q, at_t = args.at_q, args.at_t
    pair = at_q is not None or at_t is not None
    if (args.at_root is not None) + (args.at_value is not None) + pair > 1:
        raise CliError("give at most one of --at-root, --at-value and --at-q/--at-t")
    if args.at_root is not None:
        return Specialization.at_root(args.at_root)
    if args.at_value is not None:
        return Specialization.at_value(_rational("--at-value", args.at_value))
    if pair:
        if at_q is None or at_t is None:
            raise CliError("--at-q and --at-t must be given together")
        return Specialization.at_pair(
            _rational("--at-q", at_q), _rational("--at-t", at_t)
        )
    return None


def _emit(line: str):
    sys.stdout.write(line + "\n")


def _manifest(args) -> dict:
    payload = {
        key: (str(value) if isinstance(value, Fraction) else value)
        for key, value in sorted(vars(args).items())
        if key != "seed_manifest"
    }
    return {"package": "symgen", "version": __version__, "invocation": payload}


def _cmd_expand(args) -> int:
    ring = RINGS[args.ring]
    element = parse_symfunc(args.expr, ring)
    _emit(render_symfunc(to_basis(element, args.to)))
    return 0


def _cmd_inner(args) -> int:
    spec = _family_spec_for_inner(args)
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu) if args.mu is not None else None
    value = inner_value(spec, lam, mu, args.n)
    rendered = render_value(value)
    _emit(rendered if rendered is not None else "undefined")
    return 0


def _family_spec_for_inner(args) -> FamilySpec:
    """The family over its generic ring, or over Q when specialized."""
    spz = _specialization(args)
    ring = family(args.family).rings[0] if spz is None else "Q"
    return FamilySpec(args.family, ring, spz)


def _cmd_skew(args) -> int:
    build, target = _SKEW_ELEMENTS[args.family]
    element = build(parse_partition(args.lam), parse_partition(args.mu))
    _emit(render_symfunc(to_basis(element, args.to or target)))
    return 0


def _cmd_tabloids(args) -> int:
    shape = parse_partition(args.shape)
    typ = parse_partition(args.typ)
    _emit(f"w={w(shape, typ)}")
    if args.list:
        for tabloid in enumerate_tabloids(shape, typ):
            _emit(tabloid.render())
    return 0


def _load_sequence(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_sequence_file(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_check(args) -> int:
    spec = FamilySpec(args.family, args.ring, _specialization(args))
    seq = _load_sequence(args.seq_file)
    result = check_sequence(spec, seq)
    for record in verdict_records(spec, result):
        _emit(json.dumps(record))
    _emit(f"overall={'true' if result.overall else 'false'}")
    return 0 if result.overall else 1


def _max_degree(requested: int | None, seq) -> int:
    """The last degree to run: a given ``requested`` must lie in 1..len(seq),
    else exit 2; None runs every degree, a ``_Default`` at most that many."""
    if requested is None:
        return len(seq)
    if isinstance(requested, _Default):
        return min(requested, len(seq))
    if requested < 1:
        raise CliError(f"--max-degree {requested} is below 1")
    if requested > len(seq):
        raise CliError(f"--max-degree {requested} exceeds the {len(seq)} degrees in the file")
    return requested


def _cmd_oracle(args) -> int:
    spec = FamilySpec(args.family, args.ring, _specialization(args))
    seq = _load_sequence(args.seq_file)
    records = verdict(spec, seq, _max_degree(args.max_degree, seq))
    for record in records:
        _emit(json.dumps(record))
    overall = bool(records) and records[-1]["generates"]
    _emit(f"overall={'true' if overall else 'false'}")
    return 0 if overall else 1


def _cmd_probe(args) -> int:
    seq = _load_sequence(args.seq_file)
    max_degree = _max_degree(args.max_degree, seq)
    for record in conjecture_probe(seq, max_degree):
        _emit(json.dumps(record))
    return 0


# name -> (help, flag declarer, handler), in the order --help lists them
_COMMANDS = {
    "expand": ("re-express a symmetric function", _expand_flags, _cmd_expand),
    "inner": ("closed-form <u_n, p_n> for a family", _inner_flags, _cmd_inner),
    "skew": ("expand a skew family element", _skew_flags, _cmd_skew),
    "tabloids": ("domino tabloid weight sums", _tabloids_flags, _cmd_tabloids),
    "check": ("criteria verdicts for a sequence file", _sequence_flags, _cmd_check),
    "oracle": ("determinant verdicts for a sequence file", _oracle_flags, _cmd_oracle),
    "probe": ("skew Hall-Littlewood conjecture probe", _probe_flags, _cmd_probe),
}


def run(argv=None) -> int:
    """One invocation; only the subcommand argv names is declared, so a job
    pays for its own parser and no other (argv None reads sys.argv)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(_named_command(argv))
    try:
        args = parser.parse_args(argv)
        if args.seed_manifest:
            _emit(json.dumps(_manifest(args)))
        return _COMMANDS[args.command][2](args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (UnsupportedCombination, GradingViolation, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
