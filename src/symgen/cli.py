"""Command-line front door.

Subcommands: expand, inner, skew, tabloids, check, oracle, probe.  Every
subcommand is a thin adapter over the library; output is byte-stable across
runs (canonical orders and renderings everywhere).

Verdict records are JSON lines with a fixed field order
(n, family, ring, criterion, reason, value[, det, independent, generates,
inner]).  Sequence files are UTF-8 text, one line per degree, "n: [lam]" or
"n: [lam]/[mu]", '#' comments, degrees consecutive from 1.

Command lines read ``[--seed-manifest] COMMAND [FLAG ...]`` against one
flag table per subcommand (``_COMMANDS``).  A long flag may be given by any
unique prefix (``--seq`` for ``--seq-file``) and its value as the next token
or after ``=`` (``--n=3``).  The token after a flag that takes a value is
that value, even when it starts with ``-`` (``--at-value -1/2``).  A flag
given twice keeps its last value.  ``-h``/``--help`` prints the usage of
symgen, or of the subcommand it follows, and exits 0.

Exit codes: 0 success, 1 when a check/oracle run's overall verdict is false,
2 on parse errors (an unknown or ambiguous flag, a missing required flag
or value, a rejected value, or more than one of --at-root, --at-value and
--at-q/--at-t), shapes that do not fit the degree (``inner`` included),
a ``--max-degree`` below 1 or beyond the file (or, for probe, beyond
``oracle.PROBE_MAX_DEGREE``, which is 8), or a criterion that disagrees with
its own exact value (one-line diagnostic on stderr).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

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


class CliError(Exception):
    pass


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


class _Flag(NamedTuple):
    """One row of a flag table.  ``convert`` is ``str`` or ``int`` for a
    flag that takes a value, a tuple of the values it accepts, or ``bool``
    for a flag that takes none and sets True."""

    name: str
    dest: str
    convert: object
    required: bool = False
    default: object = None
    help: str = ""


_HELP = _Flag("--help", "help", bool, help="show this help and exit")
_TOP_FLAGS = (
    _Flag("--seed-manifest", "seed_manifest", bool, default=False,
          help="print a JSON manifest of the full invocation before the output"),
)
_BASES = tuple("mhepsf")
_SEQ_FILE = _Flag("--seq-file", "seq_file", str, True, help="one shape per degree")
_SPECIALIZATION_FLAGS = (
    _Flag("--at-root", "at_root", int, help="at a primitive root of unity of this order"),
    _Flag("--at-value", "at_value", str, help="the parameter at a rational"),
    _Flag("--at-q", "at_q", str, help="q at a rational, with --at-t"),
    _Flag("--at-t", "at_t", str, help="t at a rational, with --at-q"),
)
_SEQUENCE_FLAGS = (
    _Flag("--family", "family", str, True, help="the family of every u_n"),
    _Flag("--ring", "ring", ("Q", "Z", "Qt", "Qqt"), True, help="the ring of coefficients"),
    _SEQ_FILE,
    *_SPECIALIZATION_FLAGS,
)
_EXPAND_FLAGS = (
    _Flag("--expr", "expr", str, True, help='e.g. "s[2,1]" or "3*m[2,1] - 1*m[3]"'),
    _Flag("--to", "to", _BASES, True, help="the target basis"),
    _Flag("--ring", "ring", ("Q", "Qt", "Qqt"), default="Q", help="the ring of coefficients"),
)
_INNER_FLAGS = (
    _Flag("--family", "family", str, True),
    _Flag("--lambda", "lam", str, True, help="the outer shape"),
    _Flag("--mu", "mu", str, help="the inner shape of a skew family"),
    _Flag("--n", "n", int, True, help="the degree of p_n"),
    *_SPECIALIZATION_FLAGS,
)
_SKEW_FLAGS = (
    _Flag("--family", "family", tuple(_SKEW_ELEMENTS), True),
    _Flag("--lambda", "lam", str, True),
    _Flag("--mu", "mu", str, default=""),
    _Flag("--to", "to", _BASES, help="the target basis (default h, m for hl-P)"),
)
_TABLOIDS_FLAGS = (
    _Flag("--shape", "shape", str, True),
    _Flag("--type", "typ", str, True),
    _Flag("--list", "list", bool, default=False, help="list every tabloid"),
)
_ORACLE_FLAGS = (
    *_SEQUENCE_FLAGS,
    _Flag("--max-degree", "max_degree", int, help="the last degree (default: all)"),
)
_PROBE_FLAGS = (
    _SEQ_FILE,
    _Flag("--max-degree", "max_degree", int, default=PROBE_DEFAULT_DEGREE,
          help="the last degree (default 4)"),
)


def _lookup(name: str, flags) -> _Flag | None:
    """The row ``name`` spells: -h, a long flag, or a unique prefix of one.
    None when it spells no flag; CliError when it is a prefix of several."""
    if name == "-h":
        return _HELP
    if name[:2] != "--" or name == "--":
        return None
    rows = (*flags, _HELP)
    found = [row for row in rows if row.name == name] or [
        row for row in rows if row.name.startswith(name)
    ]
    if len(found) > 1:
        spelled = ", ".join(row.name for row in found)
        raise CliError(f"ambiguous option: {name} could match {spelled}")
    return found[0] if found else None


def _converted(flag: _Flag, value: str):
    if flag.convert is int:
        try:
            return int(value)
        except ValueError:
            raise CliError(f"argument {flag.name}: invalid int value: {value!r}") from None
    if isinstance(flag.convert, tuple) and value not in flag.convert:
        raise CliError(
            f"argument {flag.name}: invalid choice: {value!r} "
            f"(choose from {', '.join(flag.convert)})"
        )
    return value


def _spelled(flag: _Flag) -> str:
    if flag.convert is bool:
        return flag.name
    if isinstance(flag.convert, tuple):
        return f"{flag.name} {{{','.join(flag.convert)}}}"
    return f"{flag.name} {flag.dest.upper()}"


def _usage(flags) -> str:
    return " ".join(_spelled(flag) if flag.required else f"[{_spelled(flag)}]" for flag in flags)


def _rows(rows) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(f"  {left:<{width}}{text}".rstrip() for left, text in rows)


class _Parser:
    """The command line read against ``_COMMANDS``' flag tables:
    ``[--seed-manifest] COMMAND [FLAG ...]`` (see the module doc)."""

    def parse_args(self, argv) -> SimpleNamespace:
        """argv as a namespace of seed_manifest, command and every dest of
        the command's flags (its default when not given).  CliError on a
        rejected argv; SystemExit(0) once a requested help is printed."""
        values, unknown = {"seed_manifest": False}, []
        at = self._read(argv, 0, None, values, unknown)
        if at == len(argv):
            raise CliError(f"a command is required: {', '.join(_COMMANDS)}")
        command = argv[at]
        if command not in _COMMANDS:
            raise CliError(
                f"invalid command: {command!r} (choose from {', '.join(_COMMANDS)})"
            )
        flags = _COMMANDS[command][1]
        values["command"] = command
        values.update((flag.dest, flag.default) for flag in flags)
        self._read(argv, at + 1, command, values, unknown)
        # a required flag defaults to None, and a given value is never None
        missing = [flag.name for flag in flags if flag.required and values[flag.dest] is None]
        if missing:
            raise CliError(f"the following arguments are required: {', '.join(missing)}")
        if unknown:
            raise CliError(f"unrecognized arguments: {' '.join(unknown)}")
        return SimpleNamespace(**values)

    def _read(self, argv, at, command, values, unknown) -> int:
        """Reads the flags of ``command`` (the top level when None) from
        argv[at:] in order, up to the command's name on the top level, and
        returns where it stopped.  The token after a flag that takes a value
        is that value.  Tokens that spell no flag are kept in ``unknown``.
        After -h/--help the rest is read but not applied, so only an
        ambiguous prefix still fails; then the help is printed."""
        flags = _TOP_FLAGS if command is None else _COMMANDS[command][1]
        helping = False
        while at < len(argv):
            token = argv[at]
            if token[:1] != "-" or token == "-":
                if command is None:
                    break
                unknown.append(token)
                at += 1
                continue
            at += 1
            name, eq, value = token.partition("=")
            flag = _lookup(name, flags)
            if flag is None:
                unknown.append(token)
                continue
            if flag.convert is not bool and not eq:
                if at == len(argv):
                    if helping:
                        break
                    raise CliError(f"argument {flag.name}: expected one argument")
                value = argv[at]
                at += 1
            if helping:
                continue
            if flag.convert is bool and eq:
                raise CliError(f"argument {flag.name}: ignored explicit argument {value!r}")
            if flag is _HELP:
                helping = True
                continue
            values[flag.dest] = True if flag.convert is bool else _converted(flag, value)
        if helping:
            sys.stdout.write(self.help(command))
            raise SystemExit(0)
        return at

    def help(self, command: str | None = None) -> str:
        """The usage of ``command``, or of the top level when None."""
        if command is None:
            flags = _TOP_FLAGS
            usage = f"[-h] {_usage(flags)} COMMAND [FLAG ...]"
            commands = [(name, spec[0]) for name, spec in _COMMANDS.items()]
            text = f"{__doc__.splitlines()[0]}\n\ncommands:\n{_rows(commands)}"
        else:
            text, flags, _ = _COMMANDS[command]
            usage = f"{command} [-h] {_usage(flags)}"
        rows = [("-h, --help", _HELP.help)] + [(_spelled(flag), flag.help) for flag in flags]
        return f"usage: symgen {usage}\n\n{text}\n\noptions:\n{_rows(rows)}\n"


def _build_parser() -> _Parser:
    return _Parser()


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


# name -> (help, flag table, handler), in the order --help lists them
_COMMANDS = {
    "expand": ("re-express a symmetric function", _EXPAND_FLAGS, _cmd_expand),
    "inner": ("closed-form <u_n, p_n> for a family", _INNER_FLAGS, _cmd_inner),
    "skew": ("expand a skew family element", _SKEW_FLAGS, _cmd_skew),
    "tabloids": ("domino tabloid weight sums", _TABLOIDS_FLAGS, _cmd_tabloids),
    "check": ("criteria verdicts for a sequence file", _SEQUENCE_FLAGS, _cmd_check),
    "oracle": ("determinant verdicts for a sequence file", _ORACLE_FLAGS, _cmd_oracle),
    "probe": ("skew Hall-Littlewood conjecture probe", _PROBE_FLAGS, _cmd_probe),
}


def run(argv=None) -> int:
    """One invocation (argv None reads sys.argv)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
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
