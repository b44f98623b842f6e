"""Seeded sequence files and the job lists of the three benchmark workloads.

A job is one ``symgen`` CLI invocation on one generated sequence file.  The
generator knows nothing of symgen: it writes the documented file format
("n: [lam]" or "n: [lam]/[mu]" per degree) from its own partition sampler,
so symgen only ever sees the files.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``classical-oracle`` -- determinant oracle over Q/Z for the classical
  families; dominated by the m-basis change and the determinants.
* ``deformed-oracle`` -- oracle and probe for the deformed families;
  dominated by Gram-Schmidt construction and rational-function arithmetic.
* ``check-sweep`` -- many small closed-form ``check`` jobs over every family
  and specialization kind; dominated by per-job overhead and closed forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``symgen <command> [--family F --ring R] ...``."""

    name: str
    command: str  # "check" | "oracle" | "probe"
    family: str | None
    ring: str | None
    flags: tuple  # specialization and degree flags, e.g. ("--at-root", "3")
    entries: tuple  # ((lam, mu-or-None), ...) for degrees 1..N

    def file_text(self) -> str:
        lines = [f"# {self.name}"]
        for n, (lam, mu) in enumerate(self.entries, start=1):
            entry = _fmt(lam) if mu is None else f"{_fmt(lam)}/{_fmt(mu)}"
            lines.append(f"{n}: {entry}")
        return "\n".join(lines) + "\n"

    def argv(self, seq_file: Path) -> list[str]:
        argv = [self.command]
        if self.family is not None:
            argv += ["--family", self.family, "--ring", self.ring]
        return argv + ["--seq-file", str(seq_file), *self.flags]


def _fmt(lam) -> str:
    return "[" + ",".join(map(str, lam)) + "]"


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int) -> tuple:
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in _partitions(n - first, first)
    )


def _contains(mu, lam) -> bool:
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def _dealt(rng: random.Random, choices, count: int) -> list:
    """``count`` draws that use every choice once before any twice."""
    out: list = []
    while len(out) < count:
        deck = list(choices)
        rng.shuffle(deck)
        out += deck
    return out[:count]


# Sequences come in batches, one batch per spec.  At each degree the batch's
# entries are dealt rather than drawn independently, so every batch covers the
# partitions of small degrees evenly and the cost of a batch, which the
# metrics average over, depends little on the seed.

def _straight(rng: random.Random, count: int, length: int) -> list[tuple]:
    """``count`` sequences; degree-n entries are partitions of n."""
    columns = [_dealt(rng, _partitions(n, n), count) for n in range(1, length + 1)]
    return [tuple((column[i], None) for column in columns) for i in range(count)]


def _skew(rng: random.Random, count: int, length: int, max_inner: int, min_inner: int = 0):
    """``count`` sequences; degree-n entries are lam/mu with mu inside lam and
    min_inner <= |mu| <= max_inner."""
    sequences: list[list] = [[] for _ in range(count)]
    for n in range(1, length + 1):
        for entries, inner in zip(sequences, _dealt(rng, range(min_inner, max_inner + 1), count)):
            mu = rng.choice(_partitions(inner, inner))
            lam = rng.choice([lam for lam in _partitions(n + inner, n + inner) if _contains(mu, lam)])
            entries.append((lam, mu))
    return [tuple(entries) for entries in sequences]


def _batch(name, command, family, ring, flags, sequences) -> list[Job]:
    return [
        Job(f"{name}-{i}", command, family, ring, flags, entries)
        for i, entries in enumerate(sequences)
    ]


_ROOT3 = ("--at-root", "3")
_HALF = ("--at-value", "1/2")
_PAIR = ("--at-q", "2", "--at-t", "3")

# Every oracle spec runs on this many sequences.  Degrees are chosen so that
# each job takes well under a second: pacing (see run.py) cancels host speed
# best when the reference loop runs right after a short job.
ORACLE_COPIES = 3


def _classical_oracle(rng: random.Random) -> list[Job]:
    n = ORACLE_COPIES
    return [
        *_batch("oracle-s-Z", "oracle", "s", "Z", (), _straight(rng, n, 9)),
        *_batch("oracle-s-Q", "oracle", "s", "Q", (), _straight(rng, n, 10)),
        *_batch("oracle-skew-s-Z", "oracle", "skew-s", "Z", (), _skew(rng, n, 9, 2)),
        *_batch("oracle-skew-m-Q", "oracle", "skew-m", "Q", (), _skew(rng, n, 9, 2)),
        *_batch("oracle-m-Z", "oracle", "m", "Z", (), _straight(rng, n, 9)),
    ]


def _deformed_oracle(rng: random.Random) -> list[Job]:
    n = ORACLE_COPIES
    return [
        *_batch("oracle-hl-P-Qt", "oracle", "hl-P", "Qt", (), _straight(rng, n, 5)),
        *_batch("oracle-hl-Q-root3", "oracle", "hl-Q", "Q", _ROOT3, _straight(rng, n, 5)),
        *_batch("oracle-mac-P-pair", "oracle", "mac-P", "Q", _PAIR, _straight(rng, n, 3)),
        *_batch("oracle-mac-P-Qqt", "oracle", "mac-P", "Qqt", (), _straight(rng, n, 3)),
        # one-cell inner shapes throughout, so every probe costs about the same
        *_batch("probe", "probe", None, None, ("--max-degree", "4"), _skew(rng, n, 4, 1, 1)),
    ]


# (family, ring, specialization flags) of every check-sweep spec: straight
# classical families over Q and Z, skew ones over Z, the one-parameter
# deformations generic / at a root of unity / at a rational value, and the
# Macdonald families generic / at a rational pair.
_CHECK_SPECS = (
    [(fam, ring, ()) for fam in ("m", "f", "s") for ring in ("Q", "Z")]
    + [(fam, "Z", ()) for fam in ("skew-m", "skew-f", "skew-h", "skew-e", "skew-s")]
    + [
        (fam, ring, flags)
        for fam in ("hl-P", "hl-Q", "big-S", "whittaker")
        for ring, flags in (("Qt", ()), ("Q", _ROOT3), ("Q", _HALF))
    ]
    + [
        (fam, ring, flags)
        for fam in ("mac-P", "mac-J")
        for ring, flags in (("Qqt", ()), ("Q", _PAIR))
    ]
)
CHECK_SEQUENCES_PER_SPEC = 10
CHECK_LENGTH = 16
CHECK_MAX_INNER = 6
# A Macdonald check spends most of its time in the closed form of its last
# entries, whose cost varies tenfold with the shape; p(7) = 15 sequences deal
# every partition of the top degree exactly once.
CHECK_MACDONALD_LENGTH = 7
CHECK_MACDONALD_SEQUENCES = 15


def _check_sweep(rng: random.Random) -> list[Job]:
    jobs = []
    for fam, ring, flags in _CHECK_SPECS:
        if fam.startswith("skew-"):
            sequences = _skew(rng, CHECK_SEQUENCES_PER_SPEC, CHECK_LENGTH, CHECK_MAX_INNER)
        elif fam.startswith("mac-"):
            sequences = _straight(rng, CHECK_MACDONALD_SEQUENCES, CHECK_MACDONALD_LENGTH)
        else:
            sequences = _straight(rng, CHECK_SEQUENCES_PER_SPEC, CHECK_LENGTH)
        tag = "-".join([fam, ring, *[f.lstrip("-") for f in flags]]).replace("/", "_")
        jobs += _batch(f"check-{tag}", "check", fam, ring, flags, sequences)
    return jobs


WORKLOADS = {
    "classical-oracle": _classical_oracle,
    "deformed-oracle": _deformed_oracle,
    "check-sweep": _check_sweep,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs; the same (workload, seed) gives the same jobs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write_files(jobs: list[Job], directory: Path) -> list[Path]:
    """Write one sequence file per job; returns the paths in job order."""
    paths = []
    for job in jobs:
        path = directory / f"{job.name}.seq"
        path.write_text(job.file_text(), encoding="utf-8")
        paths.append(path)
    return paths
