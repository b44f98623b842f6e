"""symgen benchmark: seeded sequence files through ``symgen.cli.run``.

Run from the repository root:

    python3 bench/run.py --workload classical-oracle --seed 1 --seconds 30 --trace 0

Each job is one ``symgen.cli.run(argv)`` call on one generated sequence file,
started with every symgen memo cache empty and garbage collected, as in a
fresh ``symgen`` process.  The run repeats the workload's whole job list
while ``--seconds`` allows (at least once) and reports medians over those
repetitions; every job's output is checked against the invariants symgen
states, and later repetitions must reproduce the first byte for byte.

Times are paced against a reference loop.  On a shared host the speed of one
CPU drifts by a third or more within seconds and between minutes, so a raw
job time says as much about the neighbours as about symgen.  Right after
each timed job (and each set-up sample) the run times a fixed pure-Python
loop for a fifth as long (at least PACE_MIN_S), and reports the job's time scaled to the loop's
nominal REFERENCE_S: measured seconds * REFERENCE_S / measured loop seconds.
A change to symgen moves the job time and not the loop, so it shows in full;
a change in host speed moves both and cancels.  Raw medians are printed next
to the reported values.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see spans.py); a traced job's stdout must equal its untraced
stdout.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer, metric_units
from workloads import WORKLOADS, Job, make_jobs, write_files

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Fresh interpreters timed for set-up before each repetition of the jobs.
SETUP_PER_REPETITION = 5
# Nominal time of reference_loop (about its time on an idle 2.1 GHz host
# CPU); the time spent pacing after each sample, as a share of the sample
# and at least PACE_MIN_S, since a single loop is as noisy as a tiny job.
REFERENCE_S = 0.001
PACE_SHARE = 0.2
PACE_MIN_S = 0.003
# Budget for the informational degree ceiling of an oracle job.
CEILING_BUDGET_S = 10.0

# A fresh interpreter that imports symgen.cli, parses the first job's argv and
# sequence file, and prints the monotonic clock (shared across processes).
_SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from symgen import cli
from symgen.criteria import parse_sequence_file
args = cli._build_parser().parse_args(json.loads(sys.argv[2]))
with open(args.seq_file, encoding="utf-8") as handle:
    parse_sequence_file(handle.read())
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "spec_max_s": "s",
    "peak_rss_mb": "MB",
}


def load_symgen():
    """Import symgen from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    try:
        import symgen.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import symgen from {SRC}: {exc}")
    if not Path(symgen.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: symgen imported from {symgen.__file__}, not {SRC}")
    return symgen


def memo_caches() -> list:
    """Every lru_cache in symgen (collected before any tracing wrapper)."""
    caches = []
    for key, module in sorted(sys.modules.items()):
        if key.split(".")[0] != "symgen":
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == key and value not in caches:
                caches.append(value)
    return caches


def reference_loop() -> dict:
    """Fixed work in symgen's own idiom: Fraction sums in a tuple-keyed dict."""
    acc: dict = {}
    for i in range(1, 400):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 11 + 1)
    return acc


def pace(seconds: float) -> float:
    """Mean time of reference_loop, run for at least ``seconds`` (and once)."""
    count, start = 0, perf_counter()
    while True:
        reference_loop()
        count += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return elapsed / count


def paced(seconds: float) -> float:
    """A measured time scaled to the reference speed (see the module doc)."""
    return seconds * REFERENCE_S / pace(max(PACE_SHARE * seconds, PACE_MIN_S))


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None
    degree_starts: tuple = ()
    paced_seconds: float | None = None  # set for untraced repetitions


def run_job(cli, caches, argv, tracer: Tracer | None = None) -> Outcome:
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    if tracer is not None:
        tracer.job_started()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # a crash is a failed job, reported, not fatal to the run
        error = traceback.format_exc()
    seconds = perf_counter() - start
    degree_starts = ()
    if tracer is not None:
        tracer.job_finished()
        degree_starts = tuple((n, t - start) for n, t in tracer.degree_starts)
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, error, degree_starts)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _spec(job: Job):
    from symgen.criteria import FamilySpec, Specialization

    flags = dict(zip(job.flags[::2], job.flags[1::2]))
    spz = None
    if "--at-root" in flags:
        spz = Specialization.at_root(int(flags["--at-root"]))
    elif "--at-value" in flags:
        spz = Specialization.at_value(Fraction(flags["--at-value"]))
    elif "--at-q" in flags:
        spz = Specialization.at_pair(Fraction(flags["--at-q"]), Fraction(flags["--at-t"]))
    return FamilySpec(job.family, job.ring, spz)


def check_outcome(job: Job, outcome: Outcome) -> list[str]:
    """Problems with one job's result: a crash, exit 2, or a broken invariant.

    oracle: value == inner, and generates is the running AND of criterion.
    check:  criterion == value_is_unit(value), value recomputed here.
    probe:  nonzero agrees with the rendered value.
    Exit 1 ("verdict false") is a success when the records say so.
    """
    from symgen.criteria import inner_value, render_value, value_is_unit

    if outcome.error is not None:
        return [f"raised: {outcome.error.strip().splitlines()[-1]}"]
    if outcome.stderr:
        return [f"exit {outcome.code}, stderr: {outcome.stderr.strip()}"]
    lines = outcome.stdout.splitlines()
    problems = []
    if job.command == "probe":
        records = [json.loads(line) for line in lines]
        if outcome.code != 0:
            problems.append(f"exit {outcome.code}")
        for rec in records:
            if rec["nonzero"] != (rec["value"] != "(0)"):
                problems.append(f"n={rec['n']}: nonzero={rec['nonzero']} but value {rec['value']}")
        expected = min(int(job.flags[job.flags.index("--max-degree") + 1]), len(job.entries))
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        return problems

    if not lines or lines[-1] not in ("overall=true", "overall=false"):
        return [f"exit {outcome.code}, no overall line"]
    records = [json.loads(line) for line in lines[:-1]]
    overall = lines[-1] == "overall=true"
    if outcome.code != (0 if overall else 1):
        problems.append(f"exit {outcome.code} with {lines[-1]}")
    if len(records) != len(job.entries):
        problems.append(f"{len(records)} records for {len(job.entries)} degrees")
    spec = _spec(job)
    running = True
    for rec, (lam, mu) in zip(records, job.entries):
        n = rec["n"]
        running = running and rec["criterion"]
        if job.command == "oracle":
            if rec["value"] != rec["inner"]:
                problems.append(f"n={n}: value {rec['value']} != inner {rec['inner']}")
            if rec["generates"] != running:
                problems.append(f"n={n}: generates={rec['generates']}, criteria say {running}")
        else:
            value = inner_value(spec, lam, mu, n)
            if render_value(value) != rec["value"]:
                problems.append(f"n={n}: value {rec['value']} != recomputed {render_value(value)}")
            if rec["criterion"] != value_is_unit(spec, value):
                problems.append(f"n={n}: criterion={rec['criterion']} but value {rec['value']}")
    if overall != running:
        problems.append(f"{lines[-1]} but criteria say {running}")
    return problems


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def setup_sample(first_argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    symgen.cli and parsed the first job's argv and sequence file."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(first_argv)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


class Run:
    """The job list of one workload, run repeatedly and checked."""

    def __init__(self, symgen, jobs: list[Job], argvs: list[list[str]]):
        self.symgen, self.jobs, self.argvs = symgen, jobs, argvs
        self.caches = memo_caches()
        self.reference: list[Outcome] | None = None  # first untraced repetition
        self.bad_jobs: set[int] = set()  # indices whose reference run failed a check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repetition(self, tracer: Tracer | None = None) -> list[Outcome]:
        outcomes = []
        for argv in self.argvs:
            outcome = run_job(self.symgen.cli, self.caches, argv, tracer)
            if tracer is None:
                outcome.paced_seconds = paced(outcome.seconds)
            outcomes.append(outcome)
        for j, (job, outcome) in enumerate(zip(self.jobs, outcomes)):
            if self.reference is None:
                problems = check_outcome(job, outcome)
                if problems:
                    self.bad_jobs.add(j)
            elif _result(outcome) != _result(self.reference[j]):
                what = "traced" if tracer is not None else "repeated"
                problems = [f"{what} output differs from the first run"]
            elif j in self.bad_jobs:
                problems = ["repeats the first run's failure"]
            else:
                problems = []
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems]
        if self.reference is None:
            self.reference = outcomes
        return outcomes


def _result(outcome: Outcome) -> tuple:
    return outcome.code, outcome.stdout, outcome.error is None


def _wall(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def repeat_within(seconds: float, step) -> list:
    """Call step() at least once, and again while another call of the same
    length still ends within ``seconds`` of the start."""
    start = perf_counter()
    results = []
    while True:
        began = perf_counter()
        results.append(step())
        took = perf_counter() - began
        if perf_counter() + took - start > seconds:
            return results


def end_to_end(run: Run, seconds: float, first_argv: list[str]) -> tuple[dict, dict]:
    """Metrics and, for each, the samples it summarizes.

    Each job's time is the median of its paced times over the repetitions;
    wall_s sums them and job_p50_s is their median.  spec_max_s is the mean
    job time of the slowest spec (the jobs of one family, ring and
    specialization, which differ only in their random sequence): the slowest
    single job depends on which sequences a seed happens to draw.
    Set-up samples are taken between repetitions so that their median, too,
    spans the whole run.
    """
    setup_sample(first_argv)  # compiles the bytecode; not timed
    setup: list[tuple[float, float]] = []  # (raw, paced)

    def step():
        for _ in range(SETUP_PER_REPETITION):
            raw = setup_sample(first_argv)
            setup.append((raw, paced(raw)))
        return run.repetition()

    reps = repeat_within(seconds, step)
    jobs = range(len(run.jobs))
    raw_s = [statistics.median(rep[j].seconds for rep in reps) for j in jobs]
    job_s = [statistics.median(rep[j].paced_seconds for rep in reps) for j in jobs]
    if len(run.jobs) <= 20:
        for job, raw, value in zip(run.jobs, raw_s, job_s):
            print(f"job {job.name}: {value:.4f} s paced, {raw:.4f} s raw")
    specs: dict[str, list[float]] = {}
    for job, value in zip(run.jobs, job_s):
        specs.setdefault(job.name.rsplit("-", 1)[0], []).append(value)
    spec_s = {name: statistics.fmean(values) for name, values in specs.items()}
    slowest = max(spec_s, key=spec_s.get)
    slowest_job = run.jobs[job_s.index(max(job_s))].name
    raw_setup = statistics.median(raw for raw, _ in setup)
    described = f"{len(run.jobs)} jobs, median of {len(reps)} repetitions each"
    values = {
        "setup_s": statistics.median(value for _, value in setup),
        "wall_s": sum(job_s),
        "job_p50_s": statistics.median(job_s),
        "spec_max_s": spec_s[slowest],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    basis = {
        "setup_s": f"median of {len(setup)} fresh interpreters; raw {raw_setup:.4f} s",
        "wall_s": f"{described}; raw {sum(raw_s):.4f} s",
        "job_p50_s": f"{described}; raw {statistics.median(raw_s):.4f} s",
        "spec_max_s": f"{described}; slowest spec {slowest} ({len(specs[slowest])} jobs);"
        f" slowest job {slowest_job}, {max(job_s):.4f} s",
        "peak_rss_mb": f"process peak over {run.attempted} job runs",
    }
    return values, basis


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    plain_walls, traced_walls, tracers = [], [], []

    def pair():
        plain_walls.append(_wall(run.repetition()))
        tracer = Tracer()
        with tracer.patched():
            traced = run.repetition(tracer)
        traced_walls.append(_wall(traced))
        tracers.append((tracer, traced))

    repeat_within(seconds, pair)
    print(f"repetitions: {len(tracers)} untraced + {len(tracers)} traced of {len(run.jobs)} jobs")
    _print_degrees(run.jobs, tracers[0][1])
    samples = [tracer.metrics() for tracer, _ in tracers]
    metrics = {}
    for name in samples[0]:
        # counts repeat exactly; times are medians over the traced repetitions
        metrics[name] = statistics.median(s[name] for s in samples)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return metrics


def _print_degrees(jobs: list[Job], outcomes: list[Outcome]):
    """Cumulative traced time to finish each degree of each oracle job, and
    the highest degree finished within CEILING_BUDGET_S (informational)."""
    for job, outcome in zip(jobs, outcomes):
        starts = outcome.degree_starts
        if not starts:
            continue
        ends = [t for _, t in starts[1:]] + [outcome.seconds]
        done = [(n, t) for (n, _), t in zip(starts, ends)]
        within = [n for n, t in done if t <= CEILING_BUDGET_S]
        ceiling = max(within) if within else 0
        cells = " ".join(f"{n}:{t:.3f}" for n, t in done)
        note = " (every degree in the file)" if ceiling == done[-1][0] else ""
        print(f"degrees {job.name}: {cells} s; ceiling({CEILING_BUDGET_S:g} s) = {ceiling}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    symgen = load_symgen()
    jobs = make_jobs(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        argvs = [job.argv(path) for job, path in zip(jobs, write_files(jobs, Path(work)))]
        run = Run(symgen, jobs, argvs)
        # What is alive now lives for the whole run: keep it out of the
        # collection that precedes every job.
        gc.freeze()
        if args.trace:
            values, basis = per_layer(run, args.seconds), {}
            units = {name: unit for name, (unit, _) in metric_units().items()}
        else:
            values, basis = end_to_end(run, args.seconds, argvs[0])
            units = END_TO_END_UNITS

    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    print(
        f"{args.workload} seed {args.seed}: fail_ratio {run.failed / run.attempted:.4f}"
        f" ({run.failed} of {run.attempted} job runs failed)"
    )
    for name, value in values.items():
        print(f"{name:48s} {value:14.6f} {units[name]:5s} {basis.get(name, '')}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
