"""Self-tests of the benchmark harness (not part of the symgen test suite).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
from spans import Tracer, metric_units
from workloads import WORKLOADS, make_jobs, write_files

SYMGEN = run.load_symgen()

# One job per workload for the trace-fidelity check: a cheap one that still
# reaches the workload's characteristic layers.
FIDELITY_JOBS = {
    "classical-oracle": "oracle-skew-m-Q-0",
    "deformed-oracle": "oracle-hl-Q-root3-0",
    "check-sweep": "check-mac-P-Qqt-0",
}


def _files(workload, seed, directory):
    jobs = make_jobs(workload, seed)
    return jobs, [p.read_bytes() for p in write_files(jobs, directory)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_files_other_seed_other_files(workload, tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    _, first = _files(workload, 7, tmp_path / "a")
    _, again = _files(workload, 7, tmp_path / "b")
    _, other = _files(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_files_parse_and_meet_the_grading_rules(workload, tmp_path):
    from symgen.criteria import FamilySpec, check_sequence, parse_sequence_file

    jobs = make_jobs(workload, 1)
    for job, path in zip(jobs, write_files(jobs, tmp_path)):
        seq = parse_sequence_file(path.read_text(encoding="utf-8"))
        assert [(tuple(lam), None if mu is None else tuple(mu)) for lam, mu in seq] == list(
            job.entries
        )
        # the probe reads skew entries; grade it as a skew family
        spec = run._spec(job) if job.family else FamilySpec("skew-s", "Z")
        assert len(check_sequence(spec, seq).per_n) == len(job.entries)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_output_is_byte_identical(workload, tmp_path):
    jobs = make_jobs(workload, 1)
    paths = write_files(jobs, tmp_path)
    job, path = next((j, p) for j, p in zip(jobs, paths) if j.name == FIDELITY_JOBS[workload])
    caches = run.memo_caches()
    plain = run.run_job(SYMGEN.cli, caches, job.argv(path))
    tracer = Tracer()
    before = SYMGEN.cli.run
    with tracer.patched():
        assert SYMGEN.cli.run is not before
        traced = run.run_job(SYMGEN.cli, caches, job.argv(path), tracer)
    assert SYMGEN.cli.run is before
    assert run.check_outcome(job, plain) == []
    assert (traced.code, traced.stdout, traced.stderr) == (plain.code, plain.stdout, plain.stderr)
    metrics = tracer.metrics()
    assert metrics["cli.run.calls"] == 1
    assert metrics["criteria.parse_sequence_file.calls"] == 1
    if job.command == "oracle":
        assert [n for n, _ in traced.degree_starts] == list(range(1, len(job.entries) + 1))


def test_gate_rejects_a_wrong_record(tmp_path):
    jobs = make_jobs("classical-oracle", 1)
    job = next(j for j in jobs if j.name == "oracle-skew-m-Q-0")
    [path] = write_files([job], tmp_path)
    good = run.run_job(SYMGEN.cli, run.memo_caches(), job.argv(path))
    lines = good.stdout.splitlines()
    record = json.loads(lines[0])
    record["inner"] = "12345"
    bad = replace(good, stdout="\n".join([json.dumps(record)] + lines[1:]) + "\n")
    assert run.check_outcome(job, good) == []
    assert any("inner" in p for p in run.check_outcome(job, bad))
    assert run.check_outcome(job, replace(good, code=2)) != []


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metric_units()
