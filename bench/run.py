"""shortcat benchmark: time to a verdict, with every verdict checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-ledger

Run from the repository root. One process, one client, closed loop: the
next job starts when the previous one has finished. A pass runs every job of
the workload once in the seed's order. A run makes one untimed warm-up pass,
then repeats timed passes until ``--seconds`` have gone by and at least
MIN_PASSES whole passes are done; the last pass may stop part way. Each job's
time is its median over the timed passes.

Every job and set-up time is taken at the reference speed: reference(), a
fixed piece of pure-Python work, is timed just before and just after it, and
the time is scaled by REFERENCE_S over the mean of those two reference times.
On a 2-vCPU virtual machine that shares its host, the raw speed moved by a
factor of up to 1.7, in spells from under a second to many minutes; the
scaled times move far less, while a change to shortcat moves them as much as
the raw ones. The median reference
time of the run is printed, so the raw figures can be recovered.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

- setup_s: median of SETUP_REPEATS set-ups, each a fresh import of shortcat
  plus generating, serializing and writing the workload's inputs;
- jobs_per_s and instances_per_s: jobs, and report ``total-checked``
  instances, of one pass per second of the pass's summed per-job times;
- job_p50_ms and job_tail_ms: the median and TAIL_LEVEL percentile of the
  per-job times, with the level and counts printed beside it;
- peak_rss_mb: peak resident set of the process that ran the jobs (the
  children for cli-cold).

It also prints error_rate (wrong verdicts, raised exceptions and undocumented
exit codes per job attempted) and changed_reports (outputs whose SHA-256 or
per-family counts differ from bench/ledger.json); both must be 0, and any
job they count is reported as failed in the JSON line.

``--trace 1`` alternates untraced passes with passes that record spans
around each layer (bench/spans.py), and prints the per-layer metrics per pass
plus the tracing overhead; the layer times are raw, not scaled.
``--write-ledger`` records the ledger by running every job, every
completeness redirect included, once. The last line of
stdout is one JSON object; the exit code is 1 when any job failed.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # time a cold import; leave no __pycache__ in src/

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LEDGER = BENCH / "ledger.json"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Job and set-up times are scaled to a host on which one reference() call
# takes this long (see the module docstring): the host's own speed swings too
# widely for raw times to compare from one run to the next.
REFERENCE_S = 0.001
# A run goes on until it has this many whole timed passes, so that every
# job's time is the median of at least two samples. cli-cold's passes are
# short, and its jobs run in child processes that the reference follows less
# closely, so it takes more samples: six passes are about 15 s.
MIN_PASSES = {"validate-ladder": 2, "certify-roundtrip": 2, "kill-suite": 2, "cli-cold": 6}
# The tail percentile of each workload's per-job median times: the highest
# level with at least ten jobs beyond it. cli-cold has only 12 jobs, so its
# tail is p75, three jobs beyond.
TAIL_LEVEL = {"validate-ladder": 84, "certify-roundtrip": 85, "kill-suite": 94,
              "cli-cold": 75}


@dataclass
class Tally:
    times: dict[int, list[float]] = field(default_factory=dict)  # job index -> one per pass
    instances: dict[int, int] = field(default_factory=dict)  # job index -> total-checked
    passes: int = 0
    attempted: int = 0
    errors: int = 0
    changed: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    references: list[float] = field(default_factory=list)  # reference() seconds per job

    def job_times(self) -> list[float]:
        """Each job's median time over the passes. A slow spell of the host
        that covers fewer than half of a job's passes does not move it."""
        return [statistics.median(durations) for durations in self.times.values()]

    def pass_seconds(self) -> float:
        """The time of one pass at every job's median time."""
        return sum(self.job_times())

    def jobs_per_s(self) -> float:
        return len(self.times) / self.pass_seconds()

    def instances_per_s(self) -> float:
        return sum(self.instances.values()) / self.pass_seconds()


def reference() -> int:
    """Fixed pure-Python work of the kind shortcat does (tuple keys, dict
    updates, a sort, a comprehension); it touches nothing of shortcat."""
    counts: dict = {}
    for i in range(3000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items())
    return len({a for (a, b), c in ordered if c > 2 and b})


def reference_seconds() -> float:
    began = time.perf_counter()
    reference()
    return time.perf_counter() - began


def _beyond(n: int, level: float) -> int:
    return n - math.ceil(level / 100 * n)


def _percentile(values: list[float], level: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(level / 100 * len(ordered)), 1) - 1]


def _counts(text: str) -> tuple[dict[str, int], int]:
    """Per-family ``checked`` counts and ``total-checked`` of a report."""
    counts, total = {}, 0
    for line in text.splitlines():
        if line.startswith("checked "):
            family, n = line[len("checked "):].rsplit(" = ", 1)
            counts[family] = int(n)
        elif line.startswith("total-checked = "):
            total += int(line.split(" = ", 1)[1])
    return counts, total


def measure(jobs, seconds: float, ledger: dict, seen: dict, min_passes: int = 1,
            tracer=None) -> Tally:
    """Run passes over ``jobs`` until ``min_passes`` whole passes are done
    and ``seconds`` have gone by, so the last pass may stop part way; judge
    every output and compare it with the ledger."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        for index, job in enumerate(jobs):
            if tally.passes >= min_passes and time.perf_counter() - start >= seconds:
                return tally
            if tracer is not None:
                tracer.job += 1
            tally.attempted += 1
            # Each job starts with no garbage pending, and the benchmark's own
            # objects (ledger, inputs, spans) are kept out of the collector's
            # scans, as they would be in a process that ran only this call.
            gc.collect()
            gc.freeze()
            before = reference_seconds()
            began = time.perf_counter()
            crash = None
            try:
                raw = job.call(tracer)
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                crash = exc
            elapsed = time.perf_counter() - began
            # The host's speed can change within a job, so the reference is
            # taken on both sides of it.
            ref = (before + reference_seconds()) / 2
            tally.references.append(ref)
            tally.times.setdefault(index, []).append(elapsed * REFERENCE_S / ref)
            if crash is not None:
                tally.errors += 1
                tally.failed += 1
                tally.problems.append(f"{job.key}: raised {type(crash).__name__}: {crash}")
                continue
            text, problem = job.judge(raw)
            counts, total = _counts(text)
            tally.instances[index] = total
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            recorded = ledger.get(job.key)
            changes = []
            if recorded is None or recorded["sha256"] != digest:
                changes.append("output differs from the ledger")
            if recorded is not None and recorded["counts"] != counts:
                changes.append("checked counts differ from the ledger")
            if seen.setdefault(job.key, counts) != counts:
                changes.append("checked counts differ from an earlier pass")
            if problem:
                tally.errors += 1
                tally.problems.append(f"{job.key}: {problem}")
            if changes:
                tally.changed += 1
                tally.problems.append(f"{job.key}: {'; '.join(changes)}")
            tally.failed += bool(problem or changes)
        tally.passes += 1


def _drop_shortcat() -> None:
    for name in [n for n in sys.modules if n == "shortcat" or n.startswith("shortcat.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, every_redirect: bool = False):
    """Import shortcat afresh, then generate, serialize and write the inputs.
    Returns (jobs, seconds for all of it, seconds in the generators)."""
    _drop_shortcat()
    start = time.perf_counter()
    import shortcat.cli  # noqa: F401  (the import is part of set-up)
    jobs, generate_s = workloads.build(workload, ROOT, WORK, random.Random(seed), every_redirect)
    return jobs, time.perf_counter() - start, generate_s


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that only imports the CLI."""
    times = []
    for _ in range(IMPORT_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import shortcat.cli"], cwd=ROOT,
                       env=workloads.COLD_ENV, check=True, timeout=60)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _metric_table(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _emit(values: dict[str, float], section: str, tally: Tally, extra: dict[str, str]) -> None:
    units = _metric_table(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with "
                           f"BENCHMARK.json {section}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}{extra.get(name, '')}")
    attempted = tally.attempted
    print(f"error_rate = {tally.errors / attempted:.6g} ({tally.errors} of {attempted} jobs)")
    print(f"changed_reports = {tally.changed}")
    print(f"host reference() median {statistics.median(tally.references) * 1000:.4g} ms; "
          f"job and set-up times are scaled to {REFERENCE_S * 1000:g} ms")
    for line in tally.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


def _merge(a: Tally, b: Tally) -> Tally:
    times = {i: a.times.get(i, []) + b.times.get(i, []) for i in a.times.keys() | b.times.keys()}
    return Tally(times, {**a.instances, **b.instances}, a.passes + b.passes,
                 a.attempted + b.attempted,
                 a.errors + b.errors, a.changed + b.changed, a.failed + b.failed,
                 a.problems + b.problems, a.references + b.references)


def run(args) -> int:
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    setup_times, generate_times = [], []
    for _ in range(SETUP_REPEATS):  # only the last set-up's inputs stay alive
        before = reference_seconds()
        jobs, setup_s, generate_s = setup(args.workload, args.seed)
        ref = (before + reference_seconds()) / 2
        setup_times.append(setup_s * REFERENCE_S / ref)
        generate_times.append(generate_s)
    seen: dict = {}
    print(f"workload {args.workload} seed {args.seed} jobs-per-pass {len(jobs)} "
          f"cold-env PYTHONPATH={workloads.COLD_ENV['PYTHONPATH']} "
          f"PYTHONDONTWRITEBYTECODE={workloads.COLD_ENV['PYTHONDONTWRITEBYTECODE']}")
    setup_s = statistics.median(setup_times)
    # One untimed pass first. The first run of a job in a process is up to
    # 40% slower than later ones, while the interpreter specializes the code
    # and the heap grows; the in-process workloads measure a warm process
    # (cli-cold measures the cold one). The pass's verdicts still count.
    warm = dataclasses.replace(measure(jobs, 0, ledger, seen), times={})
    if not args.trace:
        level = TAIL_LEVEL[args.workload]
        tally = measure(jobs, args.seconds, ledger, seen, min_passes=MIN_PASSES[args.workload])
        job_times = tally.job_times()
        n = len(job_times)
        values = {
            "setup_s": setup_s,
            "jobs_per_s": tally.jobs_per_s(),
            "job_p50_ms": statistics.median(job_times) * 1000,
            "job_tail_ms": _percentile(job_times, level) * 1000,
            "instances_per_s": tally.instances_per_s(),
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        extra = {"job_tail_ms": f" (p{level} of {n} per-job medians over {tally.passes}+ "
                                f"passes; {_beyond(n, level)} jobs, "
                                f"{_beyond(n, level) * tally.passes}+ samples beyond)"}
        tally = _merge(warm, tally)
        _emit(values, "end_to_end", tally, extra)
        return 0 if tally.failed == 0 else 1

    # Single passes in the order untraced, traced, traced, untraced, ... so
    # that a drift in machine speed falls on both sides alike.
    plain, traced, tracer = Tally(), Tally(), Tracer()
    start = time.perf_counter()
    while plain.passes == 0 or plain.passes != traced.passes or (
            time.perf_counter() - start < args.seconds):
        if (plain.passes + traced.passes) % 4 in (1, 2):
            tracer.install()
            try:
                traced = _merge(traced, measure(jobs, 0, ledger, seen, tracer=tracer))
            finally:
                tracer.uninstall()
        else:
            plain = _merge(plain, measure(jobs, 0, ledger, seen))
    values = layer_metrics(tracer.spans, traced.passes)
    values["cli.import_s"] = import_seconds()
    values["catalogue.generate_s"] = statistics.median(generate_times)
    values["trace.overhead_jobs_per_s"] = plain.jobs_per_s() - traced.jobs_per_s()
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}; "
          f"untraced {plain.jobs_per_s():.6g} jobs/s over {plain.passes} passes, "
          f"traced {traced.jobs_per_s():.6g} jobs/s over {traced.passes} passes")
    tally = _merge(warm, _merge(plain, traced))
    _emit(values, "per_layer", tally, {})
    return 0 if tally.failed == 0 else 1


def write_ledger() -> int:
    """Run every job of every workload once and record its output hash and
    per-family counts. Refuses to write if any verdict is wrong or two jobs
    with one key disagree."""
    ledger: dict[str, dict] = {}
    bad = 0
    for workload in workloads.WORKLOADS:
        jobs, _, _ = setup(workload, 0, every_redirect=True)
        for job in jobs:
            text, problem = job.judge(job.call(None))
            entry = {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                     "counts": _counts(text)[0]}
            if problem or ledger.setdefault(job.key, entry) != entry:
                print(f"{workload}: {job.key}: {problem or 'disagrees with another job'}",
                      file=sys.stderr)
                bad += 1
        print(f"{workload}: {len(jobs)} jobs recorded")
    if bad:
        return 1
    lines = [f"{json.dumps(key)}: {json.dumps(ledger[key], sort_keys=True)}"
             for key in sorted(ledger)]
    LEDGER.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(ledger)} entries to {LEDGER.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-ledger", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "shortcat" / "__init__.py").is_file():
        print(f"error: no shortcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_ledger:
        return write_ledger()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":  # each workload in a fresh interpreter, one after another
        return max(subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for workload in workloads.WORKLOADS)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
