"""The benchmark's workloads: inputs built through shortcat's public API, and
jobs that time the calls a user makes.

Every job carries a ledger key. Jobs with the same key must print the same
bytes: ``validate`` with ``--jobs 2`` shares its key with ``--jobs 1``, and a
cold ``python -m shortcat.cli`` call shares its key with the in-process call.

shortcat is imported inside the functions, never at module level, so that
run.py can drop it from ``sys.modules`` and time a cold import on each set-up.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent

WORKLOADS = ("validate-ladder", "certify-roundtrip", "kill-suite", "cli-cold")

# The ladder: catalogue generators plus comm-monoid Z/n. Catalogue files are
# named by their structures (z2, klein, ...); the Z/n rungs are named zmodN.
LADDER_GENERATORS = ("terminal", "z2", "z3", "klein-four", "poset-skew-second",
                     "poset-skew-first", "heyting-2", "morphisms")
CYCLIC_ORDERS = (2, 3, 4, 5, 6)
JOBS2_ORDERS = (5, 6)  # the two largest rungs also run with --jobs 2

# cli-cold: the smallest catalogue files, so the interpreter start and the
# import dominate each call.
COLD_CALLS = (
    ("validate", "terminal.short-multi"), ("validate", "terminal.skew.short-skew"),
    ("validate", "terminal.mon.skew-monoidal"), ("validate", "terminal.cl.skew-closed"),
    ("validate", "z2.short-multi"), ("validate", "z2.mon.skew-monoidal"),
    ("certify", "terminal.short-multi"), ("certify", "terminal.skew.short-skew"),
    ("certify", "z2.short-multi"),
    ("roundtrip", "terminal.mon.skew-monoidal"), ("roundtrip", "terminal.cl.skew-closed"),
    ("roundtrip", "z2.mon.skew-monoidal"),
)

# The environment of every cold call, pinned rather than inherited. Bytecode
# is never written, so each call compiles every module, as a user without an
# installed package does, and src/ gets no __pycache__.
COLD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": "src",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONIOENCODING": "utf-8",
}

# One completeness redirect in REDIRECT_SHARE is drawn per run: one at random
# from each block of REDIRECT_SHARE consecutive entries of a stratum (ordered
# by table, then key), so every seed draws a sample spread alike over tables.
REDIRECT_SHARE = 8

DOCUMENTED_EXITS = (0, 1, 2, 3)


@dataclass
class Job:
    key: str
    call: Callable[[object], object]          # the timed call; gets the tracer or None
    judge: Callable[[object], tuple[str, Optional[str]]]  # -> (output, problem or None)


# --------------------------------------------------------------------------
# verdicts
# --------------------------------------------------------------------------

def _judge_exit(raw, expect_pass: bool) -> tuple[str, Optional[str]]:
    rc, text = raw
    if rc not in DOCUMENTED_EXITS:
        return text, f"undocumented exit code {rc}"
    if rc != 0:
        return text, f"exit code {rc}, expected 0"
    if expect_pass and "\nstatus PASS\n" not in text:
        return text, "report is not PASS"
    return text, None


def _judge_mutant(raw, family: str, subjects: tuple) -> tuple[str, Optional[str]]:
    report, text = raw
    if report.ok or not report.has_failure(family, subjects):
        return text, f"did not fail at {family} @ {','.join(subjects)}"
    return text, None


def _judge_redirect(raw) -> tuple[str, Optional[str]]:
    report, text = raw
    return text, None if not report.ok else "redirect validated as PASS"


# --------------------------------------------------------------------------
# job kinds
# --------------------------------------------------------------------------

def _cli_job(key: str, argv: list[str], expect_pass: bool) -> Job:
    from shortcat import cli

    def call(tracer):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()
    return Job(key, call, lambda raw: _judge_exit(raw, expect_pass))


def _cold_job(key: str, argv: list[str], root: Path, work: Path) -> Job:
    expect_pass = argv[0] != "certify"  # a certificate has no status line
    spans_file = work / "cold-spans.json"

    def call(tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "shortcat.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "spans.py"), str(spans_file), *argv]
        done = subprocess.run(cmd, cwd=root, env=COLD_ENV, capture_output=True,
                              text=True, encoding="utf-8", timeout=120)
        if tracer is not None:
            tracer.extend(json.loads(spans_file.read_text(encoding="utf-8")), tracer.job)
        return done.returncode, done.stdout
    return Job(key, call, lambda raw: _judge_exit(raw, expect_pass))


def _report_job(key: str, validate, payload, judge) -> Job:
    def call(tracer):
        report = validate(payload)
        return report, report.render()
    return Job(key, call, judge)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _cyclic_args(n: int) -> argparse.Namespace:
    elements = [str(i) for i in range(n)]
    rows = [" ".join(str((a + b) % n) for b in range(n)) for a in range(n)]
    return argparse.Namespace(elements=" ".join(elements), unit="0",
                              table=";".join(rows), monoid_name=f"zmod{n}")


def _stem(sf) -> str:
    return f"{sf.name}.{sf.kind}"


def _write(files, inputs: Path) -> dict[str, Path]:
    from shortcat.fileformat import serialize
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    for sf in files:
        path = inputs / f"{_stem(sf)}.txt"
        path.write_text(serialize(sf), encoding="utf-8")
        paths[_stem(sf)] = path
    return paths


def _ladder(inputs: Path):
    """Generate and write the ladder; returns (catalogue files, Z/n files by
    order, paths by stem, seconds spent generating)."""
    from shortcat import cli
    start = time.perf_counter()
    catalogue = [sf for g in LADDER_GENERATORS for sf in cli.catalogue_files(g)]
    cyclic = {n: cli.catalogue_files("comm-monoid", _cyclic_args(n)) for n in CYCLIC_ORDERS}
    generate_s = time.perf_counter() - start
    paths = _write(catalogue + [sf for fs in cyclic.values() for sf in fs], inputs)
    return catalogue, cyclic, paths, generate_s


def _validate_argv(sf, paths, plain_by_name) -> list[str]:
    argv = ["validate", str(paths[_stem(sf)])]
    if sf.kind == "morphism":
        argv += ["--source", str(paths[plain_by_name[sf.payload.source]]),
                 "--target", str(paths[plain_by_name[sf.payload.target]])]
    return argv


def _validate_ladder(inputs: Path):
    catalogue, cyclic, paths, generate_s = _ladder(inputs)
    plain_by_name = {sf.name: _stem(sf) for sf in catalogue if sf.kind == "short-multi"}
    jobs = []
    for sf in catalogue + [sf for fs in cyclic.values() for sf in fs]:
        jobs.append(_cli_job(f"validate {_stem(sf)}",
                             _validate_argv(sf, paths, plain_by_name), True))
    for n in JOBS2_ORDERS:
        for sf in cyclic[n]:
            jobs.append(_cli_job(f"validate {_stem(sf)}",
                                 _validate_argv(sf, paths, plain_by_name) + ["--jobs", "2"],
                                 True))
    return jobs, generate_s


def _constructions(sf) -> list[str]:
    if sf.kind == "short-multi":
        return ["k"]
    if sf.kind == "short-skew":
        return ["ks", "kcl"] + (["braiding-forward"] if sf.payload[1] is not None else [])
    if sf.kind == "braiding":
        return ["braiding-backward"]
    return []


def _certify_roundtrip(inputs: Path):
    catalogue, cyclic, paths, generate_s = _ladder(inputs)
    jobs = []
    for sf in catalogue + [sf for fs in cyclic.values() for sf in fs]:
        path = str(paths[_stem(sf)])
        if sf.kind in ("short-multi", "short-skew"):
            jobs.append(_cli_job(f"certify {_stem(sf)}", ["certify", path], False))
        elif sf.kind in ("skew-monoidal", "braiding", "skew-closed"):
            jobs.append(_cli_job(f"roundtrip {_stem(sf)}", ["roundtrip", path], True))
    for sf in catalogue:
        for which in _constructions(sf):
            jobs.append(_cli_job(f"construct-{which} {_stem(sf)}",
                                 ["construct", str(paths[_stem(sf)]), "--which", which], False))
    return jobs, generate_s


def _each_redirect(m, table_names, pool_of):
    """Single-entry redirects to the first alternative, as the completeness
    tests enumerate them."""
    for tname in table_names:
        table = getattr(m, tname)
        for key in sorted(table):
            pool = pool_of(table[key])
            if not pool:
                continue
            patched = dict(table)
            patched[key] = pool[0]
            label = "|".join(map(str, key)) if isinstance(key, tuple) else str(key)
            yield f"{tname}[{label}]", dataclasses.replace(m, **{tname: patched})


def _late(module, name: str):
    """Call ``module.name`` as bound at call time, so that a tracer installed
    after set-up sees the call."""
    return lambda payload: getattr(module, name)(payload)


def redirect_strata():
    """stratum -> (validator, [(label, redirected structure)]), the redirects
    that tests/test_completeness.py enumerates."""
    from shortcat import catalogue as cat
    from shortcat import shortmulti, shortskew, skewmon

    z2 = cat.catalogue_short_multis()["z2"]

    def z2_pool(current):
        return [x for x in z2.multimaps(z2.arity(current)) if x != current]

    poset = cat.poset2_first_short_skew()

    def poset_pool(current):
        n, _, _, fl = poset.info(current)
        return [x for x in sorted(poset._index)
                if x != current and poset.info(x)[0] == n and fl <= poset.info(x)[3]]

    def poset_j_pool(current):
        return [x for x in poset.multimaps("l", poset.info(current)[0]) if x != current]

    mon = cat.monoid_skew_monoidal(cat.z2_monoid())
    closed = cat.heyting2_skew_closed()

    def other_morphism(c):
        return lambda current: [x for x in c.base.morphisms() if x != current]

    def other_object(current):
        return [o for o in mon.base.objects if o != current]

    return {
        "z2": (_late(shortmulti, "validate_short_multicategory"),
               list(_each_redirect(z2, ("sub", "pre", "post"), z2_pool))),
        "poset2-first": (_late(shortskew, "validate_short_skew"),
                         list(_each_redirect(poset, ("sub", "pre", "post"), poset_pool))
                         + list(_each_redirect(poset, ("j",), poset_j_pool))),
        "z2.mon": (_late(skewmon, "validate_skew_monoidal"),
                   list(_each_redirect(mon, ("alpha", "lam", "rho", "tensor_mor"),
                                       other_morphism(mon)))
                   + list(_each_redirect(mon, ("tensor_obj",), other_object))),
        "heyting2.cl": (_late(skewmon, "validate_skew_closed"),
                        list(_each_redirect(closed, ("hom_mor", "iu", "ju", "ell"),
                                            other_morphism(closed)))),
    }


def _kill_suite(rng, every_redirect: bool):
    from shortcat import catalogue
    start = time.perf_counter()
    mutants = catalogue.catalogue_mutants()
    strata = redirect_strata()
    generate_s = time.perf_counter() - start
    validate_mutant = _late(catalogue, "validate_mutant")
    jobs = [_report_job(f"mutant {i:03d} {mut.name}", validate_mutant, mut,
                        lambda raw, f=mut.family, s=mut.subjects: _judge_mutant(raw, f, s))
            for i, mut in enumerate(mutants)]
    for stratum, (validate, entries) in strata.items():
        if not every_redirect:
            entries = [rng.choice(entries[i:i + REDIRECT_SHARE])
                       for i in range(0, len(entries), REDIRECT_SHARE)]
        jobs += [_report_job(f"redirect {stratum} {label}", validate, bad, _judge_redirect)
                 for label, bad in entries]
    return jobs, generate_s


def _cli_cold(root: Path, inputs: Path, work: Path):
    from shortcat import cli
    start = time.perf_counter()
    files = cli.catalogue_files("terminal") + cli.catalogue_files("z2")
    generate_s = time.perf_counter() - start
    paths = _write(files, inputs)
    jobs = [_cold_job(f"{command} {stem}", [command, str(paths[stem])], root, work)
            for command, stem in COLD_CALLS]
    return jobs, generate_s


def build(workload: str, root: Path, work: Path, rng, every_redirect: bool = False):
    """Generate, serialize and write the inputs of a workload and return its
    jobs in the seed's order, with the seconds spent in the generators."""
    inputs = work / "inputs" / workload
    if workload == "validate-ladder":
        jobs, generate_s = _validate_ladder(inputs)
    elif workload == "certify-roundtrip":
        jobs, generate_s = _certify_roundtrip(inputs)
    elif workload == "kill-suite":
        jobs, generate_s = _kill_suite(rng, every_redirect)
    elif workload == "cli-cold":
        jobs, generate_s = _cli_cold(root, inputs, work)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs, generate_s
