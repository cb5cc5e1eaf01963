import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from childenv import child_env
from shortcat import cli
from shortcat.catalogue import thin_skew_monoidal
from shortcat.cli import build_parser, catalogue_files
from shortcat.fileformat import KINDS, RawLaxFunctor, StructureFile, serialize
from shortcat.skewmon import identity_lax_functor
from test_kernel import _cyclic_files
from test_transport import indiscrete2


def run_cli(*args, env=None, **kwargs):
    return subprocess.run([sys.executable, "-m", "shortcat.cli", *args],
                          capture_output=True, text=True, env=child_env(env), **kwargs)


def test_catalogue_validate_certify_construct(tmp_path):
    out = run_cli("catalogue", "z2", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    short = tmp_path / "z2.short-multi.txt"
    assert short.exists()

    out = run_cli("validate", str(short))
    assert out.returncode == 0
    assert "status PASS" in out.stdout

    out = run_cli("certify", str(short), "--no-witnesses")
    assert out.returncode == 0
    assert "flag left-representable = yes" in out.stdout
    assert "flag representable = yes" in out.stdout
    assert "witness" not in out.stdout

    out = run_cli("certify", str(short))
    assert "witness" in out.stdout

    built = tmp_path / "z2.k.skew-monoidal.txt"
    out = run_cli("construct", str(short), "--which", "k", "--out", str(built))
    assert out.returncode == 0
    text = built.read_text()
    assert "provenance construction = k" in text
    assert "provenance source = z2" in text
    out = run_cli("validate", str(built))
    assert out.returncode == 0


def test_roundtrip_command(tmp_path):
    run_cli("catalogue", "poset-skew-first", "--out", str(tmp_path))
    out = run_cli("roundtrip", str(tmp_path / "poset2-first.skew-monoidal.txt"))
    assert out.returncode == 0, out.stderr
    run_cli("catalogue", "z2", "--out", str(tmp_path))
    out = run_cli("roundtrip", str(tmp_path / "z2.sym.braiding.txt"))
    assert out.returncode == 0
    assert "braiding-roundtrip" in out.stdout


def test_mutant_files_fail_at_their_annotation(capsys, tmp_path):
    """Every written mutant file fails `validate` at the family and subjects
    its annotation names, in the report the command prints (a braiding
    file's own families carry the braiding- prefix there)."""
    assert cli.main(["catalogue", "mutants", "--out", str(tmp_path)]) == cli.EXIT_PASS
    files = sorted(tmp_path.glob("mutant-*.txt"))
    assert len(files) >= 50
    capsys.readouterr()
    for sample in files:
        text = sample.read_text()
        family = subjects = None
        for line in text.splitlines():
            if line.startswith("provenance expect-fail-family = "):
                family = line.split(" = ", 1)[1]
            if line.startswith("provenance expect-fail-subjects = "):
                subjects = line.split(" = ", 1)[1].replace("|", ",")
        assert family and subjects, sample.name
        assert cli.main(["validate", str(sample)]) == cli.EXIT_FAIL, sample.name
        assert f"fail {family} @ {subjects} :" in capsys.readouterr().out, sample.name


def test_validate_mutant_reports_what_validate_prints(capsys, tmp_path):
    """For every catalogue mutant, the report validate prints on its written
    file is validate_mutant's below the report line, which names the file's
    structure. The one difference left: a braiding mutant's own families
    carry the braiding- prefix only in the printed report."""
    from shortcat.catalogue import catalogue_mutants, validate_mutant

    assert cli.main(["catalogue", "mutants", "--out", str(tmp_path)]) == cli.EXIT_PASS
    capsys.readouterr()
    prefixed = []
    for idx, mut in enumerate(catalogue_mutants()):
        (path,) = tmp_path.glob(f"mutant-{idx:03d}-*.txt")
        assert cli.main(["validate", str(path)]) == cli.EXIT_FAIL, path.name
        printed = capsys.readouterr().out.splitlines()[1:]
        expected = validate_mutant(mut).render().splitlines()[1:]
        if printed != expected:
            prefixed.append(idx)
            assert sorted(ln.replace("braiding-", "") for ln in printed) == sorted(expected), \
                path.name
    assert prefixed == [58, 59, 60]
    assert {catalogue_mutants()[idx].kind for idx in prefixed} == {"braiding"}


def test_morphism_validation_needs_source_and_target(tmp_path):
    run_cli("catalogue", "z2", "--out", str(tmp_path))
    run_cli("catalogue", "klein-four", "--out", str(tmp_path))
    run_cli("catalogue", "morphisms", "--out", str(tmp_path))
    mor = tmp_path / "z2-into-klein.morphism.txt"
    out = run_cli("validate", str(mor))
    assert out.returncode == 2
    out = run_cli("validate", str(mor),
                  "--source", str(tmp_path / "z2.short-multi.txt"),
                  "--target", str(tmp_path / "klein.short-multi.txt"))
    assert out.returncode == 0, out.stderr


def test_reports_are_deterministic_across_jobs(tmp_path):
    run_cli("catalogue", "klein-four", "--out", str(tmp_path))
    target = tmp_path / "klein.skew.short-skew.txt"
    r1 = tmp_path / "r1.txt"
    r4 = tmp_path / "r4.txt"
    assert run_cli("validate", str(target), "--jobs", "1", "--report", str(r1)).returncode == 0
    assert run_cli("validate", str(target), "--jobs", "4", "--report", str(r4)).returncode == 0
    assert r1.read_bytes() == r4.read_bytes()


def test_report_dir_env(tmp_path):
    run_cli("catalogue", "terminal", "--out", str(tmp_path))
    env_dir = tmp_path / "reports"
    out = run_cli("validate", str(tmp_path / "terminal.short-multi.txt"),
                  "--report", "t.txt",
                  env={"SHORTCAT_REPORT_DIR": str(env_dir)}, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert (env_dir / "t.txt").exists()


def test_empty_tables_validate_vacuously(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(
        "format = 1\nkind = short-multi\nname = d2-empty\nobjects = a b\n"
        "hom a a = 1_a\nhom b b = 1_b\nid a = 1_a\nid b = 1_b\n"
        "comp 1_a 1_a = 1_a\ncomp 1_b 1_b = 1_b\n")
    out = run_cli("validate", str(path))
    assert out.returncode == 0
    assert "status PASS" in out.stdout


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("format = 9\nkind = category\nname = x\nobjects = a\n")
    assert run_cli("validate", str(bad)).returncode == 2
    missing = tmp_path / "missing.txt"
    assert run_cli("validate", str(missing)).returncode == 2
    big = ("format = 1\nkind = category\nname = big\n"
           "objects = " + " ".join(f"o{i}" for i in range(9)) + "\n"
           + "".join(f"hom o{i} o{i} = f{i}\n" for i in range(9))
           + "".join(f"id o{i} = f{i}\n" for i in range(9))
           + "".join(f"comp f{i} f{i} = f{i}\n" for i in range(9)))
    toolarge = tmp_path / "big.txt"
    toolarge.write_text(big)
    assert run_cli("validate", str(toolarge)).returncode == 2
    assert run_cli("validate", str(toolarge), "--max-objects", "9").returncode == 0


def test_comm_monoid_generator(tmp_path):
    out = run_cli("catalogue", "comm-monoid", "--out", str(tmp_path),
                  "--elements", "0 1 2 3", "--unit", "0", "--monoid-name", "z4",
                  "--table", "0 1 2 3;1 2 3 0;2 3 0 1;3 0 1 2")
    assert out.returncode == 0, out.stderr
    out = run_cli("validate", str(tmp_path / "z4.short-multi.txt"))
    assert out.returncode == 0
    out = run_cli("roundtrip", str(tmp_path / "z4.mon.skew-monoidal.txt"))
    assert out.returncode == 0
    # a non-commutative table is refused
    out = run_cli("catalogue", "comm-monoid", "--out", str(tmp_path),
                  "--elements", "0 1", "--unit", "0", "--table", "0 1;0 1")
    assert out.returncode == 2


@pytest.mark.parametrize("elements,unit,table,name,message", [
    pytest.param("0 1", "2", "0 1;1 0", None, "unit '2' is not an element", id="unit"),
    pytest.param("0 1", "0", "0 1", None, "table has 1 rows for 2 elements", id="few-rows"),
    pytest.param("0 1", "0", "0 2;2 0", None, "table value '2' is not an element",
                 id="value"),
    pytest.param("0 1", "0", "0 1;1 0;0 0", None, "table has 3 rows for 2 elements",
                 id="extra-row"),
    pytest.param("0 0", "0", "0 0;0 0", None, "element '0' is listed twice", id="duplicate"),
    pytest.param("0 1", "0", "0 1;1 0", "my mon", "name 'my mon' must be printable",
                 id="name-whitespace"),
    pytest.param("e =", "e", "e =;= e", None, "element '=' must be printable",
                 id="element-equals"),
    pytest.param(" ", "0", "0", None, "unit '0' is not an element", id="no-elements"),
    pytest.param("0 1", "0", "0 1;1 0", "../z2", "name '../z2' must be printable",
                 id="name-path"),
])
def test_bad_comm_monoid_ends_in_one_error_line(tmp_path, elements, unit, table, name,
                                                message):
    """A comm-monoid whose unit or table values are not elements, whose table
    has too few or too many rows, whose elements repeat, or whose names a
    structure file cannot hold exits 2 with one error line and writes
    nothing."""
    extra = [] if name is None else ["--monoid-name", name]
    out = run_cli("catalogue", "comm-monoid", "--out", str(tmp_path / "out"),
                  "--elements", elements, "--unit", unit, "--table", table, *extra)
    assert out.returncode == 2, out.stdout + out.stderr
    errors = out.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: comm-monoid "), out.stderr
    assert message in errors[0], out.stderr
    assert not (tmp_path / "out").exists()


Z5 = ["--elements", "0 1 2 3 4", "--unit", "0",
      "--table", "0 1 2 3 4;1 2 3 4 0;2 3 4 0 1;3 4 0 1 2;4 0 1 2 3"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["comm-monoid", *Z5, "--max-objects", "2", "--max-multimaps", "0"],
                 "comm-monoid: 5 elements exceeds --max-objects 2", id="z5-elements"),
    pytest.param(["z2", "--max-multimaps", "0"],
                 "z2: a multimap set of size 1 exceeds --max-multimaps 0", id="z2-multimaps"),
    pytest.param(["heyting-2", "--max-objects", "1"],
                 "heyting2: 2 objects exceeds --max-objects 1", id="heyting2-objects"),
])
def test_catalogue_honours_the_size_guard(tmp_path, argv, message):
    """catalogue refuses more comm-monoid elements than --max-objects before
    it builds a table, and any generated file that validate would refuse
    before it writes one: exit 2 with one error line and nothing written."""
    out = run_cli("catalogue", *argv, "--out", str(tmp_path / "out"))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr.splitlines() == [f"error: {message}"], out.stderr
    assert not (tmp_path / "out").exists()
    assert out.stdout == ""


# The shortcat modules a cold call loads, besides the package itself, for each
# (command, input file) of the benchmark's cli-cold workload, plus a short-skew
# file with swap tables, a braiding roundtrip and a catalogue generator.
COLD_BASE = ("cli", "errors", "fileformat", "fincat", "report")
ROUNDTRIP_MODULES = ("classify", "induce", "shortmulti", "shortskew", "skewmon", "transport")
COLD_MODULES = {
    ("validate", "terminal.short-multi"): ("shortmulti",),
    ("validate", "terminal.skew.short-skew"): ("shortmulti", "shortskew"),
    ("validate", "terminal.mon.skew-monoidal"): ("skewmon",),
    ("validate", "terminal.cl.skew-closed"): ("skewmon",),
    ("validate", "z2.short-multi"): ("shortmulti",),
    ("validate", "z2.mon.skew-monoidal"): ("skewmon",),
    ("certify", "terminal.short-multi"): ("classify", "shortmulti", "shortskew"),
    ("certify", "terminal.skew.short-skew"): ("classify", "shortmulti", "shortskew"),
    ("certify", "z2.short-multi"): ("classify", "shortmulti", "shortskew"),
    ("roundtrip", "terminal.mon.skew-monoidal"): ROUNDTRIP_MODULES,
    ("roundtrip", "terminal.cl.skew-closed"): ROUNDTRIP_MODULES,
    ("roundtrip", "z2.mon.skew-monoidal"): ROUNDTRIP_MODULES,
    ("validate", "z2.skew.short-skew"): ("braiding", "shortmulti", "shortskew"),
    ("roundtrip", "z2.sym.braiding"): ROUNDTRIP_MODULES + ("braiding",),
    ("catalogue", "z2"): ("catalogue", "shortmulti", "shortskew", "skewmon"),
    ("import", None): (),
}

MODULES_CHILD = """import sys
from shortcat import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("shortcat."))), file=sys.stderr)
sys.exit(code)
"""


def _cold_calls():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    return runpy.run_path(str(path))["COLD_CALLS"]


def test_each_command_loads_only_its_modules(tmp_path):
    """A fresh interpreter running one command on one file kind loads the
    modules that command and kind use, and no other: the set is pinned for
    every call of the cli-cold benchmark and a few more. (A child process,
    because this one has imported every module already.)"""
    assert set(_cold_calls()) <= set(COLD_MODULES)
    for generator in ("terminal", "z2"):
        for sf in catalogue_files(generator):
            (tmp_path / f"{sf.name}.{sf.kind}.txt").write_text(serialize(sf))
    for (command, stem), extra in COLD_MODULES.items():
        if command == "import":
            argv = []
        elif command == "catalogue":
            argv = [command, stem, "--out", str(tmp_path / "catalogue")]
        else:
            argv = [command, str(tmp_path / f"{stem}.txt")]
        out = subprocess.run([sys.executable, "-c", MODULES_CHILD, *argv], capture_output=True,
                             text=True, env=child_env({"PYTHONDONTWRITEBYTECODE": "1"}))
        assert out.returncode == 0, (command, stem, out.stderr)
        loaded = out.stderr.splitlines()[-1].split()
        assert loaded == sorted(f"shortcat.{m}" for m in COLD_BASE + extra), (command, stem)


# validate cases keep their kind-table-slot ids; the others add the command
SLOT_CASES = [
    pytest.param(kind, table, slot, command,
                 id="-".join([kind, table, slot] + ([command] if command != "validate" else [])))
    for command in ("validate", "certify", "construct")
    for kind in ("short-multi", "short-skew")
    for table in ("pre", "sub")
    for slot in ("0", "7")
]


# what the key of a pre, post or sub entry must be
KEY_DOMAINS = {"pre": "a slot of a non-base map with a morphism into it",
               "post": "a morphism out of a non-base map with that map",
               "sub": "a slot of an outer map with an inner map into it, in a stored case"}


@pytest.mark.parametrize("kind,table,slot,command", SLOT_CASES)
def test_out_of_range_slot_is_a_malformed_table(tmp_path, kind, table, slot, command):
    """A pre or sub key must substitute at a slot of its map: an extra line
    copied from a slot-2 entry with the slot set to 0 or 7 exits 2 with one
    error line, never an axiom failure or a traceback. certify and construct
    refuse it before any search."""
    text = serialize(next(sf for sf in catalogue_files("z2") if sf.kind == kind))
    line = next(ln for ln in text.splitlines()
                if ln.startswith(table + " ") and ln.split()[2] == "2")
    words = line.split()
    words[2] = slot
    path = tmp_path / "bad-slot.txt"
    path.write_text(text + " ".join(words) + "\n")
    extra = {"validate": [], "certify": [],
             "construct": ["--which", "k" if kind == "short-multi" else "ks"]}[command]
    out = run_cli(command, str(path), *extra)
    assert out.returncode == 2, out.stdout + out.stderr
    errors = [ln for ln in out.stderr.splitlines() if not ln.startswith("warning: ")]
    assert len(errors) == 1 and errors[0].startswith("error: "), out.stderr
    name, what = "z2" if kind == "short-multi" else "z2.skew", KEY_DOMAINS[table]
    assert errors[0] == f"error: {name}: {table} key ({words[1]},{slot},{words[3]}) is not {what}"


def test_jobs_is_at_least_one_and_capped_at_the_cpu_count(tmp_path):
    parser = build_parser()
    cpus = os.cpu_count() or 1
    assert parser.parse_args(["validate", "x", "--jobs", "1"]).jobs == 1
    assert parser.parse_args(["validate", "x", "--jobs", str(cpus)]).jobs == cpus
    # parsing only: no worker is started, so a large value is safe to test here
    assert parser.parse_args(["validate", "x", "--jobs", str(cpus + 1000)]).jobs == cpus
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["validate", "x", "--jobs", bad])
        assert exc.value.code == 2
    run_cli("catalogue", "terminal", "--out", str(tmp_path))
    out = run_cli("validate", str(tmp_path / "terminal.short-multi.txt"), "--jobs", "0")
    assert out.returncode == 2
    assert "--jobs" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("command", [
    ["validate"], ["roundtrip"], ["construct", "--which", "braiding-backward"]],
    ids=["validate", "roundtrip", "construct"])
def test_missing_braiding_entry_is_a_malformed_table(tmp_path, command):
    """A braiding file with one s component deleted exits 2 with one error
    line before any transport runs, never with a traceback."""
    text = serialize(next(sf for sf in catalogue_files("z2") if sf.kind == "braiding"))
    lines = [ln for ln in text.splitlines() if not ln.startswith("s 1 0 1 = ")]
    assert len(lines) == len(text.splitlines()) - 1
    path = tmp_path / "bad.braiding.txt"
    path.write_text("\n".join(lines) + "\n")
    out = run_cli(command[0], str(path), *command[1:])
    assert out.returncode == 2, out.stdout + out.stderr
    errors = [ln for ln in out.stderr.splitlines() if not ln.startswith("warning: ")]
    assert len(errors) == 1 and errors[0].startswith("error: "), out.stderr
    assert "braiding not total at (1,0,1)" in errors[0], out.stderr


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys, tmp_path):
    def crash(args):
        raise KeyError("x")
    monkeypatch.setattr(cli, "cmd_validate", crash)
    assert cli.main(["validate", str(tmp_path / "any.txt")]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'x'\n"


def test_the_shared_parser_keeps_no_state_between_calls(monkeypatch, capsys, tmp_path):
    """main parses with one parser built at import: two calls in one process
    build no parser, a --jobs of the first call does not leak into the
    second, and each prints what a fresh interpreter prints."""
    import argparse

    path = tmp_path / "z2.short-multi.txt"
    path.write_text(_catalogue_text("z2", "short-multi"))
    built, jobs = [], []
    real_init, real_validate = argparse.ArgumentParser.__init__, cli.cmd_validate

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    def recording_validate(args):
        jobs.append(args.jobs)
        return real_validate(args)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "cmd_validate", recording_validate)
    outputs = []
    for argv in (["validate", str(path), "--jobs", "3"], ["validate", str(path)]):
        assert cli.main(argv) == cli.EXIT_PASS
        outputs.append(capsys.readouterr().out)
        fresh = run_cli(*argv)
        assert fresh.returncode == cli.EXIT_PASS and outputs[-1] == fresh.stdout, argv
    assert built == []
    assert jobs == [min(3, os.cpu_count() or 1), 1]


def _id_skew_morphism_text(generator):
    """A skew morphism file: the identity on a catalogue short-skew structure."""
    from shortcat.fileformat import unbind_morphism
    from shortcat.shortskew import identity_skew_morphism
    m, _ = next(sf.payload for sf in catalogue_files(generator) if sf.kind == "short-skew")
    F = identity_skew_morphism(m)
    return serialize(StructureFile("morphism", F.name, unbind_morphism(F)))


@pytest.mark.parametrize("file,end", [
    pytest.param(lambda: _morphism_text("id[z2]"), ("z2", "short-multi"), id="plain"),
    pytest.param(lambda: _id_skew_morphism_text("terminal"), ("terminal", "short-skew"),
                 id="skew"),
    pytest.param(lambda: _id_lax_functor_text("z2"), ("z2", "skew-monoidal"),
                 id="lax-functor"),
])
def test_one_end_file_is_loaded_once(monkeypatch, capsys, tmp_path, file, end):
    """validate with --source equal to --target parses the end file once,
    two parses in all, and prints what it prints when the target is a copy
    of the source at another path."""
    path, source, copy = tmp_path / "map.txt", tmp_path / "end.txt", tmp_path / "copy.txt"
    path.write_text(file())
    source.write_text(_catalogue_text(*end))
    copy.write_text(source.read_text())
    parsed, real_parse = [], cli.parse

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(cli, "parse", counting_parse)
    outputs = []
    for target in (source, copy):
        parsed.clear()
        assert cli.main(["validate", str(path), "--source", str(source),
                         "--target", str(target)]) == cli.EXIT_PASS
        outputs.append(capsys.readouterr().out)
        assert len(parsed) == (2 if target == source else 3), target.name
    assert "status PASS" in outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda t: _replace_line(t, "tmap2 0 0 0 = m2(0,0;0)",
                                         "tmap2 0 0 0 = m2(0,0;0) m2(0,0;0)"),
                 "z2.skew: t2 multimap id m2(0,0;0) declared twice", id="repeated-member"),
    pytest.param(lambda t: _replace_line(t, "tmap2 0 0 0 = m2(0,0;0)",
                                         "tmap2 0 0 0 = m2(0,0;0) m2(0,0;0)")
                 + "j nosuch = m2(0,0;0)\n",
                 "z2.skew: t2 multimap id m2(0,0;0) declared twice",
                 id="repeated-member-and-stray-j-key"),
    pytest.param(lambda t: _replace_line(t, "lmap1 0 0 = 1_0", "lmap1 0 0 = 1_0 1_0"),
                 "z2.skew: l1 multimap id 1_0 declared twice", id="repeated-loose-unary"),
])
def test_a_short_skew_map_listed_twice_is_refused(tmp_path, edit, message):
    """A multimap id listed twice in the tables of one flavour ends in one
    error line with exit 2, so no table domain lists a key twice and a stray
    key beside the repeat cannot pass as a required one."""
    path = tmp_path / "bad.short-skew.txt"
    path.write_text(edit(_catalogue_text("z2", "short-skew")))
    out = run_cli("validate", str(path))
    assert out.returncode == 2, out.stdout + out.stderr
    errors = [ln for ln in out.stderr.splitlines() if not ln.startswith("warning: ")]
    assert errors == [f"error: {message}"], out.stderr


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda t: _replace_line(t, "map2 0 0 0 = m2(0,0;0)",
                                         "map2 0 0 0 = m2(0,0;0) m2(0,0;0)"),
                 "z2: multimap id m2(0,0;0) declared twice", id="repeated-member"),
    pytest.param(lambda t: _replace_line(t, "map0 0 = m0(;0)", "map0 0 = 1_0"),
                 "z2: id 1_0 declared with two different types", id="base-morphism-as-nullary"),
    pytest.param(lambda t: _replace_line(t, "map3 0 0 0 0 = m3(0,0,0;0)",
                                         "map3 0 0 0 0 = m3(0,0,0;0) m2(0,0;0)"),
                 "z2: id m2(0,0;0) declared with two different types", id="binary-as-ternary"),
])
def test_a_short_multi_map_listed_twice_is_refused(tmp_path, edit, message):
    """A multimap id listed twice, or under a second type, in a short-multi
    file ends in one error line with exit 2."""
    path = tmp_path / "bad.short-multi.txt"
    path.write_text(edit(_catalogue_text("z2", "short-multi")))
    out = run_cli("validate", str(path))
    assert out.returncode == 2, out.stdout + out.stderr
    errors = [ln for ln in out.stderr.splitlines() if not ln.startswith("warning: ")]
    assert errors == [f"error: {message}"], out.stderr


def test_no_validator_calls_run_checks(monkeypatch, capsys, tmp_path):
    """Every validator records its instances itself: with report.run_checks,
    the reference evaluator, made to raise wherever a module holds it,
    validate on every catalogue, Z/2..Z/4 and morphism file and roundtrip on
    every skew-monoidal, braiding and skew-closed file still end in a
    report."""
    import importlib
    import pkgutil

    import shortcat

    def refuse(*args, **kwargs):
        raise AssertionError("report.run_checks was called")
    for info in pkgutil.iter_modules(shortcat.__path__):
        module = importlib.import_module(f"shortcat.{info.name}")
        if hasattr(module, "run_checks"):
            monkeypatch.setattr(module, "run_checks", refuse)

    for generator in cli.GENERATORS:
        if generator != "comm-monoid":
            assert cli.main(["catalogue", generator, "--out", str(tmp_path)]) == 0
    for n in (2, 3, 4):
        table = ";".join(" ".join(str((a + b) % n) for b in range(n)) for a in range(n))
        assert cli.main(["catalogue", "comm-monoid", "--out", str(tmp_path),
                         "--elements", " ".join(map(str, range(n))), "--unit", "0",
                         "--table", table, "--monoid-name", f"zmod{n}"]) == 0
    capsys.readouterr()

    calls = []
    for path in sorted(tmp_path.glob("*.txt")):
        kind = path.name.rsplit(".", 2)[1]
        mutant = path.name.startswith("mutant-")
        extra = []
        if kind == "morphism":
            ends = dict(ln.split(" = ", 1) for ln in path.read_text().splitlines()
                        if ln.startswith(("source = ", "target = ")))
            extra = ["--source", str(tmp_path / f"{ends['source']}.short-multi.txt"),
                     "--target", str(tmp_path / f"{ends['target']}.short-multi.txt")]
        calls.append((["validate", str(path), *extra], 1 if mutant else 0))
        if kind in ("skew-monoidal", "braiding", "skew-closed") and not mutant:
            calls.append((["roundtrip", str(path)], 0))
    assert len(calls) > 100
    for argv, code in calls:
        assert cli.main(argv) == code, argv
        assert capsys.readouterr().err == "", argv


ROUNDTRIP_Z2_SYM = """report z2.sym.roundtrip
status PASS
checked braiding-roundtrip = 1
checked k-roundtrip = 1
checked ks-roundtrip = 1
total-checked = 3
total-failed = 0
"""


def test_braiding_roundtrip_induces_and_certifies_once(monkeypatch, capsys, tmp_path):
    """roundtrip on a braiding file transports the braiding over the skew
    induction of its own roundtrip: one induction and one certificate of
    the induced skew structure (the plain k-roundtrip certifies its own)."""
    from shortcat import classify, induce, skewmon
    from shortcat.shortskew import ShortSkewMulticategory

    induced, certified, validated = [], [], []
    real_induce, real_certify = induce.induce_short_skew, classify.certify
    real_validate = skewmon.validate_skew_monoidal

    def counting_induce(c, name=None):
        induced.append(c.name)
        return real_induce(c, name)

    def counting_certify(m):
        certified.append(isinstance(m, ShortSkewMulticategory))
        return real_certify(m)

    def counting_validate(c):
        validated.append(c.name)
        return real_validate(c)

    monkeypatch.setattr(induce, "induce_short_skew", counting_induce)
    for name, mod in list(sys.modules.items()):
        if name.startswith("shortcat") and getattr(mod, "certify", None) is real_certify:
            monkeypatch.setattr(mod, "certify", counting_certify)
        if name.startswith("shortcat") and getattr(mod, "validate_skew_monoidal", None) is real_validate:
            monkeypatch.setattr(mod, "validate_skew_monoidal", counting_validate)
    path = tmp_path / "z2.sym.braiding.txt"
    path.write_text(_catalogue_text("z2", "braiding"))
    assert cli.main(["roundtrip", str(path)]) == cli.EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out == ROUNDTRIP_Z2_SYM
    assert captured.err == ""
    assert induced == ["z2.sym"]
    assert certified == [True, False]
    assert validated == ["z2.sym"]


ROUNDTRIP_Z2_MON = """report z2.mon.roundtrip
status PASS
checked k-roundtrip = 1
checked ks-roundtrip = 1
total-checked = 2
total-failed = 0
"""


def test_skew_monoidal_roundtrip_induces_once(monkeypatch, capsys, tmp_path):
    """roundtrip on a left-normal skew monoidal file induces the skew
    structure once and reads the plain one off it: no plain induction."""
    from shortcat import induce

    calls = []
    for fn in ("induce_short_skew", "induce_short_multi"):
        real = getattr(induce, fn)
        monkeypatch.setattr(induce, fn, lambda c, name=None, fn=fn, real=real:
                            calls.append(fn) or real(c, name))
    path = tmp_path / "z2.mon.skew-monoidal.txt"
    path.write_text(_catalogue_text("z2", "skew-monoidal"))
    assert cli.main(["roundtrip", str(path)]) == cli.EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out == ROUNDTRIP_Z2_MON
    assert captured.err == ""
    assert calls == ["induce_short_skew"]


def test_roundtrip_recovers_a_non_skeletal_input(capsys, tmp_path):
    """roundtrip passes on ch2.z2, the tensor a.a = b.b = a, a.b = b.a = b
    with unit a on the indiscrete base with objects a and b: its
    certificate classifies other tensor objects than the input's, and the
    comparison it names is an isomorphism."""
    x = thin_skew_monoidal("ch2.z2", indiscrete2(), lambda a, b: "a" if a == b else "b", "a")
    path = tmp_path / "ch2.z2.skew-monoidal.txt"
    path.write_text(serialize(StructureFile("skew-monoidal", "ch2.z2", x)))
    assert cli.main(["roundtrip", str(path)]) == cli.EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out == ROUNDTRIP_Z2_MON.replace("z2.mon", "ch2.z2")
    assert captured.err == ""


def test_short_skew_validate_builds_lookups_once(monkeypatch, capsys, tmp_path):
    """validate on a short-skew file with swap tables checks the structure
    and its swap tables on one set of lookup dicts."""
    from functools import cached_property

    from shortcat.shortmulti import MultiTables

    built = []
    real = MultiTables.lookups.func

    def counting(self):
        built.append(self.name)
        return real(self)

    lookups = cached_property(counting)
    lookups.__set_name__(MultiTables, "lookups")
    monkeypatch.setattr(MultiTables, "lookups", lookups)
    path = tmp_path / "z2.skew.short-skew.txt"
    path.write_text(_catalogue_text("z2", "short-skew"))
    assert cli.main(["validate", str(path)]) == cli.EXIT_PASS
    assert "checked braiding-b32-nat" in capsys.readouterr().out
    assert built == ["z2.skew"]


def _catalogue_text(generator, kind):
    return serialize(next(sf for sf in catalogue_files(generator) if sf.kind == kind))


def _replace_line(text, old, new):
    assert old + "\n" in text
    return text.replace(old + "\n", new + "\n")


ALPHA_KEY = "alpha key (0,0,1_0) names 1_0, which is not an object"
S_VALUE = "braiding component 1 at (0,0,1) is not a morphism"
POST_LINE = "post 1_0 m4(1,0,0,1;0) = m4(1,0,0,1;0)"
BAD_POST_LINE = "post 1_0 m4(1,0,0,1;0) = m2(1,1;0)"
AXIOM_FAILURE = "validation fails 10 instances; construct needs one that passes"
ALPHA_LINE = "alpha 0 0 1 = 1_1"
S_LINE = "s 0 0 1 = 1_1"
BETA43_LINE = "beta43 m4(1,1,0,1;1) = m4(1,1,1,0;1)"
BAD_BETA43_LINE = "beta43 m4(1,1,0,1;1) = m4(1,1,0,1;1)"
PRE_LINE = "pre m2(0,0;0) 1 1_0 = m2(0,0;0)"
HOM_LINE = "hom 0 0 = 1_0"


@pytest.mark.parametrize("generator,kind,edit,command,code,message", [
    pytest.param("z2", "skew-monoidal", lambda t: t + "alpha 0 0 1_0 = 1_0\n",
                 ["validate"], 2, ALPHA_KEY, id="alpha-key-validate"),
    pytest.param("z2", "skew-monoidal", lambda t: t + "alpha 0 0 1_0 = 1_0\n",
                 ["roundtrip"], 2, ALPHA_KEY, id="alpha-key-roundtrip"),
    pytest.param("terminal", "skew-closed", lambda t: t + "L o o 1_o = 1_o\n",
                 ["roundtrip"], 2, "ell key (o,o,1_o) names 1_o, which is not an object",
                 id="ell-key-roundtrip"),
    pytest.param("z2", "braiding", lambda t: _replace_line(t, "s 0 0 1 = 1_1", "s 0 0 1 = 1"),
                 ["roundtrip"], 2, S_VALUE, id="s-value-roundtrip"),
    pytest.param("z2", "braiding", lambda t: _replace_line(t, "s 0 0 1 = 1_1", "s 0 0 1 = 1"),
                 ["construct", "--which", "braiding-backward"], 2, S_VALUE,
                 id="s-value-construct"),
    pytest.param("z2", "short-skew", lambda t: _replace_line(t, POST_LINE, BAD_POST_LINE),
                 ["certify"], 1, "validation fails 10 instances",
                 id="axiom-failure-certify"),
    pytest.param("z2", "short-multi", lambda t: _replace_line(t, POST_LINE, BAD_POST_LINE),
                 ["construct", "--which", "k"], 1, AXIOM_FAILURE, id="axiom-failure-construct-k"),
    *[pytest.param("z2", "short-skew", lambda t: _replace_line(t, POST_LINE, BAD_POST_LINE),
                   ["construct", "--which", which], 1, AXIOM_FAILURE,
                   id=f"axiom-failure-construct-{which}")
      for which in ("ks", "kcl")],
    # the swap tables fail 3 instances of their own on top of the structure's 10
    pytest.param("z2", "short-skew", lambda t: _replace_line(t, POST_LINE, BAD_POST_LINE),
                 ["construct", "--which", "braiding-forward"], 1,
                 AXIOM_FAILURE.replace("10", "13"), id="axiom-failure-construct-braiding-forward"),
    pytest.param("z2", "short-skew", lambda t: _replace_line(t, BETA43_LINE, BAD_BETA43_LINE),
                 ["construct", "--which", "braiding-forward"], 1, AXIOM_FAILURE,
                 id="swap-failure-construct-braiding-forward"),
    # a braiding file is refused as validate judges its two halves: 20 failed
    # instances whether the associator or the braiding is the broken one
    *[pytest.param("z2", "braiding", lambda t, line=line: _replace_line(t, line, line[:-1] + "0"),
                   command, 1,
                   f"z2.sym: validation fails 20 instances; {command[0]} "
                   f"needs one that passes", id=f"{line.split()[0]}-failure-{command[0]}-braiding")
      for line in (ALPHA_LINE, S_LINE)
      for command in (["construct", "--which", "braiding-backward"], ["roundtrip"])],
    pytest.param("z2", "skew-monoidal", lambda t: _replace_line(t, ALPHA_LINE, "alpha 0 0 1 = 1_0"),
                 ["roundtrip"], 1,
                 "z2.mon: validation fails 10 instances; roundtrip needs one "
                 "that passes", id="alpha-failure-roundtrip-skew-monoidal"),
    pytest.param("heyting-2", "skew-closed", lambda t: _replace_line(t, "J 0 = 1_1", "J 0 = le"),
                 ["roundtrip"], 1,
                 "heyting2.cl: validation fails 3 instances; roundtrip needs "
                 "one that passes", id="j-failure-roundtrip-skew-closed"),
    # an entry keyed at a base morphism, which composes in the base
    *[pytest.param("z2", "short-multi", lambda t: t + "pre 1_0 1 1_0 = 1_0\n", [command], 2,
                   f"z2: pre key (1_0,1,1_0) is not {KEY_DOMAINS['pre']}",
                   id=f"base-pre-key-{command}") for command in ("validate", "certify")],
    *[pytest.param("z2", "short-skew", lambda t: t + "post 1_1 1_1 = 1_1\n", [command], 2,
                   f"z2.skew: post key (1_1,1_1) is not {KEY_DOMAINS['post']}",
                   id=f"base-post-key-{command}") for command in ("validate", "certify")],
    # the inverse braiding names its own table
    pytest.param("z2", "braiding", lambda t: _replace_line(t, "sinv 0 0 1 = 1_1", ""),
                 ["validate"], 2, "z2.sym.braid: sinv not total at (0,0,1)", id="sinv-missing"),
    pytest.param("terminal", "short-multi", lambda t: t + "map2 o zz o = extra\n",
                 ["validate"], 2, "terminal: unknown object zz in multimap key",
                 id="multimap-key-validate"),
    pytest.param("z2", "braiding", lambda t: t + "sinv 0 0 nosuch = 1_0\n", ["validate"], 2,
                 "z2.sym.braid: sinv key (0,0,nosuch) names nosuch, which is not an object",
                 id="sinv-stray-key"),
    pytest.param("z2", "short-multi",
                 lambda t: _replace_line(t, PRE_LINE, "pre m2(0,0;0) 1 1_0 = zzz\n" + PRE_LINE),
                 ["validate"], 2,
                 "line 41: repeated key pre m2(0,0;0) 1 1_0, first given at line 40",
                 id="repeated-pre-validate"),
    pytest.param("z2", "short-multi",
                 lambda t: _replace_line(t, HOM_LINE, "hom 0 0 = zzz\n" + HOM_LINE),
                 ["validate"], 2, "line 6: repeated key hom 0 0, first given at line 5",
                 id="repeated-hom-validate"),
    pytest.param("z2", "short-multi",
                 lambda t: _replace_line(t, "objects = 0 1", "objects = 0 1 0"),
                 ["validate"], 2, "line 4: repeated object '0' in objects",
                 id="repeated-object-validate"),
    # a token may not hold '='; the first such line fails
    *[pytest.param("z2", "skew-monoidal", lambda t: t.replace("1_0", "a=b"), [command], 2,
                   "line 5: token 'a=b' holds '='", id=f"equals-in-token-{command}")
      for command in ("validate", "roundtrip")],
    pytest.param("z2", "short-multi",
                 lambda t: _replace_line(t, "map2 0 0 0 = m2(0,0;0)", "map2 0 0 0 = f = g"),
                 ["validate"], 2, "line 12: token '=' holds '='", id="second-equals-validate"),
    # the name's byte 0xff, written through surrogateescape
    pytest.param("z2", "short-multi", lambda t: _replace_line(t, "name = z2", "name = \udcff"),
                 ["validate"], 2, "line 3: not UTF-8: byte 0xff", id="not-utf8-validate"),
    # a short-skew file without swap tables
    pytest.param("terminal", "short-skew", lambda t: t,
                 ["construct", "--which", "braiding-forward"], 2,
                 "construct braiding-forward expects a short-skew file with swap tables, got none",
                 id="no-swap-tables-construct-braiding-forward"),
    # a UTF-8 byte-order mark before the format line
    pytest.param("z2", "short-multi", lambda t: "\ufeff" + t, ["validate"], 2,
                 "line 1: the file begins with a byte-order mark (U+FEFF)",
                 id="byte-order-mark-validate"),
])
def test_bad_input_ends_in_one_error_line(tmp_path, generator, kind, edit, command, code,
                                          message):
    """A key that names no object, a multimap key that names an undeclared
    one, a braiding value that names no morphism, a key or an object given
    twice, a token that holds '=', a file that is not UTF-8 or begins with a
    byte-order mark, a short-skew file without swap tables given to
    braiding-forward (exit 2) and a structure that fails its axioms under
    certify, construct or roundtrip (exit 1) each end in one error line,
    never in an internal error."""
    path = tmp_path / f"bad.{kind}.txt"
    path.write_text(edit(_catalogue_text(generator, kind)), encoding="utf-8",
                    errors="surrogateescape")
    out = run_cli(command[0], str(path), *command[1:])
    assert out.returncode == code, out.stdout + out.stderr
    errors = [ln for ln in out.stderr.splitlines() if not ln.startswith("warning: ")]
    assert len(errors) == 1 and errors[0].startswith("error: "), out.stderr
    assert message in errors[0], out.stderr


def _id_lax_functor_text(generator):
    """A lax-functor file: the identity on a catalogue skew monoidal structure."""
    mon = next(sf.payload for sf in catalogue_files(generator) if sf.kind == "skew-monoidal")
    t = identity_lax_functor(mon)
    raw = RawLaxFunctor(mon.name, mon.name, dict(t.functor.obj_map), dict(t.functor.mor_map),
                        t.f0, dict(t.f2))
    return serialize(StructureFile("lax-functor", t.name, raw))


def _morphism_text(name):
    return serialize(next(sf for sf in catalogue_files("morphisms") if sf.name == name))


def test_crlf_file_reads_as_canonical(capsys, tmp_path):
    """Line ends are read as text mode reads them: a file with CRLF line ends
    validates without the normalization warning."""
    path = tmp_path / "z2.txt"
    path.write_bytes(_catalogue_text("z2", "short-multi").replace("\n", "\r\n").encode())
    assert cli.main(["validate", str(path)]) == cli.EXIT_PASS
    out, err = capsys.readouterr()
    assert "status PASS" in out and err == ""


@pytest.mark.parametrize("file,source,extra,code,message", [
    pytest.param(("morphism", "z2-into-klein"), ("z2", "short-skew", None), [], 2,
                 "expected a short-multi file, got short-skew", id="plain-morphism-skew-source"),
    pytest.param(("morphism", "z2-into-klein"), ("z2", "skew-monoidal", None), [], 2,
                 "expected a short-multi file, got skew-monoidal",
                 id="plain-morphism-skew-monoidal-source"),
    pytest.param(("morphism", "z2-into-klein"),
                 ("z2", "short-multi", lambda t: _replace_line(t, "post 1_0 m2(0,0;0) = m2(0,0;0)", "")),
                 [], 2, "post not total at (1_0,m2(0,0;0))",
                 id="plain-morphism-partial-source"),
    pytest.param(("morphism", "z2-into-klein"), ("z2", "short-multi", None), ["--max-objects", "1"],
                 2, "z2: 2 objects exceeds --max-objects 1", id="plain-morphism-source-too-big"),
    pytest.param(("lax-functor", "z2"), ("z2", "skew-monoidal", None), [], 0, None,
                 id="lax-functor"),
    pytest.param(("lax-functor", "z2"), ("z2", "braiding", None), [], 2,
                 "expected a skew-monoidal file, got braiding", id="lax-functor-braiding-source"),
    pytest.param(("morphism", "z2-into-klein"),
                 ("z2", "short-multi", lambda t: _replace_line(t, "name = z2", "name = z2\udcff")),
                 [], 2, "line 3: not UTF-8: byte 0xff", id="plain-morphism-source-not-utf8"),
])
def test_bad_morphism_end_ends_in_one_error_line(tmp_path, file, source, extra, code, message):
    """A morphism or lax-functor file validates only against a --source of
    the kind it maps from, within the size guard and passing its structure
    check; anything else is one error line with exit 2."""
    kind, name = file
    path = tmp_path / f"{kind}.txt"
    path.write_text(_morphism_text(name) if kind == "morphism" else _id_lax_functor_text(name))
    generator, source_kind, edit = source
    target = tmp_path / "target.txt"
    target.write_text(_catalogue_text("klein-four" if kind == "morphism" else generator,
                                      "short-multi" if kind == "morphism" else "skew-monoidal"))
    src = tmp_path / "source.txt"
    src.write_text((edit or (lambda t: t))(_catalogue_text(generator, source_kind)),
                   encoding="utf-8", errors="surrogateescape")
    out = run_cli("validate", str(path), "--source", str(src), "--target", str(target), *extra)
    assert out.returncode == code, out.stdout + out.stderr
    errors = [ln for ln in out.stderr.splitlines() if not ln.startswith("warning: ")]
    if message is None:
        assert errors == [] and "status PASS" in out.stdout, out.stderr
    else:
        assert len(errors) == 1 and errors[0].startswith("error: "), out.stderr
        assert message in errors[0], out.stderr


def _kind_texts():
    """A file of every kind, by kind."""
    texts = {kind: _catalogue_text("z2", kind)
             for kind in ("short-multi", "short-skew", "skew-monoidal", "braiding")}
    texts["skew-closed"] = _catalogue_text("terminal", "skew-closed")
    z2 = next(sf for sf in catalogue_files("z2") if sf.kind == "short-multi").payload
    texts["category"] = serialize(StructureFile("category", "z2.base", z2.base))
    texts["morphism"] = _morphism_text("id[z2]")
    texts["lax-functor"] = _id_lax_functor_text("z2")
    return texts


# the kinds of file each command reads
ACCEPTED = {
    ("certify",): ("short-multi", "short-skew"),
    ("roundtrip",): ("skew-monoidal", "skew-closed", "braiding"),
    ("construct", "--which", "k"): ("short-multi",),
    ("construct", "--which", "ks"): ("short-skew",),
    ("construct", "--which", "kcl"): ("short-skew",),
    ("construct", "--which", "braiding-forward"): ("short-skew",),
    ("construct", "--which", "braiding-backward"): ("braiding",),
}


def test_a_file_of_another_kind_is_refused(capsys, tmp_path):
    """certify, roundtrip and each construction refuse a file of every kind
    they do not read with one error line that names the kinds they read and
    the kind they got, and exit 2."""
    texts = _kind_texts()
    assert set(texts) == set(KINDS)
    for command, accepted in ACCEPTED.items():
        name = " ".join(part for part in command if part != "--which")
        for kind, text in texts.items():
            if kind in accepted:
                continue
            path = tmp_path / f"{kind}.txt"
            path.write_text(text)
            assert cli.main([command[0], str(path), *command[1:]]) == cli.EXIT_USAGE, (name, kind)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {name} expects a {' or '.join(accepted)} file, "
                                    f"got {kind}\n"), (name, kind)


BETA43_00_LINE = "beta43 m4(0,0,0,0;0) = m4(0,0,0,0;0)"


@pytest.mark.parametrize("command,code", [
    (["validate"], 1),
    (["construct", "--which", "ks"], 0),
    (["construct", "--which", "kcl"], 0),
    (["construct", "--which", "braiding-forward"], 1),
])
def test_only_the_braiding_constructions_validate_swap_tables(capsys, tmp_path, command, code):
    """ks and kcl validate the structure of a short-skew file alone, so swap
    tables that fail validate do not stop them; braiding-forward reads the
    swap tables and validates them too."""
    path = tmp_path / "z2.skew.short-skew.txt"
    path.write_text(_replace_line(_catalogue_text("z2", "short-skew"), BETA43_00_LINE,
                                  "beta43 m4(0,0,0,0;0) = m4(0,0,1,0;1)"))
    assert cli.main([command[0], str(path), *command[1:]]) == code
    captured = capsys.readouterr()
    if command == ["validate"]:
        assert "status FAIL" in captured.out and "fail braiding-b43-" in captured.out
    elif code == 1:
        assert captured.err == ("error: z2.skew: validation fails 8 "
                                "instances; construct needs one that passes\n")


# The catalogue generators whose files the benchmark ladder writes.
LEDGER_GENERATORS = ("terminal", "z2", "z3", "klein-four", "poset-skew-second",
                     "poset-skew-first", "heyting-2", "morphisms")


def test_certify_and_roundtrip_match_the_ledger(capsys, tmp_path):
    """certify and roundtrip print, byte for byte, the output whose SHA-256
    bench/ledger.json records under `certify <stem>` or `roundtrip <stem>`,
    on the catalogue files and on Z/2 to Z/4."""
    ledger = json.loads((Path(__file__).resolve().parents[1] / "bench" / "ledger.json")
                        .read_text(encoding="utf-8"))
    files = [sf for g in LEDGER_GENERATORS for sf in catalogue_files(g)]
    files += [sf for n in (2, 3, 4) for sf in _cyclic_files(n)]
    checked = 0
    for sf in files:
        command = {"short-multi": "certify", "short-skew": "certify", "skew-monoidal": "roundtrip",
                   "braiding": "roundtrip", "skew-closed": "roundtrip"}.get(sf.kind)
        if command is None:
            continue
        stem = f"{sf.name}.{sf.kind}"
        path = tmp_path / f"{stem}.txt"
        path.write_text(serialize(sf), encoding="utf-8")
        assert cli.main([command, str(path)]) == 0, stem
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            ledger[f"{command} {stem}"]["sha256"], stem
        checked += 1
    assert checked == 36, checked


# SHA-256 of the concatenated bytes each generator writes: a change to how
# an entry is built must leave its files byte for byte as they are.
CATALOGUE_DIGESTS = {
    "terminal": "3d1311bbb213470307c885d4f53431a88f388e9543b40dd10eeee2baca4c35e9",
    "z2": "562e5a18acae6403b78e6ca0f24284d45c34e6c2b3dabf051594c5adf2e6a7ea",
    "z3": "d24926480ef85d9aa3d97e06451708af49a270213ac16c7f6f16611e376f11a6",
    "klein-four": "3fff9119d84f4ac063820a20b985c4ec0375249fa0702859a3819fd267790887",
    "poset-skew-second": "8d7b901979c0480846da70b773237cf2d05a0b633f298b6db1587cfa5b819ec9",
    "poset-skew-first": "5613623f2f1230accbdebe3653f53f55348ce66e702cc1352feaedcbb205a55c",
    "heyting-2": "7ddd9fd34f1ac8d94caff251553c531ee9a8f90037add4d6fb4bebb90c30f305",
    "mutants": "eea0240d4923de6724e63539919c7d53055daec344ba41cdf53454e5242f820b",
    "morphisms": "68518c5fe31e46fef20d4cc795e14e7444c54a114dd4f4d596fa687826ba22e6",
}


def _digest(files: list[StructureFile]) -> str:
    return hashlib.sha256("".join(serialize(sf) for sf in files).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("generator", sorted(CATALOGUE_DIGESTS))
def test_catalogue_files_are_pinned(generator):
    assert _digest(catalogue_files(generator)) == CATALOGUE_DIGESTS[generator]


def test_cyclic_comm_monoid_files_are_pinned():
    """The comm-monoid files of Z/2..Z/6, the tables the benchmark ladder uses."""
    files = [sf for n in range(2, 7) for sf in _cyclic_files(n)]
    assert _digest(files) == "020f60fdb5ee42ece5c255d70fc0cdab4ff00faf3a0a377210fc4f9453114d20"
