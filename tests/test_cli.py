import os
import subprocess
import sys

import pytest

from childenv import child_env
from shortcat import cli
from shortcat.cli import build_parser, catalogue_files
from shortcat.fileformat import RawLaxFunctor, StructureFile, serialize
from shortcat.skewmon import identity_lax_functor


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


def test_mutant_files_fail_at_their_annotation(tmp_path):
    out = run_cli("catalogue", "mutants", "--out", str(tmp_path))
    assert out.returncode == 0
    files = sorted(tmp_path.glob("mutant-*.txt"))
    assert len(files) >= 50
    # spot-check a handful through the file path; the full suite runs in-memory
    for sample in files[::13]:
        text = sample.read_text()
        family = subjects = None
        for line in text.splitlines():
            if line.startswith("provenance expect-fail-family = "):
                family = line.split(" = ", 1)[1]
            if line.startswith("provenance expect-fail-subjects = "):
                subjects = line.split(" = ", 1)[1].replace("|", ",")
        assert family and subjects, sample.name
        out = run_cli("validate", str(sample))
        assert out.returncode == 1, sample.name
        assert f"fail {family} @ {subjects} :" in out.stdout, sample.name


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


# validate cases keep their kind-table-slot ids; the others add the command
SLOT_CASES = [
    pytest.param(kind, table, slot, command,
                 id="-".join([kind, table, slot] + ([command] if command != "validate" else [])))
    for command in ("validate", "certify", "construct")
    for kind in ("short-multi", "short-skew")
    for table in ("pre", "sub")
    for slot in ("0", "7")
]


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
    assert f"slot {slot} outside 1..2" in errors[0], out.stderr


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
    assert "braiding not total at ('1', '0', '1')" in errors[0], out.stderr


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys, tmp_path):
    def crash(args):
        raise KeyError("x")
    monkeypatch.setattr(cli, "cmd_validate", crash)
    assert cli.main(["validate", str(tmp_path / "any.txt")]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'x'\n"


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
    from shortcat import classify, induce
    from shortcat.shortskew import ShortSkewMulticategory

    induced, certified = [], []
    real_induce, real_certify = induce.induce_short_skew, classify.certify

    def counting_induce(c, name=None):
        induced.append(c.name)
        return real_induce(c, name)

    def counting_certify(m):
        certified.append(isinstance(m, ShortSkewMulticategory))
        return real_certify(m)

    monkeypatch.setattr(induce, "induce_short_skew", counting_induce)
    for name, mod in list(sys.modules.items()):
        if name.startswith("shortcat") and getattr(mod, "certify", None) is real_certify:
            monkeypatch.setattr(mod, "certify", counting_certify)
    path = tmp_path / "z2.sym.braiding.txt"
    path.write_text(_catalogue_text("z2", "braiding"))
    assert cli.main(["roundtrip", str(path)]) == cli.EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out == ROUNDTRIP_Z2_SYM
    assert captured.err == ""
    assert induced == ["z2.sym"]
    assert certified == [True, False]


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


def _catalogue_text(generator, kind):
    return serialize(next(sf for sf in catalogue_files(generator) if sf.kind == kind))


def _replace_line(text, old, new):
    assert old + "\n" in text
    return text.replace(old + "\n", new + "\n")


ALPHA_KEY = "alpha key (0,0,1_0) names 1_0, which is not an object"
S_VALUE = "braiding component 1 at ('0', '0', '1') is not a morphism"
POST_LINE = "post 1_0 m4(1,0,0,1;0) = m4(1,0,0,1;0)"
BAD_POST_LINE = "post 1_0 m4(1,0,0,1;0) = m2(1,1;0)"
AXIOM_FAILURE = "validation of the structure fails 10 instances; construct needs one that passes"
BETA43_LINE = "beta43 m4(1,1,0,1;1) = m4(1,1,1,0;1)"
BAD_BETA43_LINE = "beta43 m4(1,1,0,1;1) = m4(1,1,0,1;1)"


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
                 ["certify"], 1, "validation of the structure fails 10 instances",
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
])
def test_bad_input_ends_in_one_error_line(tmp_path, generator, kind, edit, command, code,
                                          message):
    """A key that names no object, a braiding value that names no morphism
    (exit 2) and a structure that fails its axioms under certify or construct
    (exit 1) each end in one error line, never in an internal error."""
    path = tmp_path / f"bad.{kind}.txt"
    path.write_text(edit(_catalogue_text(generator, kind)))
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


@pytest.mark.parametrize("file,source,extra,code,message", [
    pytest.param(("morphism", "z2-into-klein"), ("z2", "short-skew", None), [], 2,
                 "expected a short-multi file, got short-skew", id="plain-morphism-skew-source"),
    pytest.param(("morphism", "z2-into-klein"), ("z2", "skew-monoidal", None), [], 2,
                 "expected a short-multi file, got skew-monoidal",
                 id="plain-morphism-skew-monoidal-source"),
    pytest.param(("morphism", "z2-into-klein"),
                 ("z2", "short-multi", lambda t: _replace_line(t, "post 1_0 m2(0,0;0) = m2(0,0;0)", "")),
                 [], 2, "post table not total at ('1_0', 'm2(0,0;0)')",
                 id="plain-morphism-partial-source"),
    pytest.param(("morphism", "z2-into-klein"), ("z2", "short-multi", None), ["--max-objects", "1"],
                 2, "z2: 2 objects exceeds --max-objects 1", id="plain-morphism-source-too-big"),
    pytest.param(("lax-functor", "z2"), ("z2", "skew-monoidal", None), [], 0, None,
                 id="lax-functor"),
    pytest.param(("lax-functor", "z2"), ("z2", "braiding", None), [], 2,
                 "expected a skew-monoidal file, got braiding", id="lax-functor-braiding-source"),
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
    src.write_text((edit or (lambda t: t))(_catalogue_text(generator, source_kind)))
    out = run_cli("validate", str(path), "--source", str(src), "--target", str(target), *extra)
    assert out.returncode == code, out.stdout + out.stderr
    errors = [ln for ln in out.stderr.splitlines() if not ln.startswith("warning: ")]
    if message is None:
        assert errors == [] and "status PASS" in out.stdout, out.stderr
    else:
        assert len(errors) == 1 and errors[0].startswith("error: "), out.stderr
        assert message in errors[0], out.stderr
