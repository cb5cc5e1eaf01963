"""Property tests for the error model and the file format.

A catalogue file with one line deleted, one line duplicated or two tokens
swapped (within a line or between two lines) must end, under every command, in a report or in one
`error:` line with a documented exit code: 0, 1 or 2, never 3 (an internal
error) and never a traceback. And serializing a parsed catalogue file, or
the category with no objects, gives back the text it was parsed from. And
`catalogue comm-monoid` on any arguments either refuses them in one `error:`
line or writes files that validate. And a record that names an id its file
does not declare, in any keyed table of any kind, is refused with exit 2.
"""
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shortcat import cli
from shortcat.fileformat import (
    MAP, MORPHISM_TABLES, ROWS, RawLaxFunctor, StructureFile, parse, serialize, unbind_morphism,
)
from shortcat.fincat import FinCategory
from shortcat.shortskew import identity_skew_morphism
from shortcat.skewmon import identity_lax_functor

# The smaller catalogue entries: each command on one of them takes well under
# a second, so the example budget below stays within a few seconds.
FUZZ_GENERATORS = ("terminal", "z2", "poset-skew-second", "poset-skew-first", "heyting-2")
ALL_GENERATORS = [g for g in cli.GENERATORS if g != "comm-monoid"]

COMMANDS = {
    "category": [["validate"]],
    "short-multi": [["validate"], ["certify"], ["construct", "--which", "k"]],
    "short-skew": [["validate"], ["certify"], ["construct", "--which", "ks"],
                   ["construct", "--which", "kcl"], ["construct", "--which", "braiding-forward"]],
    "skew-monoidal": [["validate"], ["roundtrip"]],
    "braiding": [["validate"], ["roundtrip"], ["construct", "--which", "braiding-backward"]],
    "skew-closed": [["validate"], ["roundtrip"]],
}

FUZZ_FILES = [(sf.name, sf.kind, serialize(sf))
              for g in FUZZ_GENERATORS for sf in cli.catalogue_files(g)]

# Morphisms between the smaller catalogue entries, with their source and
# target short-multi files.
SHORT_MULTI = {name: text for name, kind, text in FUZZ_FILES if kind == "short-multi"}
MORPHISM_FILES = [(sf.name, serialize(sf), SHORT_MULTI[sf.payload.source],
                   SHORT_MULTI[sf.payload.target])
                  for sf in cli.catalogue_files("morphisms")
                  if sf.name in ("id[z2]", "z2-collapse", "heyting2-collapse")]


def _edit(text: str, how: str, rnd) -> str:
    """Delete or duplicate one line, or swap a token of one line with a token
    of another (or the same) line. Half the tokens drawn are the last of
    their line, the value of a table entry, as swapping two values gives the
    likeliest axiom failures."""
    lines = text.splitlines()
    k, m = rnd.randrange(len(lines)), rnd.randrange(len(lines))
    if how == "delete":
        del lines[k]
    elif how == "duplicate":
        lines.insert(k, lines[k])
    else:
        row_k = lines[k].split()
        row_m = row_k if k == m else lines[m].split()
        a = rnd.choice((-1, rnd.randrange(len(row_k))))
        b = rnd.choice((-1, rnd.randrange(len(row_m))))
        row_k[a], row_m[b] = row_m[b], row_k[a]
        lines[k], lines[m] = " ".join(row_k), " ".join(row_m)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entry=st.sampled_from(FUZZ_FILES), how=st.sampled_from(("delete", "duplicate", "swap")),
       rnd=st.randoms(use_true_random=False))
def test_edited_file_ends_in_a_documented_exit(work, capsys, entry, how, rnd):
    name, kind, text = entry
    path = work / f"edited.{kind}.txt"
    path.write_text(_edit(text, how, rnd), encoding="utf-8")
    command = rnd.choice(COMMANDS[kind])
    capsys.readouterr()
    code = cli.main([command[0], str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (name, how, command, err)
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) <= 1, (name, how, command, err)
    assert "Traceback" not in err


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entry=st.sampled_from(MORPHISM_FILES),
       which=st.sampled_from(("morphism", "source", "target")),
       how=st.sampled_from(("delete", "duplicate", "swap", "replace")),
       rnd=st.randoms(use_true_random=False))
def test_morphism_with_an_edited_file_ends_in_a_documented_exit(work, capsys, entry, which,
                                                                how, rnd):
    """Validate a morphism file against --source and --target files, one of
    the three edited, or replaced by another (edited or not) catalogue file of
    any kind."""
    name, *texts = entry
    files = dict(zip(("morphism", "source", "target"), texts))
    if how == "replace":
        files[which] = rnd.choice((lambda t: t, lambda t: _edit(t, "swap", rnd)))(
            rnd.choice(FUZZ_FILES)[2])
    else:
        files[which] = _edit(files[which], how, rnd)
    paths = {}
    for role, text in files.items():
        paths[role] = work / f"{role}.txt"
        paths[role].write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = cli.main(["validate", str(paths["morphism"]),
                     "--source", str(paths["source"]), "--target", str(paths["target"])])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (name, which, how, err)
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) <= 1, (name, which, how, err)
    assert "Traceback" not in err


def _stray_key_cases():
    """(label, file text, text of its --source and --target or None): the
    z2 files of every kind the z2 generator writes, its base as a category
    file, heyting2.cl, id[z2] as a plain and as a skew morphism file, and
    the identity lax functor on z2.mon."""
    z2 = {sf.kind: sf for sf in cli.catalogue_files("z2")}
    closed = next(sf for sf in cli.catalogue_files("heyting-2") if sf.kind == "skew-closed")
    base, (skew, _) = z2["short-multi"].payload.base, z2["short-skew"].payload
    mon = z2["skew-monoidal"].payload
    t = identity_lax_functor(mon)
    files = [StructureFile("category", base.name, base), *z2.values(), closed]
    cases = [(sf.name, serialize(sf), None) for sf in files]
    name, text, source, _ = next(entry for entry in MORPHISM_FILES if entry[0] == "id[z2]")
    cases.append((name, text, source))
    skew_morphism = StructureFile("morphism", f"id[{skew.name}]",
                                  unbind_morphism(identity_skew_morphism(skew)))
    cases.append((skew_morphism.name, serialize(skew_morphism), serialize(z2["short-skew"])))
    lax = RawLaxFunctor(mon.name, mon.name, dict(t.functor.obj_map), dict(t.functor.mor_map),
                        t.f0, dict(t.f2))
    cases.append((t.name, serialize(StructureFile("lax-functor", t.name, lax)),
                  serialize(z2["skew-monoidal"])))
    return cases


STRAY_KEY_CASES = _stray_key_cases()


@pytest.mark.parametrize("label,text,ends", STRAY_KEY_CASES,
                         ids=[case[0] for case in STRAY_KEY_CASES])
def test_a_stray_key_is_refused(work, capsys, label, text, ends):
    """For every keyed record of the file, a copy of its first record whose
    last key argument is an id the file does not declare makes validate
    exit 2 with one error line, which names that id unless the record lists
    a multimap set: its ids are then declared twice. provenance keys are
    free-form."""
    sf, _ = parse(text)
    keyed = {row.keyword: row.shape for row in ROWS[sf.kind] + MORPHISM_TABLES.get(
        getattr(sf.payload, "variant", None), ()) if row.nargs}
    firsts = {}
    for line in text.splitlines():
        head, _, tail = line.partition(" = ")
        keyword, *args = head.split()
        if args and keyword != "provenance":
            firsts.setdefault(keyword, (args, tail))
    assert set(firsts) == set(keyed), label
    options = []
    if ends is not None:
        (work / "end.txt").write_text(ends, encoding="utf-8")
        options = ["--source", str(work / "end.txt"), "--target", str(work / "end.txt")]
    path, refused = work / f"stray.{sf.kind}.txt", []
    for keyword, (args, tail) in firsts.items():
        path.write_text(f"{text}{keyword} {' '.join(args[:-1] + ['nosuch'])} = {tail}\n",
                        encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["validate", str(path), *options])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        if code != 2 or len(errors) != 1 or (keyed[keyword] != MAP and "nosuch" not in errors[0]):
            refused.append((keyword, code, errors))
    assert not refused, (label, refused)


def test_serialize_parse_serialize_is_the_identity():
    """On every catalogue file and on the category with no objects."""
    empty = StructureFile("category", "empty", FinCategory("empty", (), {}, {}, {}))
    seen = 0
    for sf in [empty, *(sf for g in ALL_GENERATORS for sf in cli.catalogue_files(g))]:
        text = serialize(sf)
        again, _ = parse(text)
        assert serialize(again) == text, sf.name
        seen += 1
    assert seen >= 17


# Characters of the drawn monoid names: with `,` two multimap ids can come out
# alike (m2(a,b,a;c) for the elements a and b,a, or a,b and a), `1_` starts
# the identity of an element, and `#` starts a comment line.
NAME_CHARS = "01ab_m(),#é"


@st.composite
def comm_monoid_args(draw):
    """--elements, --unit, --table and --monoid-name of a commutative monoid
    (Z/n, or a chain under max) on drawn names, possibly with one part
    edited: a table value changed, a row dropped or repeated, an element
    listed twice, a name given a `=` or `/`, or a part drawn as any text."""
    n = draw(st.integers(1, 3))
    names = draw(st.lists(st.text(st.sampled_from(NAME_CHARS), min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    op = draw(st.sampled_from((lambda i, j: (i + j) % n, max)))
    rows = [[names[op(i, j)] for j in range(n)] for i in range(n)]
    name = draw(st.text(st.sampled_from(NAME_CHARS), max_size=4))
    edit = draw(st.sampled_from(("none", "none", "value", "drop-row", "extra-row",
                                 "duplicate", "reserved", "any-text")))
    if edit == "value":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(names) | st.text(max_size=3))
    elif edit in ("drop-row", "extra-row"):
        rows = rows[1:] if edit == "drop-row" else rows + rows[:1]
    elif edit == "duplicate":
        names.append(draw(st.sampled_from(names)))
    elif edit == "reserved":
        name += draw(st.sampled_from("=/"))
    args = {"elements": " ".join(names), "unit": names[0],
            "table": ";".join(" ".join(row) for row in rows), "monoid-name": name}
    if edit == "any-text":
        args[draw(st.sampled_from(sorted(args)))] = draw(st.text(max_size=8))
    return args


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=comm_monoid_args())
def test_comm_monoid_arguments_end_in_a_refusal_or_valid_files(capsys, args):
    with tempfile.TemporaryDirectory() as out:
        capsys.readouterr()
        code = cli.main(["catalogue", "comm-monoid", f"--out={out}",
                         *(f"--{key}={value}" for key, value in args.items())])
        err = capsys.readouterr().err
        assert code in (0, 2), (args, err)
        assert len(err.splitlines()) == (code == 2), (args, err)
        assert err.startswith("error: ") or code == 0, (args, err)
        for path in sorted(Path(out).iterdir()):
            parse(path.read_text(encoding="utf-8"))
            assert cli.main(["validate", str(path)]) == 0, (args, path.name)
            assert "\nstatus PASS\n" in capsys.readouterr().out, (args, path.name)
