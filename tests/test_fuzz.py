"""Property tests for the error model and the file format.

A catalogue file with one line deleted, one line duplicated or two tokens
swapped (within a line or between two lines) must end, under every command, in a report or in one
`error:` line with a documented exit code: 0, 1 or 2, never 3 (an internal
error) and never a traceback. And serializing a parsed catalogue file gives
back the text it was parsed from.
"""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shortcat import cli
from shortcat.fileformat import parse, serialize

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


def test_serialize_parse_serialize_is_the_identity():
    seen = 0
    for generator in ALL_GENERATORS:
        for sf in cli.catalogue_files(generator):
            text = serialize(sf)
            again, _ = parse(text)
            assert serialize(again) == text, sf.name
            seen += 1
    assert seen >= 16
