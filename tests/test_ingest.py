"""The table-driven serializer and the lean structure checks against their
former versions in reference_validators.py: the same bytes from serialize,
and the same exception type and message, or none, from check_structure and
sub_case."""
import itertools

import pytest

import reference_validators as ref
from shortcat import cli
from shortcat.catalogue import catalogue_short_skews
from shortcat.classify import certify
from shortcat.errors import ShortcatError
from shortcat.fileformat import RawLaxFunctor, StructureFile, parse, serialize
from shortcat.skewmon import identity_lax_functor
from shortcat.transport import k_object, ks_object
from test_kernel import _cyclic_files


def _constructed(files):
    """The skew monoidal categories that construct k and ks build."""
    for sf in files:
        if sf.kind == "short-multi":
            m = sf.payload
            yield StructureFile("skew-monoidal", m.name + ".k", k_object(m, certify(m)))
        elif sf.kind == "short-skew":
            m = sf.payload[0]
            yield StructureFile("skew-monoidal", m.name + ".ks", ks_object(m, certify(m)))


def _identity_lax_functors(files):
    """The identity lax functor on each skew monoidal file."""
    for sf in files:
        if sf.kind == "skew-monoidal":
            t = identity_lax_functor(sf.payload)
            raw = RawLaxFunctor(sf.payload.name, sf.payload.name, dict(t.functor.obj_map),
                                dict(t.functor.mor_map), t.f0, dict(t.f2))
            yield StructureFile("lax-functor", t.name, raw)


def test_serialize_matches_reference():
    """Every generator's files (the mutants and morphisms among them), Z/2..Z/4,
    the k and ks constructions of the catalogue and the identity lax functor on
    each skew monoidal file, byte for byte."""
    generators = [g for g in cli.GENERATORS if g != "comm-monoid"]
    files = [sf for g in generators for sf in cli.catalogue_files(g)]
    files += [sf for n in (2, 3, 4) for sf in _cyclic_files(n)]
    files += list(_constructed(f for g in ("terminal", "z2", "heyting-2")
                               for f in cli.catalogue_files(g)))
    files += list(_identity_lax_functors(files))
    differ = [f"{sf.name}.{sf.kind}" for sf in files if serialize(sf) != ref.serialize(sf)]
    assert not differ, differ
    assert {sf.kind for sf in files} == {
        "category", "short-multi", "short-skew", "skew-monoidal", "skew-closed", "braiding",
        "morphism", "lax-functor"}, "every kind a file can hold"
    assert len(files) > 100


# The short-multi and short-skew files of the terminal, Z/2, poset and Heyting
# generators.
EDITED = [("terminal", "short-multi"), ("terminal", "short-skew"), ("z2", "short-multi"),
          ("z2", "short-skew"), ("poset-skew-second", "short-multi"),
          ("poset-skew-first", "short-skew"), ("heyting-2", "short-multi"),
          ("heyting-2", "short-skew")]


def _text(generator, kind):
    return serialize(next(sf for sf in cli.catalogue_files(generator) if sf.kind == kind))


def _line_edits(text):
    """Every single-line deletion and duplication of a file."""
    lines = text.splitlines(keepends=True)
    for k in range(len(lines)):
        yield f"delete {k}", "".join(lines[:k] + lines[k + 1:])
        yield f"duplicate {k}", "".join(lines[:k + 1] + lines[k:])


def _malformed_cli_cases():
    """The edited files of tests/test_cli.py that end in a structure error or
    in an axiom failure: a pre or sub line copied with its slot set to 0 or 7,
    and a post value of the wrong type."""
    for kind, table, slot in itertools.product(("short-multi", "short-skew"), ("pre", "sub"),
                                               ("0", "7")):
        text = _text("z2", kind)
        words = next(ln for ln in text.splitlines()
                     if ln.startswith(table + " ") and ln.split()[2] == "2").split()
        words[2] = slot
        yield f"z2.{kind} {table} slot {slot}", text + " ".join(words) + "\n"
    for kind in ("short-multi", "short-skew"):
        text = _text("z2", kind)
        line = "post 1_0 m4(1,0,0,1;0) = m4(1,0,0,1;0)"
        assert line + "\n" in text
        yield f"z2.{kind} bad post", text.replace(line, "post 1_0 m4(1,0,0,1;0) = m2(1,1;0)")


def _structure(text):
    """The structure a text holds, or None when it does not parse."""
    try:
        sf, _ = parse(text)
    except ShortcatError:
        return None
    return sf.payload[0] if sf.kind == "short-skew" else sf.payload


def _outcome(check, m):
    try:
        check(m)
    except Exception as exc:  # the reference's exception is the expectation
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("source", [f"{g}.{k}" for g, k in EDITED] + ["test_cli"])
def test_check_structure_matches_reference(source):
    if source == "test_cli":
        cases = list(_malformed_cli_cases())
    else:
        generator, kind = source.split(".", 1)
        cases = list(_line_edits(_text(generator, kind)))
    tried, raised, differ = 0, 0, []
    for label, text in cases:
        m = _structure(text)
        if m is None:
            continue
        want = _outcome(ref.check_structure, m)
        if _outcome(type(m).check_structure, m) != want:
            differ.append((label, want))
        tried += 1
        raised += want is not None
    assert not differ, differ[:5]
    assert tried >= 6 and raised >= 4, (tried, raised)


def test_sub_case_matches_reference():
    """On every pair of ids of each catalogue short skew structure, at every
    slot of the outer one."""
    tried = 0
    for m in catalogue_short_skews().values():
        for g, f in itertools.product(sorted(m._index), repeat=2):
            for i in range(1, max(m.arity(g), 1) + 1):
                assert m.sub_case(g, i, f) == ref.sub_case(m, g, i, f), (m.name, g, i, f)
                tried += 1
    assert tried > 1000
