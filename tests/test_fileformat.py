import dataclasses
import re
import sys
from pathlib import Path

import pytest

from shortcat.catalogue import (
    catalogue_braidings, catalogue_morphisms, catalogue_short_braidings,
    heyting2_skew_closed, heyting2_skew_monoidal, monoid_short_multi,
    poset2_base, poset2_first_short_skew, z2_monoid,
)
from shortcat.cli import GENERATORS, catalogue_files
from shortcat.errors import ParseError, UnknownKind, VersionMismatch
from shortcat.fileformat import (
    MORPHISM_TABLES, ROWS, StructureFile, bind_morphism, parse, serialize, unbind_morphism,
)
from shortcat.fincat import FinCategory
from shortcat.shortmulti import validate_multi_morphism


def _roundtrip(sf):
    text = serialize(sf)
    sf2, warnings = parse(text)
    assert warnings == []
    assert serialize(sf2) == text
    return sf2


def test_category_roundtrip():
    sf2 = _roundtrip(StructureFile("category", "poset2", poset2_base()))
    assert sf2.payload.homs == poset2_base().homs


def test_short_multi_roundtrip():
    m = monoid_short_multi(z2_monoid())
    sf2 = _roundtrip(StructureFile("short-multi", "z2", m))
    assert sf2.payload.sub == m.sub and sf2.payload.maps == m.maps


def test_short_skew_with_braiding_roundtrip():
    sk, beta = catalogue_short_braidings()["z2.beta"]
    sf2 = _roundtrip(StructureFile("short-skew", "z2.skew", (sk, beta)))
    structure, beta2 = sf2.payload
    assert structure.j == sk.j and beta2.b32 == beta.b32


def test_short_skew_without_braiding():
    sk = poset2_first_short_skew()
    sf2 = _roundtrip(StructureFile("short-skew", "poset2-first", (sk, None)))
    assert sf2.payload[1] is None


def test_monoidal_braiding_closed_roundtrips():
    _roundtrip(StructureFile("skew-monoidal", "heyting2", heyting2_skew_monoidal()))
    mon, braid = catalogue_braidings()["klein.sym"]
    sf2 = _roundtrip(StructureFile("braiding", "klein", (mon, braid)))
    assert sf2.payload[1].s == braid.s
    _roundtrip(StructureFile("skew-closed", "heyting2.cl", heyting2_skew_closed()))


def test_provenance_block_survives():
    sf = StructureFile("category", "poset2", poset2_base(),
                       {"source": "z2", "construction": "k"})
    sf2 = _roundtrip(sf)
    assert sf2.provenance == sf.provenance


def test_morphism_roundtrip_and_bind():
    F = catalogue_morphisms()["z2-into-klein"]
    sf2 = _roundtrip(StructureFile("morphism", "z2-into-klein", unbind_morphism(F)))
    bound = bind_morphism(sf2.payload, "z2-into-klein", F.source, F.target)
    assert validate_multi_morphism(bound).ok


def test_reordered_lines_warn_and_normalize():
    text = serialize(StructureFile("category", "poset2", poset2_base()))
    lines = text.splitlines()
    shuffled = "\n".join([lines[0], lines[1], lines[2]] + list(reversed(lines[3:]))) + "\n"
    sf, warnings = parse(shuffled)
    assert warnings
    assert serialize(sf) == text


def test_parse_errors():
    with pytest.raises(VersionMismatch):
        parse("format = 2\nkind = category\nname = x\nobjects = a\n")
    with pytest.raises(UnknownKind):
        parse("format = 1\nkind = mystery\nname = x\n")
    with pytest.raises(ParseError) as err:
        parse("format = 1\nkind = category\nname = x\nobjects = a\nid a\n")
    assert err.value.line_no == 5
    with pytest.raises(ParseError):
        # hom line with the wrong argument count, reported with its line
        parse("format = 1\nkind = category\nname = x\nobjects = a\nhom a = f\n")


def test_undeclared_object_is_rejected_with_line():
    text = ("format = 1\nkind = category\nname = x\nobjects = a\n"
            "hom a b = f\nid a = f\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == 5
    assert "undeclared" in str(err.value)


def test_stray_keyword_is_reported_at_its_first_line():
    text = ("format = 1\nkind = category\nname = x\nobjects = a\nhom a a = 1_a\n"
            "pre a 1 a = a\nid a = 1_a\ncomp 1_a 1_a = 1_a\nalpha a = a\npre b 1 b = b\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == 6
    assert "unexpected keyword 'pre' for kind category" in str(err.value)
    # a run of stray lines, which the parser reads as one block
    run = text.replace("alpha a = a\n", "alpha a = a\nalpha b = b\n")
    for stray, message in ((run, "line 6: unexpected keyword 'pre'"),
                           (run.replace("pre a 1 a = a\n", ""),
                            "line 8: unexpected keyword 'alpha'")):
        with pytest.raises(ParseError) as err:
            parse(stray)
        assert str(err.value) == message + " for kind category"
    with pytest.raises(ParseError) as err:
        parse("format = 1\nkind = category\nname = x\nname = y\nobjects = a\n")
    assert err.value.line_no == 4 and "duplicate name line" in str(err.value)


def _strings(value):
    """Every string in the tables of a payload: dataclass fields other than
    names, dict keys and values, and the members of tuples, lists and sets."""
    if isinstance(value, str):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name != "name":
                yield from _strings(getattr(value, f.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _strings(key)
            yield from _strings(item)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from _strings(item)


def test_parsed_ids_are_interned():
    """Each id a parsed file holds is the interned string, so an id is one
    object in every table that names it."""
    generators = [g for g in GENERATORS if g != "comm-monoid"]
    checked = 0
    for sf in (sf for g in generators for sf in catalogue_files(g)):
        payload = parse(serialize(sf))[0].payload
        for x in _strings(payload):
            assert sys.intern(x) is x, (sf.name, sf.kind, x)
            checked += 1
    assert checked > 10000


def _z2_short_multi():
    return serialize(next(sf for sf in catalogue_files("z2") if sf.kind == "short-multi"))


@pytest.mark.parametrize("line,first", [
    ("hom 0 0 = 1_0", "hom 0 0 = zzz"),
    ("pre m2(0,0;0) 1 1_0 = m2(0,0;0)", "pre m2(0,0;0) 1 1_0 = zzz"),
    ("pre m2(0,0;0) 1 1_0 = m2(0,0;0)", "pre m2(0,0;0) 01 1_0 = m2(0,0;0)"),
], ids=["hom", "pre", "pre-same-slot"])
def test_repeated_key_is_rejected_at_its_second_line(line, first):
    """A file that gives one key twice says two things: it fails at the
    second record, which names the first. A slot is the integer it spells."""
    text = _z2_short_multi()
    k = text.splitlines().index(line) + 1
    with pytest.raises(ParseError) as err:
        parse(text.replace(line + "\n", first + "\n" + line + "\n"))
    head = line.partition(" = ")[0]
    assert str(err.value) == f"line {k + 1}: repeated key {head}, first given at line {k}"
    assert err.value.line_no == k + 1


def test_record_without_values():
    """`kw args =` is a record with no values. A category with no objects is
    written `objects =` and reads back; an empty multimap set reads as the
    empty set, which the canonical form leaves out."""
    empty = StructureFile("category", "e", FinCategory("e", (), {}, {}, {}))
    assert serialize(empty) == "format = 1\nkind = category\nname = e\nobjects =\n"
    assert _roundtrip(empty).payload == empty.payload
    sf, warnings = parse("format = 1\nkind = category\nname = e\nobjects =   \n")
    assert sf.payload.objects == () and len(warnings) == 1
    text = _z2_short_multi()
    sf, warnings = parse(text + "map2 0 0 1 =\n")
    assert sf.payload.maps[2][(("0", "0"), "1")] == () and len(warnings) == 1
    assert serialize(sf) == text
    with pytest.raises(ParseError, match="line 5: id expects exactly one value"):
        parse("format = 1\nkind = category\nname = x\nobjects = a\nid a =\n")


@pytest.mark.parametrize("line,message", [
    ("map2 0 0 0 = f = g", "token '=' holds '='"),
    ("map2 0 0 0 = m2(0,0;0) a=b", "token 'a=b' holds '='"),
    ("map2 0 0=0 0 = m2(0,0;0)", "token '0=0' holds '='"),
    ("map2 0 0 0 a=b =", "token 'a=b' holds '='"),
    ("map2=x 0 0 0 = f", "unexpected keyword 'map2=x' for kind short-multi"),
], ids=["second-equals", "value", "argument", "no-values", "keyword"])
def test_a_token_holding_equals_is_rejected_at_its_line(line, message):
    """No argument or value token holds '=', as the grammar of docs/format.md
    says; a keyword that does is one that no kind has."""
    text = _z2_short_multi()
    k = text.splitlines().index("map2 0 0 0 = m2(0,0;0)") + 1
    with pytest.raises(ParseError) as err:
        parse(text.replace("map2 0 0 0 = m2(0,0;0)\n", line + "\n"))
    assert str(err.value) == f"line {k}: {message}"


def _documented_keywords():
    """Kind -> record keywords, from the table in docs/format.md."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "format.md").read_text()
    table = doc.split("## Keywords per kind", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)`([^|]*) \| ([^|]+) \|$", table, re.M)
    return {kind + variant: tuple(keywords.replace("`", "").split())
            for kind, variant, keywords in rows}


def test_docs_list_the_keywords_of_rows():
    """The keywords docs/format.md lists for each kind, in canonical order,
    are those of ROWS, so the two cannot drift apart."""
    kinds = {kind: rows for kind, rows in ROWS.items() if kind != "morphism"}
    kinds.update({f"morphism ({variant})": ROWS["morphism"] + tables
                  for variant, tables in MORPHISM_TABLES.items()})
    assert _documented_keywords() == {kind: tuple(row.keyword for row in rows)
                                      for kind, rows in kinds.items()}
