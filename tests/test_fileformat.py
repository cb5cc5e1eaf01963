import pytest

from shortcat.catalogue import (
    catalogue_braidings, catalogue_morphisms, catalogue_short_braidings,
    heyting2_skew_closed, heyting2_skew_monoidal, monoid_short_multi,
    poset2_base, poset2_first_short_skew, z2_monoid,
)
from shortcat.errors import ParseError, UnknownKind, VersionMismatch
from shortcat.fileformat import (
    StructureFile, bind_morphism, parse, serialize, unbind_morphism,
)
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
    with pytest.raises(ParseError) as err:
        parse("format = 1\nkind = category\nname = x\nname = y\nobjects = a\n")
    assert err.value.line_no == 4 and "duplicate name line" in str(err.value)
