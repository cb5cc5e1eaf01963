import pytest

from shortcat.catalogue import discrete_base, poset2_base, terminal_category
from shortcat.errors import MalformedTable
from shortcat.fincat import (
    FinCategory, FinFunctor, identity_functor, validate_category, validate_functor,
)


def test_one_object_one_morphism_passes():
    r = validate_category(terminal_category())
    assert r.ok
    assert r.total_checked() > 0


def test_poset2_passes():
    r = validate_category(poset2_base())
    assert r.ok
    assert r.counts["assoc"] > 0


def test_poset2_identity_mutation_fails_at_named_instance():
    c = poset2_base()
    comp = dict(c.comp)
    comp[("1_1", "le")] = "1_0"
    bad = FinCategory(c.name, c.objects, c.homs, comp, c.ids)
    r = validate_category(bad)
    assert not r.ok
    assert r.has_failure("identity", ("1_1", "le"))


def test_an_object_listed_twice_is_refused():
    """check_tables checks only the values of an id table with as many keys
    as there are objects, so the objects must be distinct: a category that
    lists one twice is refused, stray id entry or not."""
    c = terminal_category()
    with pytest.raises(MalformedTable, match="an object is declared twice"):
        FinCategory(c.name, c.objects * 2, c.homs, c.comp, {**c.ids, "nosuch": "1_o"})


def test_identity_functor_on_poset2_passes():
    assert validate_functor(identity_functor(poset2_base())).ok


def test_constant_functor_to_terminal_passes():
    src = poset2_base()
    tgt = terminal_category()
    f = FinFunctor("collapse", src, tgt,
                   {"0": "o", "1": "o"},
                   {m: "1_o" for m in src.morphisms()})
    assert validate_functor(f).ok


def test_object_swap_with_forced_mor_map_fails():
    c = poset2_base()
    f = FinFunctor("swap", c, c,
                   {"0": "1", "1": "0"},
                   {"1_0": "1_1", "1_1": "1_0", "le": "le"})
    r = validate_functor(f)
    assert not r.ok
    assert r.has_failure("functor-span", ("le",))

