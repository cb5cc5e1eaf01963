"""Each family's instance count against the law table of laws.py, which
counts the instances of each law definition over the dataclass fields
alone (the base's objects and hom-sets, the multimap tables), never the
structure's index, adjacency, table domains or lookups, nor any helper of
the package or of the reference validators. The law table is not filtered
here: where the kernel's pre-post loop takes only the last p of a slot
that has two or more morphisms into it, the profunctor count falls short
of the law's, and a strict xfail marks exactly those structures."""
import functools

import pytest

import laws
from shortcat.catalogue import catalogue_short_multis, catalogue_short_skews
from shortcat.shortmulti import ShortMulticategory, validate_short_multicategory
from shortcat.shortskew import validate_short_skew
from test_kernel import LastPOfEachSlot, _cyclic


def _structures() -> dict:
    """The catalogue short multicategories, their embeddings, poset2-first
    and Z/2..Z/4 in both kinds."""
    out = {**catalogue_short_multis(), **catalogue_short_skews()}
    for n in (2, 3, 4):
        out.update(_cyclic(n))
    return out


STRUCTURES = _structures()


@functools.cache
def _counts(name: str) -> dict:
    """The kernel's count of each law family, the base's left out."""
    m = STRUCTURES[name]
    validate = validate_short_multicategory if isinstance(m, ShortMulticategory) \
        else validate_short_skew
    return {f: n for f, n in validate(m).counts.items() if not f.startswith("base-")}


@functools.cache
def _law_counts(name: str) -> dict:
    return laws.validate(STRUCTURES[name]).counts


# The pre-post loop checks only the last p into each slot, so where more
# than one morphism goes into a slot it counts fewer instances than the law:
# 1249 of 1375 on heyting2, 930 of 1012 on poset2-second and 1045 of 1142 on
# poset2-first.
PRE_POST_QUIRK = pytest.mark.xfail(strict=True, reason="pre-post takes the last p of each slot")
QUIRKED = ("heyting2", "heyting2.skew", "poset2-first", "poset2-second", "poset2-second.skew")


def test_every_kind_is_covered():
    assert len(STRUCTURES) == 6 + 7 + 6
    assert {type(m).__name__ for m in STRUCTURES.values()} == {
        "ShortMulticategory", "ShortSkewMulticategory"}


def test_the_quirk_marks_exactly_the_structures_with_a_slot_of_two_morphisms():
    assert QUIRKED == tuple(sorted(name for name, m in STRUCTURES.items()
                                 if LastPOfEachSlot(m).quirked))


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_instance_counts_match_the_definitions(name):
    got, want = dict(_counts(name)), dict(_law_counts(name))
    assert got.pop("profunctor", 0) > 0 and want.pop("profunctor", 0) > 0
    assert got == want


@pytest.mark.parametrize("name", [pytest.param(n, marks=PRE_POST_QUIRK) if n in QUIRKED else n
                                  for n in sorted(STRUCTURES)])
def test_profunctor_count_matches_its_definition(name):
    assert _counts(name)["profunctor"] == _law_counts(name)["profunctor"]
