"""Each family's instance count against a count written from its law
definition: nested loops over the dataclass fields alone (the base's
objects and hom-sets, the multimap tables), never the structure's index,
adjacency, table domains or lookups, nor any helper of the package or of
the reference validators."""
import argparse
import functools
import itertools
from collections import Counter

import pytest

from shortcat import cli
from shortcat.catalogue import catalogue_short_multis, catalogue_short_skews
from shortcat.shortmulti import ShortMulticategory, validate_short_multicategory
from shortcat.shortskew import validate_short_skew

# A type is (flavour, arity): "t" tight and "l" loose in a skew structure,
# "m" for every map of a plain one.
PLAIN_CASES = ((("m", 2), ("m", 2)), (("m", 3), ("m", 2)), (("m", 2), ("m", 3)),
               (("m", 2), ("m", 0)), (("m", 3), ("m", 0)))
SKEW_CASES = ((("t", 2), ("t", 2)), (("t", 3), ("t", 2)), (("t", 2), ("t", 3)),
              (("t", 2), ("l", 0)), (("t", 3), ("l", 0)), (("l", 1), ("l", 0)),
              (("t", 2), ("l", 1)), (("l", 1), ("t", 2)))

FAMILIES = ("identity", "nat-in-a", "nat-in-b", "nat-in-c", "dinat-in-b",
            "assoc-line-a", "assoc-line-b", "assoc-notline-a", "assoc-notline-b",
            "assoc-notline-c", "assoc-notline-d")
SKEW_FAMILIES = ("j-nat", "j-derived")


def _tables(m) -> dict:
    """The multimap tables of m by type."""
    if isinstance(m, ShortMulticategory):
        return {("m", n): table for n, table in m.maps.items()}
    return {**{("t", n): table for n, table in m.tight.items()},
            **{("l", n): table for n, table in m.loose.items()}}


def definition_counts(m) -> Counter:
    """The number of instances of each family, from the law definitions.

    identity: f o_i 1 = f for each slot i and 1 o f = f, for each non-base
    map f. profunctor: post-post for each composable q2, q out of cod f;
    pre-pre for each slot i and composable p, p2 into it; pre-post for each
    slot i, p into it and q out of cod f; pre-commute for each i < j, p into
    slot i and p2 into slot j. A stored substitution g o_i f takes a non-base
    outer map g of its case's outer type and a non-base inner map f of its
    inner type into slot i (a base morphism substitutes through the
    actions): it is natural in each slot t of f and p into it (nat-in-a), in
    each other slot j of g and p into it (nat-in-b) and in each q out of cod
    g (nat-in-c). dinat-in-b: each outer map g, slot i, w into slot i and
    inner map f into dom w. assoc-line f o_i (g o_j h) for each binary f,
    slot i, g of the middle arity into slot i, slot j of g and h of the last
    arity into slot j; assoc-notline (f o_1 g) o h for each binary f, g into
    slot 1 and h into slot 2; the middle and last arities are (2, 2), (2, 0)
    for line a, b and (2, 2), (2, 0), (0, 2), (0, 0) for notline a to d. In
    a skew structure the binaries are the tight ones, the nullaries the
    loose ones, and j is natural at each base p: a -> b with each binary g
    whose slot 2 or slot 1 is b, each q out of b, each binary into a and each
    nullary into a (j-nat); j-derived counts each binary and each base
    morphism."""
    homs, objects = m.base.homs, m.base.objects
    morphisms = {p for ps in homs.values() for p in ps}
    into, out = Counter(), Counter()
    for (a, b), ps in homs.items():
        out[a] += len(ps)
        into[b] += len(ps)
    # the composable pairs into and out of each object
    into2 = {x: sum(len(ps) * into[a] for (a, b), ps in homs.items() if b == x) for x in objects}
    out2 = {x: sum(len(ps) * out[b] for (a, b), ps in homs.items() if a == x) for x in objects}
    tables = _tables(m)

    def members(ty, base_too=True):
        """(id, domain, codomain) of each map of a type."""
        return [(f, dom, cod) for (dom, cod), fs in tables.get(ty, {}).items() for f in fs
                if base_too or f not in morphisms]

    counts = Counter()
    typed = {f: (dom, cod) for ty in tables for f, dom, cod in members(ty, base_too=False)}
    for dom, cod in typed.values():
        counts["identity"] += len(dom) + 1
        counts["profunctor"] += (out2[cod] + sum(into2[a] + into[a] * out[cod] for a in dom)
                                 + sum(into[a] * into[b] for a, b in itertools.combinations(dom, 2)))

    skew = not isinstance(m, ShortMulticategory)
    for outer, inner in SKEW_CASES if skew else PLAIN_CASES:
        inner_doms: dict = {}
        for _, dom, cod in members(inner, base_too=False):
            inner_doms.setdefault(cod, []).append(dom)
        for g, gdom, gcod in members(outer):
            for i, x in enumerate(gdom):
                counts["dinat-in-b"] += sum(len(ws) * len(inner_doms.get(y, ()))
                                            for (y, z), ws in homs.items() if z == x)
                if g in morphisms:
                    continue
                for fdom in inner_doms.get(x, ()):
                    counts["nat-in-a"] += sum(into[a] for a in fdom)
                    counts["nat-in-b"] += sum(into[a] for j, a in enumerate(gdom) if j != i)
                    counts["nat-in-c"] += out[gcod]

    binary, nullary = (("t", 2), ("l", 0)) if skew else (("m", 2), ("m", 0))
    pools = {2: members(binary), 0: members(nullary)}

    def number_into(n, x):
        return sum(1 for _, _, cod in pools[n] if cod == x)

    for case, (gn, hn) in zip("ab", ((2, 2), (2, 0))):
        counts[f"assoc-line-{case}"] += sum(
            number_into(hn, y) for _, fdom, _ in pools[2] for x in fdom
            for _, gdom, cod in pools[gn] if cod == x for y in gdom)
    for case, (gn, hn) in zip("abcd", ((2, 2), (2, 0), (0, 2), (0, 0))):
        counts[f"assoc-notline-{case}"] += sum(
            number_into(gn, fdom[0]) * number_into(hn, fdom[1]) for _, fdom, _ in pools[2])

    if skew:
        for (a, b), ps in homs.items():
            per = out[b] + number_into(2, a) + number_into(0, a) + sum(
                (gdom[1] == b) + (gdom[0] == b) for _, gdom, _ in pools[2])
            counts["j-nat"] += len(ps) * per
        counts["j-derived"] += len(pools[2]) + len(morphisms)
    return counts


def _cyclic(n):
    args = argparse.Namespace(elements=" ".join(map(str, range(n))), unit="0",
                              table=";".join(" ".join(str((a + b) % n) for b in range(n))
                                             for a in range(n)),
                              monoid_name=f"zmod{n}")
    for sf in cli.catalogue_files("comm-monoid", args):
        if sf.kind == "short-multi":
            yield sf.name, sf.payload
        elif sf.kind == "short-skew":
            yield sf.name, sf.payload[0]


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
    m = STRUCTURES[name]
    validate = validate_short_multicategory if isinstance(m, ShortMulticategory) \
        else validate_short_skew
    return validate(m).counts


# The pre-post loop checks only the last p into each slot, so where more
# than one morphism goes into a slot it counts fewer instances than the law:
# 1249 of 1375 on heyting2, 930 of 1012 on poset2-second and 1045 of 1142 on
# poset2-first.
PRE_POST_QUIRK = pytest.mark.xfail(strict=True, reason="pre-post takes the last p of each slot")
QUIRKED = ("heyting2", "heyting2.skew", "poset2-second", "poset2-second.skew", "poset2-first")


def test_every_kind_is_covered():
    assert len(STRUCTURES) == 6 + 7 + 6
    assert {type(m).__name__ for m in STRUCTURES.values()} == {
        "ShortMulticategory", "ShortSkewMulticategory"}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_instance_counts_match_the_definitions(name):
    want = definition_counts(STRUCTURES[name])
    families = FAMILIES + (() if isinstance(STRUCTURES[name], ShortMulticategory) else SKEW_FAMILIES)
    got = _counts(name)
    assert {f: got.get(f, 0) for f in families} == {f: want[f] for f in families}


@pytest.mark.parametrize("name", [pytest.param(n, marks=PRE_POST_QUIRK) if n in QUIRKED else n
                                  for n in sorted(STRUCTURES)])
def test_profunctor_count_matches_its_definition(name):
    assert _counts(name).get("profunctor", 0) == definition_counts(STRUCTURES[name])["profunctor"]
