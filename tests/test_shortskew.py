import dataclasses

import laws
from shortcat.catalogue import (
    catalogue_short_multis, catalogue_short_skews, poset2_first_short_skew,
)
from shortcat.shortmulti import ShortMulticategory, validate_short_multicategory
from shortcat.shortskew import (
    _CASE_OF, _LANDING, LOOSE, TIGHT, embed_plain, identity_skew_morphism, sub_flavour,
    validate_short_skew, validate_skew_multi_morphism,
)
from test_kernel import _cyclic


def test_embedded_catalogue_structures_pass():
    for name, m in catalogue_short_multis().items():
        r = validate_short_skew(embed_plain(m))
        assert r.ok, f"{name}: {r.failures[:3]}"
        assert r.counts["j-nat"] > 0


def test_poset2_first_skew_passes_and_j_not_surjective():
    m = poset2_first_short_skew()
    r = validate_short_skew(m)
    assert r.ok, r.failures[:5]
    # tight (a1..;b) inhabited iff a1 <= b, loose always inhabited
    assert m.mapset(TIGHT, 2, ("1", "1"), "0") == ()
    assert m.mapset(LOOSE, 2, ("1", "1"), "0") != ()
    image = {m.j[f] for f in m.j}
    assert "l2(1,1;0)" not in image


def test_embed_plain_tables_coincide_and_j_is_identity():
    m = catalogue_short_multis()["z2"]
    s = embed_plain(m)
    assert all(k == v for k, v in s.j.items())
    for n in (0, 2):
        for key in s.mapset_keys(LOOSE, n):
            flavour_tight = s.mapset(TIGHT, n, *key) if n == 2 else tuple(m.mapset(0, *key))
            assert s.mapset(LOOSE, n, *key) == flavour_tight


def test_embed_counts_match_plain_on_shared_families():
    m = catalogue_short_multis()["z2"]
    plain = validate_short_multicategory(m)
    skew = validate_short_skew(embed_plain(m))
    for family in ("assoc-line-a", "assoc-line-b", "assoc-notline-a",
                   "assoc-notline-b", "assoc-notline-c", "assoc-notline-d"):
        assert plain.counts[family] == skew.counts[family]
    assert skew.counts["j-nat"] > 0 and skew.counts["j-derived"] > 0
    assert skew.total_checked() > plain.total_checked()


def test_a_tight_action_result_redirected_to_a_loose_map_fails_typing():
    """A pre or post result keeps its map's flavours: a tight entry sent to
    the loose map of the same type fails typing with a False flavour flag,
    on the lines the law table's typing check renders."""
    m = poset2_first_short_skew()
    pre, post = dict(m.pre), dict(m.post)
    pre[("t2(0,0;0)", 1, "1_0")] = "l2(0,0;0)"
    post[("1_0", "t2(0,0;0)")] = "l2(0,0;0)"
    bad = dataclasses.replace(m, pre=pre, post=post)
    lines = [f.render() for f in validate_short_skew(bad).failures if f.family == "typing"]
    assert lines == [f.render() for f in laws.validate(bad).finish().failures if f.family == "typing"]
    flags = "(2, ('0', '0'), '0', False) != (2, ('0', '0'), '0', True)"
    assert lines == [f"fail typing @ post,1_0,t2(0,0;0) : {flags}",
                     f"fail typing @ pre,t2(0,0;0),1,1_0 : {flags}"]


def test_j_naturality_mutation_fails_at_named_instance():
    m = poset2_first_short_skew()
    sub = dict(m.sub)
    key = ("l1(0;1)", 1, "l0(;0)")   # j(le) substituted by a nullary map
    assert sub[key] == "l0(;1)"
    sub[key] = "l0(;0)"
    bad = dataclasses.replace(m, sub=sub)
    r = validate_short_skew(bad)
    assert not r.ok
    assert r.has_failure("j-nat", ("into-nullary", "le", "l0(;0)"))


def test_identity_skew_morphisms_validate():
    for name, m in catalogue_short_skews().items():
        r = validate_skew_multi_morphism(identity_skew_morphism(m))
        assert r.ok, f"{name}: {r.failures[:3]}"


def test_plain_lookups_are_the_embeddings():
    """Both structures route an id through one rule (a base morphism composes
    in the base, every other id reads the tables), so each lookup of a plain
    structure gives what it gives on the plain-as-skew view, on every id pair
    and slot, with an unknown id among them. The view is a fresh embed_plain,
    which builds its lookups from its own tables: as_skew shares the plain
    structure's. klein is left out for time (~700k triples alone)."""
    triples = 0
    for name, m in catalogue_short_multis().items():
        if name == "klein":
            continue
        sk = embed_plain(m)
        assert sk.lookups is not m.lookups
        ids = sorted(m._index) + ["nowhere"]
        for g in ids:
            for f in ids:
                assert m.safe_post(g, f) == sk.safe_post(g, f), (name, g, f)
                for i in range(6):
                    assert m.safe_subst(g, i, f) == sk.safe_subst(g, i, f), (name, g, i, f)
                    triples += 1
    assert triples > 100_000


def test_plain_as_skew_shares_the_lookups():
    """The plain-as-skew view keeps the base, pre, post and sub of the plain
    structure, so it takes the plain structure's lookups instead of building
    equal dicts of its own."""
    structures = list(catalogue_short_multis().items())
    structures += [(name, m) for n in (2, 3, 4) for name, m in _cyclic(n)
                   if isinstance(m, ShortMulticategory)]
    for name, m in structures:
        assert m.as_skew.lookups is m.lookups, name
    assert len(structures) == 9


def test_embed_plain_shares_the_tables():
    """Both structures are frozen, so embed_plain hands the plain structure's
    pre, post and sub dicts to the view instead of copying them."""
    structures = list(catalogue_short_multis().items())
    structures += [(name, m) for n in (2, 3, 4) for name, m in _cyclic(n)
                   if isinstance(m, ShortMulticategory)]
    for name, m in structures:
        view = embed_plain(m)
        assert view.pre is m.pre and view.post is m.post and view.sub is m.sub, name
    assert len(structures) == 9


def test_landing_table_agrees_with_sub_flavour():
    """_LANDING, which the structure check and build read, gives for each
    type pair of _CASE_OF and each slot of its outer map the flavour that
    sub_flavour gives the stored case there, and holds no other key."""
    for (n, xs, k, ys), (_, x, _, y) in _CASE_OF.items():
        for i in range(1, n + 1):
            assert _LANDING[n, xs, k, ys, i] == sub_flavour(x, i, y), (n, xs, k, ys, i)
    assert len(_LANDING) == sum(n for n, _, _, _ in _CASE_OF)
