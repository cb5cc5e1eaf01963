import pytest

from shortcat.catalogue import (
    Monoid, catalogue_morphisms, catalogue_short_multis, catalogue_short_skews,
    catalogue_skew_closed, catalogue_skew_monoidals, monoid_skew_monoidal,
    poset2_skew_second, z2_monoid,
)
from shortcat.classify import certify, check_representable, find_closed_structure
from shortcat.errors import MultipleSolutions, NoSolution
from shortcat.induce import induce_closed_skew, induce_short_multi, induce_short_skew
from shortcat.shortmulti import validate_short_multicategory
from shortcat.shortskew import (
    SkewMultiMorphism, embed_multi_morphism, identity_skew_morphism, validate_short_skew,
)
from shortcat.skewmon import (
    classify_flavour, validate_lax_functor, validate_skew_closed,
    validate_skew_closed_functor, validate_skew_monoidal,
)
from shortcat.transport import (
    biclosed_subst_check, check_representable_iff_monoidal, compare_skew_monoidal,
    k_morphism, k_morphism_inverse, k_object, kcl_morphism, kcl_morphism_inverse, kcl_object,
    ks_morphism, ks_morphism_inverse, ks_object, lax_functor_equal, multi_morphism_equal,
    roundtrip_check, skew_monoidal_equal, solve_unique, transport_closed,
    transport_closed_skew,
)


def test_solve_unique_basics():
    """One solution, none, several; and an undefined left side never solves
    the equation, not even when the right side is undefined too."""
    assert solve_unique("pick-a", ("a", "b"), lambda w: w, "a") == "a"
    with pytest.raises(NoSolution):
        solve_unique("none", ("a", "b"), lambda w: w, "c")
    with pytest.raises(MultipleSolutions):
        solve_unique("many", ("a", "b"), lambda w: "x", "x")
    with pytest.raises(NoSolution):
        solve_unique("undefined", ("a", "b"), lambda w: None, None)


def test_k_object_z2_recovers_strict_structure():
    m = catalogue_short_multis()["z2"]
    K = k_object(m, certify(m))
    direct = monoid_skew_monoidal(z2_monoid())
    assert K.tensor_obj == direct.tensor_obj
    assert K.alpha == direct.alpha and K.lam == direct.lam and K.rho == direct.rho
    assert K.unit == direct.unit
    assert validate_skew_monoidal(K).ok


def test_k_object_rho_is_unit_substitution():
    m = catalogue_short_multis()["poset2-second"]
    cert = certify(m)
    K = k_object(m, cert)
    for a in m.base.objects:
        assert K.rho[a] == m.safe_subst(cert.theta(a, cert.nullary.obj), 2, cert.nullary.u)
    assert validate_skew_monoidal(K).ok
    assert classify_flavour(K).left_normal


def test_induced_structures_validate():
    for name, c in catalogue_skew_monoidals().items():
        sk = induce_short_skew(c)
        assert validate_short_skew(sk).ok, name
        if classify_flavour(c).left_normal:
            plain = induce_short_multi(c)
            assert validate_short_multicategory(plain).ok, name


def test_induced_z2_matches_table_form():
    c = monoid_skew_monoidal(z2_monoid())
    plain = induce_short_multi(c)
    direct = catalogue_short_multis()["z2"]
    for n in (0, 2, 3, 4):
        assert plain.mapset_keys(n) == direct.mapset_keys(n)
        for key in plain.mapset_keys(n):
            assert len(plain.mapset(n, *key)) == len(direct.mapset(n, *key))


def test_representable_iff_monoidal_catalogue():
    for name, m in catalogue_short_multis().items():
        r = check_representable_iff_monoidal(m, certify(m))
        assert r.ok, (name, r.failures[:3])


def test_closed_transfer_catalogue():
    for name, m in catalogue_short_multis().items():
        r = transport_closed(m, certify(m))
        assert r.ok, (name, r.failures[:3])
    for name, m in catalogue_short_skews().items():
        r = transport_closed_skew(m, certify(m))
        assert r.ok, (name, r.failures[:3])


def test_morphism_transport_roundtrips():
    ms = catalogue_short_multis()
    certs = {name: certify(m) for name, m in ms.items()}
    mons = {name: k_object(m, certs[name]) for name, m in ms.items()}
    count = 0
    for name, F in catalogue_morphisms().items():
        cs, ct = certs[F.source.name], certs[F.target.name]
        t = k_morphism(F, cs, ct, mons[F.source.name], mons[F.target.name])
        assert validate_lax_functor(t).ok, name
        back = k_morphism_inverse(t, cs, ct)
        assert multi_morphism_equal(back, F), name
        t2 = k_morphism(back, cs, ct, mons[F.source.name], mons[F.target.name])
        assert lax_functor_equal(t2, t), name
        count += 1
    assert count >= 10


def _skew_morphism(name: str) -> SkewMultiMorphism:
    """The identity of the catalogue short skew multicategory `name`, or the
    catalogue morphism `name` embedded between the embeddings of its ends."""
    skews = catalogue_short_skews()
    if name in skews:
        return identity_skew_morphism(skews[name])
    F = catalogue_morphisms()[name]
    return embed_multi_morphism(F, skews[F.source.name + ".skew"],
                                skews[F.target.name + ".skew"])


SKEW_MORPHISMS = [*catalogue_short_skews(), *catalogue_morphisms()]
# poset2-second is not closed: no hom-side construction for it or its identity
CLOSED_SKEW_MORPHISMS = [name for name in SKEW_MORPHISMS if "poset2-second" not in name]


@pytest.mark.parametrize("name", SKEW_MORPHISMS)
def test_skew_morphism_transport_roundtrip(name):
    """ks_morphism_inverse gives back every tight and loose family of the
    morphism that ks_morphism transported."""
    F = _skew_morphism(name)
    cs, ct = certify(F.source), certify(F.target)
    t = ks_morphism(F, cs, ct, ks_object(F.source, cs), ks_object(F.target, ct))
    assert validate_lax_functor(t).ok
    back = ks_morphism_inverse(t, cs, ct)
    assert back.tight_maps == F.tight_maps
    assert back.loose_maps == F.loose_maps


@pytest.mark.parametrize("name", CLOSED_SKEW_MORPHISMS)
def test_kcl_object_and_morphism(name):
    """The hom-side construction of each end validates, and
    kcl_morphism_inverse gives back every tight and loose family of the
    morphism that kcl_morphism transported."""
    F = _skew_morphism(name)
    ends = []
    for sk in (F.source, F.target):
        cert = certify(sk)
        homs = find_closed_structure(sk, cert)
        cl = kcl_object(sk, cert, homs)
        assert validate_skew_closed(cl).ok
        ends.append((cert, homs, cl))
    (cs, hs, cls), (ct, ht, clt) = ends
    t = kcl_morphism(F, hs, ht, cs, ct, cls, clt)
    assert validate_skew_closed_functor(t).ok
    back = kcl_morphism_inverse(t, cs, ct, hs, ht)
    assert back.tight_maps == F.tight_maps
    assert back.loose_maps == F.loose_maps


def test_closed_induction_recovers_structure():
    for name, x in catalogue_skew_closed().items():
        sk = induce_closed_skew(x)
        assert validate_short_skew(sk).ok, name
        cert = certify(sk)
        homs = find_closed_structure(sk, cert)
        assert homs is not None
        from shortcat.transport import skew_closed_equal
        assert skew_closed_equal(x, kcl_object(sk, cert, homs)), name


def test_biclosed_oracle():
    for name in ("z2", "heyting2"):
        r = biclosed_subst_check(catalogue_short_multis()[name])
        assert r.ok, (name, r.failures[:3])
        assert r.counts["left-curry"] > 0 and r.counts["right-curry"] > 0


def test_roundtrips_all_catalogue_entries():
    for name, x in catalogue_skew_monoidals().items():
        assert roundtrip_check(x).ok, name
    for name, x in catalogue_skew_closed().items():
        assert roundtrip_check(x).ok, name


def test_compare_skew_monoidal_verdicts():
    """equal on the same category, isomorphic on Z/2 relabelled a, b, and
    None on two tensors of one base and on bases of different sizes, which
    the object-count guard answers before any object bijection is tried."""
    mons = catalogue_skew_monoidals()
    z2 = monoid_skew_monoidal(z2_monoid())
    ab = monoid_skew_monoidal(Monoid("z2ab", ("a", "b"), "a", {
        ("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "a"}))
    assert compare_skew_monoidal(z2, mons["z2.mon"]) == "equal"
    assert compare_skew_monoidal(z2, ab) == "isomorphic"
    assert compare_skew_monoidal(mons["poset2-first"], mons["poset2-second"]) is None
    assert compare_skew_monoidal(z2, mons["z3.mon"]) is None
    assert compare_skew_monoidal(mons["z3.mon"], z2) is None


def test_induced_poset_second_tables_and_flags():
    c = poset2_skew_second()
    m = induce_short_multi(c)
    # inhabited exactly when the last input is below the output
    for n in (2, 3, 4):
        for (dom, cod) in m.mapset_keys(n):
            assert not (dom[-1] == "1" and cod == "0")
    cert = certify(m)
    assert cert.left_representable and not check_representable(m, cert)[0]


def test_induced_multimap_sets_cap():
    from shortcat.induce import induced_multimap_sets
    from shortcat.shortmulti import ShortMulticategory
    from shortcat.shortskew import ShortSkewMulticategory
    assert isinstance(induced_multimap_sets(monoid_skew_monoidal(z2_monoid())),
                      ShortMulticategory)
    from shortcat.catalogue import poset2_skew_first
    assert isinstance(induced_multimap_sets(poset2_skew_first()),
                      ShortSkewMulticategory)
    family = induced_multimap_sets(monoid_skew_monoidal(z2_monoid()), cap=6)
    assert ("t", 6, ("1",) * 6, "0") in family
    assert ("t", 5, ("1",) * 5, "1") in family


def test_terminal_lambda_solve_and_inclusion_f2():
    ms = catalogue_short_multis()
    cert_t = certify(ms["terminal"])
    K = k_object(ms["terminal"], cert_t)
    assert K.lam == {"o": "1_o"}
    # the inclusion a -> (a,0) forces identity-like comparison maps
    certs = {n: certify(ms[n]) for n in ("z2", "klein")}
    mons = {n: k_object(ms[n], certs[n]) for n in ("z2", "klein")}
    F = catalogue_morphisms()["z2-into-klein"]
    t = k_morphism(F, certs["z2"], certs["klein"], mons["z2"], mons["klein"])
    assert all(v == mons["klein"].base.identity(mons["klein"].base.dom(v))
               for v in t.f2.values())


def test_kcl_unit_map_on_z2():
    from shortcat.shortskew import embed_plain
    sk = embed_plain(catalogue_short_multis()["z2"])
    cert = certify(sk)
    homs = find_closed_structure(sk, cert)
    cl = kcl_object(sk, cert, homs)
    # the unit is 0 and [0,a] = a, so the unit evaluation is forced
    for a in sk.base.objects:
        assert cl.iu[a] == sk.base.identity(a)


def test_ks_equals_k_on_embedded_input():
    m = catalogue_short_multis()["z2"]
    from shortcat.shortskew import embed_plain
    sk = embed_plain(m)
    K1 = k_object(m, certify(m), name="same")
    K2 = ks_object(sk, certify(sk), name="same")
    assert skew_monoidal_equal(K1, K2)
