import dataclasses
import hashlib
import itertools

import pytest

from shortcat.braiding import s_from_short_braiding
from shortcat.catalogue import (
    bz2_category, catalogue_morphisms, catalogue_short_braidings,
    catalogue_short_multis, catalogue_short_skews, catalogue_skew_closed,
    catalogue_skew_monoidals, monoid_skew_monoidal, poset2_skew_second, thin_skew_closed,
    thin_skew_monoidal, z2_monoid,
)
from shortcat.classify import certify, check_representable, find_closed_structure
from shortcat.errors import (
    AxiomTransferFailure, NoIsomorphismFound, NoSolution, ShortcatError,
)
from shortcat.fincat import FinCategory, identity_functor
from shortcat.induce import induce_closed_skew, induce_short_multi, induce_short_skew
from shortcat.shortmulti import ShortMulticategory, validate_short_multicategory
from shortcat.shortskew import (
    LOOSE, TIGHT, SkewMultiMorphism, embed_multi_morphism, identity_skew_morphism,
    validate_short_skew, validate_skew_multi_morphism,
)
from shortcat.skewmon import (
    SkewClosedFunctor, classify_flavour, identity_lax_functor, validate_lax_functor, validate_skew_closed,
    validate_skew_closed_functor, validate_skew_monoidal,
)
from shortcat.transport import (
    biclosed_subst_check, check_representable_iff_monoidal, compare_skew_monoidal,
    k_morphism, k_morphism_inverse, k_object, kcl_morphism, kcl_morphism_inverse, kcl_object,
    ks_morphism, ks_morphism_inverse, ks_object, lax_functor_equal, multi_morphism_equal,
    roundtrip_check, skew_monoidal_equal, transport_closed,
)


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
        assert K.rho[a] == m.safe_subst(cert.theta(a, cert.nullary.obj), 2, cert.nullary.via)
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
        r = transport_closed(m, certify(m))
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



def _bz2_lax_functor(f0: str, f2: str):
    """The identity lax functor of the skew monoidal category rebuilt from
    the induction of BZ/2, with f0 and every f2 entry replaced; and the
    certificate and category of that induction."""
    sk = induce_short_skew(bz2_category())
    cert = certify(sk)
    K = ks_object(sk, cert)
    t = identity_lax_functor(K)
    return dataclasses.replace(t, f0=f0, f2={key: f2 for key in t.f2}), cert, K


def test_ks_inverse_rebuilds_a_non_identity_lax_functor():
    """On BZ/2, whose hom-set has two parallel morphisms, the lax functor
    with f0 = f2 = g is lax monoidal, and the forward transport of its
    reconstruction gives it back."""
    t, cert, K = _bz2_lax_functor("g", "g")
    assert validate_lax_functor(t).ok
    back = ks_morphism_inverse(t, cert, cert)
    assert lax_functor_equal(ks_morphism(back, cert, cert, K, K), t)


def test_ks_inverse_refuses_data_that_is_not_lax_monoidal():
    """f0 = e with f2 = g fails the lax functor laws, and the reconstruction
    refuses it with the first instance at which its validation fails."""
    t, cert, _ = _bz2_lax_functor("e", "g")
    assert not validate_lax_functor(t).ok
    with pytest.raises(AxiomTransferFailure) as info:
        ks_morphism_inverse(t, cert, cert)
    assert info.value.row == "full commutation"
    assert str(info.value).endswith("(fail morphism-j @ e : l1(o;o)#g != l1(o;o)#e)")


def test_kcl_inverse_names_the_first_undefined_image():
    """An identity closed functor on heyting2.cl with its hom comparison at
    (1,0) moved onto le has no image for the binary evaluation into 0."""
    sk = induce_closed_skew(catalogue_skew_closed()["heyting2.cl"])
    cert = certify(sk)
    homs = find_closed_structure(sk, cert)
    cl = kcl_object(sk, cert, homs)
    fh = {key: cl.base.identity(h) for key, h in cl.hom_obj.items()}
    t = SkewClosedFunctor("id[heyting2.cl]", cl, cl, identity_functor(cl.base),
                          cl.base.identity(cl.unit), {**fh, ("1", "0"): "le"})
    with pytest.raises(NoSolution, match=r"^closed reconstruction undefined at "
                                         r"t2\(0,1;0\)#1_0$"):
        kcl_morphism_inverse(t, cert, cert, homs, homs)


def _image_redirects(F: SkewMultiMorphism):
    """F with one entry of one tight or loose image table moved to another
    target id of its flavour and arity, for each entry and each of the first
    two such ids, those of the image's own type first."""
    tgt = F.target
    for field, flavour in (("tight_maps", TIGHT), ("loose_maps", LOOSE)):
        tables = getattr(F, field)
        for n, table in tables.items():
            for f, img in table.items():
                others = sorted((h for h in tgt.multimaps(flavour, n) if h != img),
                                key=lambda h: tgt.info(h)[:3] != tgt.info(img)[:3])
                for other in others[:2]:
                    yield dataclasses.replace(F, **{field: {**tables, n: {**table, f: other}}})


def _transfer_rows(F: SkewMultiMorphism):
    """The instances of the three rows that ks_morphism_inverse once checked
    before validating, with the family and subjects under which validation
    checks each, and whether it holds: a nullary map substituted into slot 2
    of a tight binary one, a tight binary map into slot 1 of one, and j at
    each base morphism."""
    src, tgt, image = F.source, F.target, F.safe_apply
    for g in src.multimaps(TIGHT, 2):
        dom = src.dom(g)
        for i, inner in ((2, src.multimaps(LOOSE, 0)), (1, src.multimaps(TIGHT, 2))):
            for f in (f for f in inner if src.cod(f) == dom[i - 1]):
                lhs = image(src.safe_subst(g, i, f))
                rhs = tgt.safe_subst(image(g), i, image(f, LOOSE if i == 2 else TIGHT))
                yield "morphism-sub", (g, str(i), f), lhs is not None and lhs == rhs
    for p in src.base.morphisms():
        lhs = image(src.j.get(p), LOOSE)
        yield "morphism-j", (p,), lhs is not None and lhs == tgt.j.get(F.functor.mor_map.get(p))


def test_validation_fails_each_transfer_row_instance_that_fails():
    """On every single-entry image redirect of 19 morphisms (the catalogue
    morphisms between the embeddings of their ends, and the identities of
    the catalogue short skew multicategories), each failing instance of the
    three transfer rows is a morphism-sub or morphism-j failure of
    validation, under the same subjects."""
    morphisms = [embed_multi_morphism(F, F.source.as_skew, F.target.as_skew)
                 for F in catalogue_morphisms().values()]
    morphisms += [identity_skew_morphism(m) for m in catalogue_short_skews().values()]
    tried = refused = 0
    for F in morphisms:
        assert all(holds for *_, holds in _transfer_rows(F)), F.name
        for G in _image_redirects(F):
            tried += 1
            failing = [(family, subjects) for family, subjects, holds in _transfer_rows(G)
                       if not holds]
            if failing:
                refused += 1
                report = validate_skew_multi_morphism(G)
                assert all(report.has_failure(*failure) for failure in failing), (G.name, failing)
    assert (len(morphisms), tried, refused) == (19, 4384, 1210)


def _outcome(fn, *args):
    """The rendered report fn returns, or the name and every table of the
    structure, functor or braiding it returns, tables as sorted items; or
    the type name and message of what it raises."""
    try:
        out = fn(*args)
    except ShortcatError as exc:
        return type(exc).__name__, str(exc)
    if hasattr(out, "render"):
        return out.render()
    return [(f.name, sorted(v.items()) if isinstance(v, dict) else v)
            for f in dataclasses.fields(out) if isinstance(v := getattr(out, f.name), (dict, str))]


def _construction_outcomes():
    """ks_object, k_object and check_representable_iff_monoidal (plain
    inputs) and kcl_object (closed inputs) on the 13 catalogue short
    structures and the plain and skew inductions of BZ/2; ks_morphism and
    kcl_morphism (closed ends) on the 19 embedded catalogue morphisms and
    identities, and on every single-entry image redirect of them; and
    s_from_short_braiding on the three catalogue short braidings and every
    single-entry redirect of their b32 tables."""
    structures = [*catalogue_short_multis().values(), *catalogue_short_skews().values(),
                  induce_short_multi(bz2_category()), induce_short_skew(bz2_category())]
    for m in structures:
        cert = certify(m)
        homs = find_closed_structure(m, cert)
        yield _outcome(ks_object, m, cert)
        if isinstance(m, ShortMulticategory):
            yield _outcome(k_object, m, cert)
            yield _outcome(check_representable_iff_monoidal, m, cert)
        if homs is not None:
            yield _outcome(kcl_object, m, cert, homs)

    for name in SKEW_MORPHISMS:
        F = _skew_morphism(name)
        ends = []
        for sk in (F.source, F.target):
            cert = certify(sk)
            homs = find_closed_structure(sk, cert)
            ends.append((cert, ks_object(sk, cert), homs, homs and kcl_object(sk, cert, homs)))
        (cs, ms, hs, cls), (ct, mt, ht, clt) = ends
        for G in (F, *_image_redirects(F)):
            yield _outcome(ks_morphism, G, cs, ct, ms, mt)
            if cls and clt:
                yield _outcome(kcl_morphism, G, hs, ht, cs, ct, cls, clt)

    for sk, beta in catalogue_short_braidings().values():
        cert = certify(sk)
        yield _outcome(s_from_short_braiding, sk, cert, beta)
        for f in sorted(beta.b32):
            for g in sorted(sk.multimaps(TIGHT, 3)):
                if g != beta.b32[f]:
                    yield _outcome(s_from_short_braiding, sk, cert,
                                   dataclasses.replace(beta, b32={**beta.b32, f: g}))


def test_construction_outcomes_are_pinned():
    """Every constructed map of the object, morphism and braiding transports,
    and every failure they raise, as when each was found by filtering its
    hom-set; each image redirect, which fails validation, is refused with
    AxiomFailure before any image is read."""
    outcomes = list(_construction_outcomes())
    assert len(outcomes) == 12733
    assert hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest() == \
        "3e8339706f402d29f19cbe9b38dd6250800f7b6382f6761bfd1c302b7a7e4541"


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


def indiscrete2() -> FinCategory:
    """The indiscrete category on the objects a and b: one morphism between
    any two objects, so every structure on it is thin and most are not
    skeletal."""
    objs = ("a", "b")
    mor = {(x, y): f"1_{x}" if x == y else x + y for x in objs for y in objs}
    return FinCategory("ch2", objs, {xy: (f,) for xy, f in mor.items()},
                       {(mor[y, z], mor[x, y]): mor[x, z]
                        for x, y, z in itertools.product(objs, repeat=3)},
                       {x: mor[x, x] for x in objs})


def indiscrete_census() -> tuple[dict, dict]:
    """Every thin skew monoidal and every thin skew closed category on
    indiscrete2(): a tensor (or hom) of objects and a unit, named by the
    values at (a,a), (a,b), (b,a), (b,b) and the unit, as ch2.abba.a."""
    base, mons, closeds = indiscrete2(), {}, {}
    for values in itertools.product(base.objects, repeat=4):
        table = dict(zip(itertools.product(base.objects, repeat=2), values))
        for unit in base.objects:
            name = f"ch2.{''.join(values)}.{unit}"
            mons[name] = thin_skew_monoidal(name, base, lambda a, b: table[a, b], unit)
            closeds[name + ".cl"] = thin_skew_closed(name + ".cl", base,
                                                     lambda a, b: table[a, b], unit)
    return mons, closeds


def test_indiscrete_census_roundtrips():
    """Each of the 32 thin skew monoidal and 32 thin skew closed categories
    on the indiscrete base validates and is recovered by its roundtrip, up
    to the comparison isomorphism, though most rebuild other tensor (or
    hom) objects than their input's."""
    mons, closeds = indiscrete_census()
    assert (len(mons), len(closeds)) == (32, 32)
    for name, x in mons.items():
        assert validate_skew_monoidal(x).ok and roundtrip_check(x).ok, name
    for name, x in closeds.items():
        assert validate_skew_closed(x).ok and roundtrip_check(x).ok, name


def _single_entry_edits(y, tables: tuple[str, ...]):
    """Copies of y with one entry of one of its tables replaced by another
    object (of a tensor or hom table of objects) or another base morphism,
    one copy for every entry and every other value."""
    for t in tables:
        table = getattr(y, t)
        pool = y.base.objects if t in ("tensor_obj", "hom_obj") else y.base.morphisms()
        for key, value in table.items():
            for other in pool:
                if other != value:
                    yield dataclasses.replace(y, **{t: {**table, key: other}})


def test_the_comparison_refuses_every_single_entry_edit():
    """compare_skew_monoidal accepts ks_object's and kcl_object's rebuilds of
    the catalogue and refuses each of their 572 + 46 single-entry edits:
    with invertible components, its laws fix every table of the rebuild."""
    edits = 0
    for x in catalogue_skew_monoidals().values():
        sk = induce_short_skew(x)
        cert = certify(sk)
        rebuilt = ks_object(sk, cert)
        compare_skew_monoidal(x, rebuilt, cert)
        for y in _single_entry_edits(rebuilt, ("tensor_obj", "tensor_mor", "alpha", "lam", "rho")):
            with pytest.raises(NoIsomorphismFound):
                compare_skew_monoidal(x, y, cert)
            edits += 1
    assert edits == 572
    for x in catalogue_skew_closed().values():
        sk = induce_closed_skew(x)
        cert = certify(sk)
        homs = find_closed_structure(sk, cert)
        rebuilt = kcl_object(sk, cert, homs)
        compare_skew_monoidal(x, rebuilt, cert, homs)
        for y in _single_entry_edits(rebuilt, ("hom_obj", "hom_mor", "iu", "ju", "ell")):
            with pytest.raises(NoIsomorphismFound):
                compare_skew_monoidal(x, y, cert, homs)
            edits += 1
    assert edits == 572 + 46


def test_induced_poset_second_tables_and_flags():
    c = poset2_skew_second()
    m = induce_short_multi(c)
    # inhabited exactly when the last input is below the output
    for n in (2, 3, 4):
        for (dom, cod) in m.mapset_keys(n):
            assert not (dom[-1] == "1" and cod == "0")
    cert = certify(m)
    assert cert.left_representable and not check_representable(m, cert)[0]


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
