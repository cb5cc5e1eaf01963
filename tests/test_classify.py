import dataclasses

import pytest

from shortcat.catalogue import (
    _leq, _meet, catalogue_short_multis, discrete_base, monoid_short_multi,
    poset2_base, poset2_first_short_skew, table_short_multi, z2_monoid,
)
from shortcat.classify import (
    all_binary_classifiers, certify, check_left_universal, check_representable,
    classifier_uniqueness_isos, derived_classifiers, find_binary_classifier,
    find_closed_structure, find_hom_object, find_nullary_classifier,
    find_right_closed, inverses, skew_view, verify_left_iff_adjoint,
    verify_units_left_universal,
)
from shortcat.errors import UniversalityBroken
from shortcat.shortskew import ShortSkewMulticategory, embed_plain


def indiscrete2_short_multi():
    """Two isomorphic objects, every multimap set a singleton."""
    base = discrete_base("ind2", ["x", "y"])
    homs = {(a, b): (f"u_{a}{b}",) for a in ("x", "y") for b in ("x", "y")}
    comp = {}
    for a in ("x", "y"):
        for b in ("x", "y"):
            for c in ("x", "y"):
                comp[(f"u_{b}{c}", f"u_{a}{b}")] = f"u_{a}{c}"
    from shortcat.fincat import FinCategory
    cat = FinCategory("ind2", ("x", "y"), homs, comp,
                      {"x": "u_xx", "y": "u_yy"})
    return table_short_multi("ind2", cat, lambda n, dom, cod: True)


def test_z2_binary_classifier_is_the_sum():
    m = catalogue_short_multis()["z2"]
    cl = find_binary_classifier(m, "1", "1")
    assert cl is not None and cl.obj == "0"
    assert cl.theta == "m2(1,1;0)"
    cl = find_binary_classifier(m, "0", "1")
    assert cl.obj == "1"


def test_terminal_classifiers():
    m = catalogue_short_multis()["terminal"]
    assert find_binary_classifier(m, "o", "o").obj == "o"
    assert find_nullary_classifier(m).obj == "o"


def test_empty_tables_have_no_classifier():
    base = discrete_base("d2", ["a", "b"])
    m = table_short_multi("d2-empty", base, lambda n, dom, cod: False)
    assert find_binary_classifier(m, "a", "b") is None
    assert find_nullary_classifier(m) is None


def test_left_universality_on_catalogue():
    for name in ("z2", "heyting2"):
        m = catalogue_short_multis()[name]
        for a in m.base.objects:
            for b in m.base.objects:
                cl = find_binary_classifier(m, a, b)
                ok, failures = check_left_universal(m, cl)
                assert ok and not failures, (name, a, b)
        nu = find_nullary_classifier(m)
        ok, failures = check_left_universal(m, nu)
        assert ok, (name, failures)


def test_left_universality_failure_is_reported():
    m = catalogue_short_multis()["z2"]
    # break one binary-into-ternary entry feeding the extension bijections
    key = next(k for k in sorted(m.sub)
               if m.arity(k[0]) == 3 and m.arity(k[2]) == 2 and k[1] == 1
               and k[2] == "m2(0,0;0)")
    sub = dict(m.sub)
    sub[key] = "m4(1,1,1,1;0)"
    bad = dataclasses.replace(m, sub=sub)
    cl = find_binary_classifier(bad, "0", "0")
    assert cl is not None  # the base bijections are untouched
    ok, failures = check_left_universal(bad, cl)
    assert not ok and failures


def test_classifier_uniqueness_on_indiscrete_structure():
    m = indiscrete2_short_multi()
    cands = all_binary_classifiers(m, "x", "y")
    assert len(cands) == 2  # both objects classify
    cert = certify(m)
    isos = classifier_uniqueness_isos(m, cert)
    assert isos  # connecting isomorphisms found and invertible


def test_derived_classifiers_z2_and_poset():
    ms = catalogue_short_multis()
    cert = certify(ms["z2"])
    recs = derived_classifiers(ms["z2"], cert)
    tern = {r.key: r.obj for r in recs if r.kind == "ternary"}
    assert tern[("1", "1", "1")] == "1"
    cert2 = certify(ms["poset2-second"])
    recs2 = derived_classifiers(ms["poset2-second"], cert2)
    assert all(r.obj == r.key[-1] for r in recs2 if r.kind == "ternary")


def test_derived_classifier_breakage_raises():
    m = catalogue_short_multis()["z2"]
    cert = certify(m)
    key = ("m2(0,0;0)", 1, "m2(0,0;0)")
    sub = dict(m.sub)
    sub[key] = "m3(1,1,1;1)"
    bad = dataclasses.replace(m, sub=sub)
    cert_bad = certify(bad)
    if cert_bad.left_representable:
        with pytest.raises(UniversalityBroken):
            derived_classifiers(bad, cert_bad)


def test_representability_flags():
    ms = catalogue_short_multis()
    for name, expected in (("z2", True), ("klein", True), ("terminal", True),
                           ("poset2-second", False)):
        cert = certify(ms[name])
        flag, _ = check_representable(ms[name], cert)
        assert flag is expected, name


def test_closed_structures():
    ms = catalogue_short_multis()
    homs = find_closed_structure(ms["z2"])
    assert {k: h.obj for k, h in homs.items()} == {
        ("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    homs = find_closed_structure(ms["heyting2"])
    assert homs[("1", "0")].obj == "0" and homs[("0", "0")].obj == "1"
    assert find_hom_object(ms["poset2-second"], "1", "0") is None
    assert find_closed_structure(ms["poset2-second"]) is None


def test_right_closedness():
    ms = catalogue_short_multis()
    right = find_right_closed(ms["z2"])
    assert right is not None and right[("1", "1")].obj == "0"
    assert find_right_closed(ms["heyting2"]) is not None


def test_inverse_tables():
    m = catalogue_short_multis()["z2"]
    cert = certify(m)
    homs = find_closed_structure(m, cert)
    inv = inverses(m, cert, homs)
    # the abstraction of a classifier is the identity on its apex
    for (a, b), cl in cert.binary.items():
        assert inv.prime[cl.theta] == m.base.identity(cl.obj)
    # the unique ternary (1,1,0) -> 0 abstracts to the unique binary (0,0) -> 0
    assert inv.prime["m3(1,1,0;0)"] == "m2(0,0;0)"
    # the abstraction of an evaluation map is the identity on the hom object
    for (b, c), h in homs.items():
        assert inv.sharp[h.e] == m.base.identity(h.obj)


def test_left_iff_adjoint_positive_and_stripped():
    ms = catalogue_short_multis()
    assert verify_left_iff_adjoint(ms["heyting2"]).ok
    assert verify_left_iff_adjoint(ms["z2"]).ok
    stripped = table_short_multi(
        "heyting2-nounits", poset2_base(),
        lambda n, dom, cod: False if n == 0 else _leq(_meet(dom), cod))
    r = verify_left_iff_adjoint(stripped)
    assert not r.ok  # both routes answer no, recorded as a failed verdict
    assert r.has_failure("verdict", ("left-representable",))


def test_units_left_universal():
    ms = catalogue_short_multis()
    for name in ("heyting2", "z2"):
        r = verify_units_left_universal(ms[name])
        assert r.ok, (name, r.failures[:3])
        assert r.counts["chain-derivation"] > 0
    skew = poset2_first_short_skew()
    with pytest.raises(Exception):
        # not closed: the guard must trip
        verify_units_left_universal(
            table_short_multi("d2-empty", discrete_base("d2", ["a", "b"]),
                              lambda n, dom, cod: False))


def test_skew_view_is_built_once_and_equals_the_embedding():
    for name, m in catalogue_short_multis().items():
        v = skew_view(m)
        assert skew_view(m) is v, name
        fresh = embed_plain(m)
        assert fresh is not v, name
        for f in dataclasses.fields(ShortSkewMulticategory):
            assert getattr(v, f.name) == getattr(fresh, f.name), (name, f.name)


def test_replaced_structure_gets_its_own_view():
    """dataclasses.replace builds a new structure, and its view follows the
    new tables, not the view already cached on the original."""
    m = catalogue_short_multis()["z2"]
    before = skew_view(m)
    key = sorted(m.sub)[0]
    other = next(h for h in m.multimaps(2) if h != m.sub[key])
    patched = {**m.sub, key: other}
    m2 = dataclasses.replace(m, sub=patched)
    v2 = skew_view(m2)
    assert v2 is not before and skew_view(m) is before
    assert v2.sub == patched and v2.sub[key] == other
    assert before.sub == m.sub and before.sub[key] != other
    fresh = embed_plain(m2)
    for f in dataclasses.fields(ShortSkewMulticategory):
        assert getattr(v2, f.name) == getattr(fresh, f.name), f.name
