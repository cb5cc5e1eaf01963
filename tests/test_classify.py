import dataclasses
import hashlib

import pytest

import reference_validators as ref
from shortcat import classify, cli, transport
from shortcat.catalogue import (
    bz2_category, catalogue_mutants, catalogue_short_multis, catalogue_short_skews,
    discrete_base, heyting2_skew_monoidal, poset2_base, poset2_first_short_skew,
    table_short_multi, thin_inhabited, z2_monoid,
)
from shortcat.classify import (
    certify, check_left_universal, check_representable,
    classifier_uniqueness_isos, derived_classifiers, find_binary_classifier,
    find_closed_structure, find_hom_object, find_nullary_classifier,
    find_right_closed, inverses, skew_view, verify_left_iff_adjoint,
    verify_units_left_universal,
)
from shortcat.errors import AxiomFailure, ShortcatError, UniversalityBroken
from shortcat.induce import induce_short_multi, induce_short_skew
from shortcat.shortmulti import ShortMulticategory
from shortcat.shortskew import ShortSkewMulticategory, embed_plain
from test_kernel import _cyclic


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
    assert cl.via == "m2(1,1;0)"
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
    cert = certify(m)
    assert len(cert.binary_candidates[("x", "y")]) == 2  # both objects classify
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


def test_check_representable_visits_every_scope(monkeypatch):
    """check_representable scans the 1 + k^2 maps u and theta(a,b) at every
    slot of every arity 1-3 scope, k + 2k^2 + 3k^3 scopes on k objects. It
    reports only the failing scopes, so the number of scans is what shows
    that none is skipped."""
    ms = catalogue_short_multis()
    scans = []
    real = classify.bijection_table
    monkeypatch.setattr(classify, "bijection_table",
                        lambda *args: scans.append(args) or real(*args))
    for name, want in (("terminal", 12), ("z2", 170), ("heyting2", 170),
                       ("poset2-second", 170), ("z3", 1020), ("klein", 3876)):
        cert = certify(ms[name])
        scans.clear()
        check_representable(ms[name], cert)
        assert len(scans) == want, name


def test_left_universal_closed_and_derived_scans_visit_every_scope(monkeypatch):
    """On k objects, check_left_universal scans k^2 + k^3 scopes per
    classifier (one or two more inputs, at every codomain). Here
    find_closed_structure certifies the first candidate of each of the k^2
    pairs, in its 1 + 2k + k^2 + k^3 scopes (tight arities 1-3, loose 0
    and 1), and find_right_closed in its 1 + k + k^2 + k^3 (loose 0, tight
    1-3). derived_classifiers checks k^3 + k^4 + k composites at every
    codomain. Every scope passes, so the number of scans shows that none is
    skipped."""
    ms = catalogue_short_multis()
    scans = []
    real = classify.bijection_table
    monkeypatch.setattr(classify, "bijection_table",
                        lambda *args: scans.append(args) or real(*args))
    for name, k, classified in (("terminal", 1, 2), ("z2", 2, 5), ("z3", 3, 10),
                                ("klein", 4, 17)):
        m = ms[name]
        cert = certify(m)
        assert cert.left_representable, name
        cls = [cl for cl in cert.binary.values() if cl is not None] + [cert.nullary]
        assert len(cls) == classified, name
        scans.clear()
        for cl in cls:
            check_left_universal(m, cl)
        assert len(scans) == classified * (k ** 2 + k ** 3), name
        scans.clear()
        find_closed_structure(m)
        assert len(scans) == k ** 2 * (1 + 2 * k + k ** 2 + k ** 3), name
        scans.clear()
        find_right_closed(m)
        assert len(scans) == k ** 2 * (1 + k + k ** 2 + k ** 3), name
        scans.clear()
        derived_classifiers(m, cert)
        assert len(scans) == k * (k ** 3 + k ** 4 + k), name


@pytest.mark.parametrize("domain, images, target", [
    (["a", "b"], {"a": "x", "b": "y"}, ["y", "x"]),
    (["a", "a"], {"a": "x"}, ["x", "y"]),
    (["a", "a"], {"a": "x"}, ["x", "x"]),
    (["a", "b"], {"a": "x", "b": "x"}, ["x", "y"]),
    (["a", "b"], {"a": "x", "b": "x"}, ["x", "x"]),
    (["a"], {"a": "x"}, ["x", "x"]),
    (["a", "b"], {"a": "x"}, ["x", "y"]),
    (["a", "b"], {"a": "x", "b": None}, ["x", None]),
    (["a", "b"], {"a": "x", "b": "z"}, ["x", "y"]),
    (["a"], {"a": "z"}, ["x"]),
    ([], {}, ["x"]),
    (["a"], {"a": "x"}, []),
    ([], {}, []),
    (["a", "b", "c"], {"a": "x", "b": "y", "c": "z"}, ["x", "y"]),
    (["a", "b"], {"a": "x", "b": "y"}, ["x", "y", "z"]),
], ids=["bijection", "duplicate-domain-id", "duplicate-domain-and-target",
        "duplicate-image", "duplicate-target", "short-domain-duplicate-target",
        "none-image", "none-image-none-in-target", "image-outside-target",
        "only-image-outside-target", "empty-domain", "empty-target", "both-empty",
        "long-domain", "long-target"])
def test_bijection_table_matches_reference(domain, images, target):
    """The same table, or None, as the former bijection_table."""
    assert (classify.bijection_table(domain, images.get, target)
            == ref.bijection_table(domain, images.get, target))


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
    inv = inverses(cert, homs)
    # the abstraction of a classifier is the identity on its apex
    for (a, b), cl in cert.binary.items():
        assert inv.prime[cl.via] == m.base.identity(cl.obj)
    # the unique ternary (1,1,0) -> 0 abstracts to the unique binary (0,0) -> 0
    assert inv.prime["m3(1,1,0;0)"] == "m2(0,0;0)"
    # the abstraction of an evaluation map is the identity on the hom object
    for (b, c), h in homs.items():
        assert inv.sharp[h.via] == m.base.identity(h.obj)


def test_left_iff_adjoint_positive_and_stripped():
    ms = catalogue_short_multis()
    assert verify_left_iff_adjoint(ms["heyting2"]).ok
    assert verify_left_iff_adjoint(ms["z2"]).ok
    inhabited = thin_inhabited(heyting2_skew_monoidal())
    stripped = table_short_multi(
        "heyting2-nounits", poset2_base(),
        lambda n, dom, cod: n > 0 and inhabited(n, dom, cod))
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


# --------------------------------------------------------------------------
# the certification searches against their former versions
# --------------------------------------------------------------------------

def _differential_inputs():
    """Every catalogue short-multi and short-skew structure and mutant,
    Z/2..Z/4, and the plain structure induced from BZ/2, the one base with
    parallel morphisms."""
    yield from catalogue_short_multis().items()
    yield from catalogue_short_skews().items()
    for mut in catalogue_mutants():
        if mut.kind in ("short-multi", "short-skew"):
            yield mut.name, mut.payload
    for n in (2, 3, 4):
        yield from _cyclic(n)
    yield "bz2", induce_short_multi(bz2_category())


def _outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except ShortcatError as exc:
        return type(exc), str(exc)


def _searches(mod, m):
    """The left-universality verdicts of each first classifier, then certify,
    the hom-object search, the derived classifiers and representability as
    the certify command runs them, the rendered certificate, the inverse
    tables, and the right hom objects, all through the functions of mod."""
    objs = m.base.objects
    firsts = [mod.find_binary_classifier(m, a, b) for a in objs for b in objs]
    firsts.append(mod.find_nullary_classifier(m))
    out = [[cl and mod.check_left_universal(m, cl) for cl in firsts]]
    cert = mod.certify(m)
    homs = mod.find_closed_structure(m, cert)
    if cert.left_representable:
        out.append(_outcome(mod.derived_classifiers, m, cert))
        # the reference keeps its former signature, with the unread m
        args = (cert, homs) if mod is classify else (m, cert, homs)
        out.append(_outcome(lambda: vars(mod.inverses(*args))))
    if isinstance(m, ShortMulticategory):
        if cert.weakly_representable:
            out.append(mod.check_representable(m, cert))
        mod.find_right_closed(m, cert)
        out.append({k: h and (h.obj, h.via, h.witness) for k, h in cert.right_homs.items()})
    out.append(cli.render_certificate(cert))
    return out


def test_searches_match_reference():
    """The same verdicts, failure labels, witnesses and inverse tables as the
    former searches, on passing and failing structures alike."""
    tried, failing = 0, 0
    for name, m in _differential_inputs():
        got = _searches(classify, m)
        assert got == _searches(ref, m), name
        tried += 1
        failing += any(verdict and not verdict[0] for verdict in got[0])
    assert tried > 50 and failing > 5, (tried, failing)


def _consumer_outcomes():
    """The rendered report of every consumer of the inverse tables on every
    differential input, or the type and message of what it raises; the
    biclosed check runs on the plain inputs only."""
    for _, m in _differential_inputs():
        consumers = [classify.sharp_laws, classify.verify_left_iff_adjoint,
                     classify.verify_units_left_universal]
        if isinstance(m, ShortMulticategory):
            consumers.append(transport.biclosed_subst_check)
        for fn in consumers:
            try:
                yield fn(m).render()
            except ShortcatError as exc:
                yield type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", ["z2.sub[m2(0,0;0)|1|m0(;0)]", "z2.post[1_0|m2(0,0;0)]"])
def test_left_iff_adjoint_refuses_a_structure_failing_validation(name):
    """Disagreeing routes (sub) and a broken hom action (post) on a mutant
    are the input's failure, not an internal one."""
    (mut,) = [mut for mut in catalogue_mutants() if mut.name == name]
    with pytest.raises(AxiomFailure, match="verify_left_iff_adjoint needs one that passes"):
        verify_left_iff_adjoint(mut.payload)


def test_inverse_table_consumers_are_pinned():
    """The law suite, both adjoint checks and the biclosed check answer as
    they did when the inverse tables were still rebuilt by substitution,
    except that verify_left_iff_adjoint refuses, with AxiomFailure, the 15
    mutants failing validation on which its two routes disagree or its hom
    action breaks."""
    outcomes = list(_consumer_outcomes())
    assert len(outcomes) == 224
    assert sum(outcome[0] == "AxiomFailure" for outcome in outcomes) == 15
    assert hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest() == \
        "b74b589679791f0c424e4f2cac0b0b9b1b8a51ac5170d8e671f1952f2415eda7"


def _certificate_outcomes():
    """The certificate of each of the 13 catalogue short structures, the plain
    and skew inductions of BZ/2 and the indiscrete structure on two objects,
    as the certify command builds it, rendered with and without witnesses;
    then its classifier_uniqueness_isos, or the type and message raised. The
    last three are the inputs with several candidates per classified input."""
    structures = [*catalogue_short_multis().values(), *catalogue_short_skews().values(),
                  induce_short_multi(bz2_category()), induce_short_skew(bz2_category()),
                  indiscrete2_short_multi()]
    for m in structures:
        cert = certify(m)
        find_closed_structure(m, cert)
        if cert.left_representable:
            derived_classifiers(m, cert)
        if isinstance(m, ShortMulticategory) and cert.weakly_representable:
            check_representable(m, cert)
        yield cli.render_certificate(cert)
        yield cli.render_certificate(cert, witnesses=False)
        yield _outcome(classifier_uniqueness_isos, m, cert)


def test_certificates_with_several_candidates_are_pinned():
    """Every candidate line, witness table and connecting isomorphism, on
    the inputs whose classifiers are certified more than once."""
    outcomes = list(_certificate_outcomes())
    assert len(outcomes) == 48
    assert [len(isos) for isos in outcomes[2::3] if isos] == [2, 2, 5]
    assert hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest() == \
        "679e4e894e551b6698eda2b166c2318904a83591f9d4003e9adced53bfb92475"
