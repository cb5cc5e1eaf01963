import dataclasses

from shortcat.catalogue import (
    catalogue_morphisms, catalogue_short_multis, monoid_short_multi,
    terminal_short_multi, z2_monoid,
)
from shortcat.shortmulti import (
    validate_multi_morphism, validate_short_multicategory,
)


def test_unary_identity_substitution_is_identity_action():
    m = monoid_short_multi(z2_monoid())
    g = "m2(0,1;1)"
    assert m.safe_subst(g, 2, "1_1") == g
    assert m.safe_subst(g, 1, "1_0") == g


def test_terminal_substitution_always_lands_in_the_unique_map():
    m = terminal_short_multi()
    g = "m2(o,o;o)"
    assert m.safe_subst(g, 1, g) == "m3(o,o,o;o)"
    assert m.safe_subst(g, 2, "m0(;o)") == "1_o"
    assert m.safe_subst("m3(o,o,o;o)", 3, g) == "m4(o,o,o,o;o)"


def test_z2_binary_into_binary_tracks_mod2_sum():
    m = monoid_short_multi(z2_monoid())
    g = "m2(1,1;0)"    # 1+1 = 0
    f = "m2(1,0;1)"    # lands in slot 1
    assert m.safe_subst(g, 1, f) == "m3(1,0,1;0)"
    assert m.safe_subst(g, 2, f) == "m3(1,1,0;0)"


def test_unsupported_case_is_undefined():
    m = monoid_short_multi(z2_monoid())
    assert m.safe_subst("m3(0,0,0;0)", 1, "m3(0,0,0;0)") is None  # ternary into ternary


def test_terminal_validates_with_positive_counts():
    r = validate_short_multicategory(terminal_short_multi())
    assert r.ok
    for family in ("identity", "profunctor", "assoc-line-a", "assoc-notline-a",
                   "nat-in-c", "dinat-in-b", "typing"):
        assert r.counts[family] > 0


def test_all_catalogue_short_multis_pass():
    for name, m in catalogue_short_multis().items():
        r = validate_short_multicategory(m)
        assert r.ok, f"{name}: {r.failures[:3]}"
        assert r.total_checked() > 0


def test_z2_redirected_entry_fails_at_interchange_instance():
    m = monoid_short_multi(z2_monoid())
    sub = dict(m.sub)
    key = ("m2(1,1;0)", 1, "m2(1,0;1)")
    assert sub[key] == "m3(1,0,1;0)"
    sub[key] = "m3(0,0,0;0)"
    bad = dataclasses.replace(m, sub=sub)
    r = validate_short_multicategory(bad)
    assert not r.ok
    assert r.has_failure("assoc-notline-a", ("m2(1,1;0)", "m2(1,0;1)", "m2(0,1;1)"))
    assert r.has_failure("typing", ("sub", "m2(1,1;0)", "1", "m2(1,0;1)"))


def test_subst_agrees_with_actions_on_unary_arguments():
    # q o_1 f is the post-action and f o_i p the pre-action, on every entry
    for name, m in catalogue_short_multis().items():
        for n in (0, 2, 3):
            for f in m.multimaps(n):
                for q in m.base.mors_out_of(m.cod(f)):
                    assert m.safe_subst(q, 1, f) == m.safe_post(q, f) is not None
            for f in m.multimaps(max(n, 2)):
                dom = m.dom(f)
                for i in range(1, len(dom) + 1):
                    for p in m.base.mors_into(dom[i - 1]):
                        assert m.safe_subst(f, i, p) == m.safe_pre(f, i, p) is not None


def test_catalogue_morphisms_validate():
    ms = catalogue_morphisms()
    assert len(ms) >= 10
    for name, F in ms.items():
        r = validate_multi_morphism(F)
        assert r.ok, f"{name}: {r.failures[:3]}"
