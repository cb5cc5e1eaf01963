import dataclasses
import itertools

import pytest

from shortcat.catalogue import (
    bz2_category, catalogue_braidings, catalogue_mutants, catalogue_skew_closed,
    catalogue_skew_monoidals, heyting2_skew_closed, heyting2_skew_monoidal, klein_monoid,
    monoid_skew_monoidal, monoid_symmetry, poset2_base, poset2_skew_first,
    poset2_skew_second, terminal_skew_monoidal, thin_skew_closed, thin_skew_monoidal,
    z2_monoid,
)
from shortcat.errors import MalformedTable
from shortcat.skewmon import (
    Braiding, LaxMonFunctor, check_symmetry, classify_flavour,
    identity_lax_functor, validate_braided_functor, validate_braiding,
    validate_lax_functor, validate_skew_closed, validate_skew_monoidal,
)
from test_kernel import _cyclic_files


def test_poset2_second_passes_left_normal_not_right():
    c = poset2_skew_second()
    r = validate_skew_monoidal(c)
    assert r.ok and r.total_checked() > 0
    fl = classify_flavour(c)
    assert fl.left_normal and not fl.monoidal
    assert "0" not in fl.rho_inverses  # rho_0 = le has no inverse


def test_poset2_first_passes_rho_invertible_lambda_not():
    c = poset2_skew_first()
    assert validate_skew_monoidal(c).ok
    fl = classify_flavour(c)
    assert not fl.left_normal
    assert len(fl.rho_inverses) == len(c.base.objects)


def test_z2_strict_monoidal_passes_with_identity_structure_maps():
    c = monoid_skew_monoidal(z2_monoid())
    assert validate_skew_monoidal(c).ok
    assert all(v == c.base.identity(c.t(a, b)) for (a, b), v in
               [((a, b), c.tensor_mor[(c.base.identity(a), c.base.identity(b))])
                for a in c.base.objects for b in c.base.objects])
    assert classify_flavour(c).monoidal


@pytest.mark.parametrize("build", [
    # a (x) b := b with unit 0 has no rho: 1 -> 1 (x) 0 = 0
    lambda: thin_skew_monoidal("second-0", poset2_base(), lambda a, b: b, "0"),
    # a tensor that is not monotone has no tensor of le (x) 1_0: 1 -> 0
    lambda: thin_skew_monoidal("flip", poset2_base(),
                               lambda a, b: "1" if a == "0" else "0", "1"),
    # [b, x] := x with unit 1 has no J: 1 -> [0, 0] = 0
    lambda: thin_skew_closed("target", poset2_base(), lambda b, x: x, "1"),
])
def test_thin_generators_refuse_a_missing_structure_map(build):
    with pytest.raises(MalformedTable, match="1 -> 0"):
        build()


def test_all_catalogue_monoidals_pass_with_counts():
    for name, c in catalogue_skew_monoidals().items():
        r = validate_skew_monoidal(c)
        assert r.ok, f"{name}: {r.failures[:3]}"
        for family in ("pentagon", "left-unit", "right-unit", "middle-unit", "unit-unit"):
            assert r.counts[family] > 0, f"{name} skipped {family}"


def test_flavour_closed_search():
    fl = classify_flavour(heyting2_skew_monoidal())
    assert fl.closed and fl.monoidal
    assert {k: v[0] for k, v in fl.hom_objects.items()} == {
        ("0", "0"): "1", ("0", "1"): "1", ("1", "0"): "0", ("1", "1"): "1"}
    assert not classify_flavour(poset2_skew_second()).closed
    assert classify_flavour(monoid_skew_monoidal(z2_monoid())).closed


def test_identity_lax_functor_passes():
    for name, c in catalogue_skew_monoidals().items():
        assert validate_lax_functor(identity_lax_functor(c)).ok, name


def test_collapse_to_terminal_is_lax():
    from shortcat.fincat import FinFunctor
    src = monoid_skew_monoidal(z2_monoid())
    tgt = terminal_skew_monoidal()
    fun = FinFunctor("collapse", src.base, tgt.base,
                     {a: "o" for a in src.base.objects},
                     {f: "1_o" for f in src.base.morphisms()})
    t = LaxMonFunctor("collapse", src, tgt, fun, "1_o",
                      {(a, b): "1_o" for a in src.base.objects for b in src.base.objects})
    assert validate_lax_functor(t).ok


def test_mutated_f2_fails_lax_assoc():
    c = monoid_skew_monoidal(z2_monoid())
    t = identity_lax_functor(c)
    f2 = dict(t.f2)
    f2[("1", "1")] = "1_1"  # should be 1_0
    bad = dataclasses.replace(t, f2=f2)
    r = validate_lax_functor(bad)
    assert not r.ok
    assert any(f.family in ("lax-assoc", "f2-typing") for f in r.failures)
    assert r.has_failure("lax-assoc", ("1", "1", "0"))


def test_braidings_pass_and_are_symmetric():
    for name, (c, b) in catalogue_braidings(catalogue_skew_monoidals()).items():
        r = validate_braiding(c, b)
        assert r.ok, f"{name}: {r.failures[:3]}"
        assert check_symmetry(c, b)


def test_klein_mutated_s_entry_fails_alpha_compat():
    c = monoid_skew_monoidal(klein_monoid())
    b = monoid_symmetry(klein_monoid())
    s = dict(b.s)
    s[("01", "10", "00")] = "1_00"  # should be 1_11
    bad = Braiding(b.name, s, dict(b.s_inv))
    r = validate_braiding(c, bad)
    assert not r.ok
    assert r.has_failure("braid-alpha-right", ("01", "10", "00", "00"))


def test_braided_functor_identity_and_swap():
    c = monoid_skew_monoidal(klein_monoid())
    b = monoid_symmetry(klein_monoid())
    assert validate_braided_functor(identity_lax_functor(c), b, b).ok
    from shortcat.fincat import FinFunctor
    swap = {a: a[::-1] for a in c.base.objects}
    fun = FinFunctor("swap", c.base, c.base, swap,
                     {f"1_{a}": f"1_{swap[a]}" for a in c.base.objects})
    t = LaxMonFunctor("swap", c, c, fun, "1_00",
                      {(a, x): f"1_{swap[klein_monoid().op(a, x)]}"
                       for a in c.base.objects for x in c.base.objects})
    assert validate_lax_functor(t).ok
    assert validate_braided_functor(t, b, b).ok


def test_braided_functor_mutation_fails():
    c = monoid_skew_monoidal(klein_monoid())
    b = monoid_symmetry(klein_monoid())
    t = identity_lax_functor(c)
    f2 = dict(t.f2)
    f2[("01", "10")] = "1_00"  # should be 1_11
    bad = dataclasses.replace(t, f2=f2)
    r = validate_braided_functor(bad, b, b)
    assert not r.ok
    assert any(f.family == "braided-functor" for f in r.failures)


def test_skew_closed_catalogue_passes():
    for name, c in catalogue_skew_closed().items():
        r = validate_skew_closed(c)
        assert r.ok, f"{name}: {r.failures[:3]}"
        assert r.counts["J-L-triangle"] > 0


def test_mutated_ell_fails_jl_triangle():
    c = heyting2_skew_closed()
    ell = dict(c.ell)
    assert ell[("0", "1", "1")] == "1_1"
    ell[("0", "1", "1")] = "le"
    bad = dataclasses.replace(c, ell=ell)
    r = validate_skew_closed(bad)
    assert not r.ok
    assert r.has_failure("J-L-triangle", ("0", "1"))


def _flavour_inputs():
    """Every catalogue skew monoidal category, the skew monoidal mutants, the
    skew monoidal category of each Z/2-Z/6 monoidal and braiding file, and
    BZ/2."""
    yield from catalogue_skew_monoidals().items()
    for mut in catalogue_mutants():
        if mut.kind == "skew-monoidal":
            yield mut.name, mut.payload
    for n in range(2, 7):
        for sf in _cyclic_files(n):
            if sf.kind == "skew-monoidal":
                yield sf.name, sf.payload
            elif sf.kind == "braiding":
                yield sf.name, sf.payload[0]
    yield "bz2", bz2_category()


def _right_adjoints(c, b, cod):
    """Every (h, eps), h in object order and eps in hom order, with eps: hb ->
    cod such that f -> eps o (f (x) 1_b) is a bijection hom(a, h) -> hom(ab,
    cod) for every object a: the definition, read off the raw tables."""
    base = c.base

    def hom(x, y):
        return sorted(base.homs.get((x, y), ()))

    def bijective(h, eps, a):
        images = [base.comp.get((eps, c.tensor_mor.get((f, base.ids[b])))) for f in hom(a, h)]
        return None not in images and sorted(images) == hom(c.tensor_obj[a, b], cod)

    return [(h, eps) for h in sorted(base.objects) for eps in hom(c.tensor_obj[h, b], cod)
            if all(bijective(h, eps, a) for a in base.objects)]


def test_classify_flavour_finds_the_first_right_adjoint():
    """For each pair (b, cod), classify_flavour reports the first (h, eps)
    that makes - (x) b followed by eps a bijection onto hom(- (x) b, cod),
    and none where no pair does; the category is closed when every pair has
    one."""
    closed = []
    for name, c in _flavour_inputs():
        flavour = classify_flavour(c)
        found = {(b, cod): _right_adjoints(c, b, cod)
                 for b, cod in itertools.product(c.base.objects, repeat=2)}
        assert flavour.hom_objects == {key: pairs[0] for key, pairs in found.items() if pairs}, name
        assert flavour.closed == all(found.values()), name
        closed.append(flavour.closed)
    assert len(closed) == 34 and 0 < sum(closed) < 34, closed
