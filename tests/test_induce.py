"""The skew builders all go through shortskew.build and give the tables the
former builders gave, each of which typed its entries itself; an induced
map of the wrong type is refused. The plain induction is the skew one read
through its invertible j: it matches the former, separately tabulated plain
induction, plain_of inverts embed_plain, and a j that is no bijection is
refused."""
import dataclasses
import re

import pytest

import reference_validators as ref
from reference_validators import induce_short_multi as reference_induce_short_multi
from shortcat import catalogue, induce
from shortcat.catalogue import (
    bz2_category, catalogue_short_multis, catalogue_skew_closed, catalogue_skew_monoidals,
)
from shortcat.errors import MalformedTable
from shortcat.induce import _Bracketer, induce_closed_skew, induce_short_multi, induce_short_skew
from shortcat.shortskew import ShortSkewMulticategory, build, embed_plain, plain_of
from shortcat.skewmon import classify_flavour
from test_kernel import _cyclic_of


def _left_normal_inputs():
    for name, c in catalogue_skew_monoidals().items():
        if classify_flavour(c).left_normal:
            yield name, c
    yield from _cyclic_of("skew-monoidal")
    yield "bz2", bz2_category()


def _as_m(f):
    """The former plain id of an induced map: t2(...)#f and l0(...)#f read
    m2(...)#f and m0(...)#f; base morphisms keep their names."""
    return re.sub(r"^[tl](\d)\(", r"m\1(", f)


def _tables(m, rename=lambda f: f):
    def ids(key):
        return tuple(rename(k) if isinstance(k, str) else k for k in key)
    return (m.name, m.base,
            {n: {key: tuple(map(rename, fs)) for key, fs in table.items()}
             for n, table in m.maps.items()},
            {ids(key): rename(h) for key, h in m.pre.items()},
            {ids(key): rename(h) for key, h in m.post.items()},
            {ids(key): rename(h) for key, h in m.sub.items()})


def _skew_tables(m):
    return m.name, m.base, m.tight, m.loose, m.j, m.pre, m.post, m.sub


def test_skew_builders_match_reference(monkeypatch):
    """The thin poset2-first, the induction of every catalogue skew monoidal
    category, Z/2-Z/4 and BZ/2, and the closed induction of both catalogue
    skew closed categories."""
    thin = _skew_tables(catalogue.poset2_first_short_skew())
    monkeypatch.setattr(catalogue, "table_short_skew", ref.table_short_skew)
    assert thin == _skew_tables(catalogue.poset2_first_short_skew())
    monoidal = [*catalogue_skew_monoidals().items(), *_cyclic_of("skew-monoidal"),
                ("bz2", bz2_category())]
    for name, c in monoidal:
        assert _skew_tables(induce_short_skew(c)) == _skew_tables(ref.induce_short_skew(c)), name
    for name, x in catalogue_skew_closed().items():
        assert _skew_tables(induce_closed_skew(x)) == _skew_tables(ref.induce_closed_skew(x)), name
    assert (len(monoidal), len(catalogue_skew_closed())) == (11, 2)


def test_build_asks_members_once_per_domain(monkeypatch):
    """build asks its members callback once per (flavour, arity, domain),
    for all the codomains at once: on Z/3, 3^2 + 3^3 + 3^4 tight domains and
    1 + 3 + 3^2 loose ones."""
    calls = []

    def counted(name, base, members, pick):
        def asked(*args):
            calls.append(args)
            return members(*args)
        return build(name, base, asked, pick)

    monkeypatch.setattr(induce, "build", counted)
    induce_short_skew(catalogue_skew_monoidals()["z3.mon"])
    assert len(calls) == len(set(calls)) == 130


def test_each_build_constructs_its_structure_once(monkeypatch):
    """build fills the j, pre, post and sub dicts of the structure it has
    already made, so __post_init__, which loads and sorts every table and
    indexes every id, runs once per built structure."""
    built = []
    post_init = ShortSkewMulticategory.__post_init__

    def counted(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(ShortSkewMulticategory, "__post_init__", counted)
    thin = catalogue.poset2_first_short_skew()
    tensor = induce_short_skew(catalogue_skew_monoidals()["poset2-first"])
    closed = induce_closed_skew(catalogue_skew_closed()["heyting2.cl"])
    assert built == [thin.name, tensor.name, closed.name]


def test_a_tight_unary_result_with_the_wrong_span_is_refused():
    """With rho_0 (resp. i at 0) redirected, substituting a nullary map into
    slot 2 of a tight binary one composes to a base morphism of another span,
    so no tight unary map of the entry's type exists."""
    second = catalogue_skew_monoidals()["poset2-second"]
    heyting = catalogue_skew_closed()["heyting2.cl"]
    for induce, reference, x in (
            (induce_short_skew, ref.induce_short_skew,
             dataclasses.replace(second, rho={**second.rho, "0": "1_1"})),
            (induce_closed_skew, ref.induce_closed_skew,
             dataclasses.replace(heyting, iu={**heyting.iu, "0": "le"}))):
        with pytest.raises(MalformedTable, match=r"no t1 map \('0',\);\d for sub entry"):
            induce(x)
        with pytest.raises(MalformedTable, match=r"missing from t1\('0',\)"):
            reference(x)


def _without(table: dict, key) -> dict:
    return {k: v for k, v in table.items() if k != key}


def test_induce_errors_name_the_structure_and_operands():
    """A tensor of morphisms or a hom action that the tables leave undefined
    is a MalformedTable naming the structure and the operands. A missing
    comp or identity entry raises what base.compose and base.identity raise.
    Every command validates first, so only the API reaches these."""
    mon = catalogue_skew_monoidals()["z2.mon"]
    for f, g in mon.tensor_mor:
        with pytest.raises(MalformedTable,
                           match=rf"^z2\.mon: tensor of morphisms \({f},{g}\) undefined$"):
            induce_short_skew(dataclasses.replace(mon, tensor_mor=_without(mon.tensor_mor, (f, g))))
    with pytest.raises(MalformedTable, match=r"^z2\.mon: empty left-bracketed product$"):
        _Bracketer(mon).lbr(())
    closed = catalogue_skew_closed()["heyting2.cl"]
    with pytest.raises(MalformedTable, match=r"^heyting2\.cl: hom action \[1,le\] undefined$"):
        induce_closed_skew(dataclasses.replace(
            closed, hom_mor=_without(closed.hom_mor, ("1_1", "le"))))
    for induce, c in ((induce_short_skew, mon), (induce_closed_skew, closed)):
        name = c.base.name
        for key in c.base.comp:
            with pytest.raises(MalformedTable, match=re.escape(
                    f"{name}: missing comp entry ({key[0]}, {key[1]})")):
                induce(dataclasses.replace(c, base=dataclasses.replace(
                    c.base, comp=_without(c.base.comp, key))))
        with pytest.raises(MalformedTable, match=f"{name}: no identity for object 0"):
            induce(dataclasses.replace(c, base=dataclasses.replace(
                c.base, ids=_without(c.base.ids, "0"))))


def test_plain_induction_matches_reference():
    seen = []
    for name, c in _left_normal_inputs():
        assert _tables(induce_short_multi(c), _as_m) == _tables(
            reference_induce_short_multi(c)), name
        seen.append(name)
    assert len(seen) == 10, seen  # 6 catalogue categories, Z/2-Z/4 and BZ/2


@pytest.mark.parametrize("name", sorted(catalogue_short_multis()))
def test_plain_of_inverts_embed_plain(name):
    m = catalogue_short_multis()[name]
    back = plain_of(embed_plain(m))
    assert _tables(back)[1:] == _tables(m)[1:]


def test_plain_of_refuses_a_j_that_is_no_bijection():
    c = catalogue_skew_monoidals()["poset2-first"]
    assert not classify_flavour(c).left_normal
    with pytest.raises(MalformedTable, match="j"):
        plain_of(induce_short_skew(c))
    with pytest.raises(MalformedTable, match="invertible left unit"):
        induce_short_multi(c)
