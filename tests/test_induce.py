"""The plain induction is the skew one read through its invertible j: it
matches the former, separately tabulated plain induction, plain_of inverts
embed_plain, and a j that is no bijection is refused."""
import re

import pytest

from reference_validators import induce_short_multi as reference_induce_short_multi
from shortcat.catalogue import bz2_category, catalogue_short_multis, catalogue_skew_monoidals
from shortcat.errors import MalformedTable
from shortcat.induce import induce_short_multi, induce_short_skew
from shortcat.shortskew import embed_plain, plain_of
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
