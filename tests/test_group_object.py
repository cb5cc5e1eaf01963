"""The one-object category of the group Z/2 with multiplication as tensor:
every hom-set has two elements, so naturality, dinaturality, and the
witness bijections are exercised on non-identity unary actions."""
import pytest

from shortcat.braiding import (
    ShortBraiding, braidings_equal, check_short_symmetry, s_from_short_braiding,
    short_braiding_from_s, short_braidings_equal, validate_short_braiding,
)
from shortcat.catalogue import bz2_category
from shortcat.classify import (
    certify, check_representable, derived_classifiers, find_closed_structure,
    sharp_laws, verify_left_iff_adjoint, verify_units_left_universal,
)
from shortcat.induce import induce_short_multi, induce_short_skew
from shortcat.shortmulti import validate_short_multicategory
from shortcat.shortskew import TIGHT, embed_plain, validate_short_skew
from shortcat.skewmon import check_symmetry, validate_braiding, validate_skew_monoidal
from shortcat.transport import (
    biclosed_subst_check, check_representable_iff_monoidal, ks_object,
    roundtrip_check, transport_closed,
)


@pytest.fixture(scope="module")
def bz2():
    return bz2_category()


def test_group_monoidal_category_validates(bz2):
    r = validate_skew_monoidal(bz2)
    assert r.ok and r.counts["tensor-comp"] == 16  # 2 morphisms, 4 composable squares


def test_group_induction_and_certification(bz2):
    m = induce_short_multi(bz2)
    assert validate_short_multicategory(m).ok
    assert validate_short_skew(induce_short_skew(bz2)).ok
    cert = certify(m)
    assert cert.left_representable
    assert check_representable(m, cert)[0]
    derived_classifiers(m, cert)
    assert find_closed_structure(m, cert) is not None
    assert check_representable_iff_monoidal(m, cert).ok
    assert transport_closed(m, cert).ok
    assert sharp_laws(m).ok
    assert verify_left_iff_adjoint(m).ok
    assert verify_units_left_universal(m).ok
    assert biclosed_subst_check(m).ok


def test_group_roundtrip(bz2):
    assert roundtrip_check(bz2).ok


def test_group_braiding_transport(bz2):
    sk = embed_plain(induce_short_multi(bz2))
    cert = certify(sk)
    # commutativity makes the identity families a short symmetry
    beta = ShortBraiding(
        "bz2.beta",
        {f: f for f in sk.multimaps(TIGHT, 3)},
        {f: f for f in sk.multimaps(TIGHT, 4)},
        {f: f for f in sk.multimaps(TIGHT, 4)})
    r = validate_short_braiding(sk, beta)
    assert r.ok, r.failures[:4]
    assert check_short_symmetry(sk, beta)
    mon = ks_object(sk, cert)
    s = s_from_short_braiding(sk, cert, beta)
    assert validate_braiding(mon, s).ok
    assert check_symmetry(mon, s)
    assert short_braidings_equal(beta, short_braiding_from_s(sk, cert, s))
    assert braidings_equal(s, s_from_short_braiding(
        sk, cert, short_braiding_from_s(sk, cert, s)))
