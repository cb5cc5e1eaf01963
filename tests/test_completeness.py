"""Validator completeness: every single-entry redirect of an action or
substitution table in a passing catalogue structure must flip at least one
reported instance. Exhaustive over the entries, one representative redirect
each (the domains are finite, so this is the property itself rather than a
sample of it); on the delooping of Z/2, whose hom-set has two parallel
morphisms, every well-typed redirect of every entry."""
import dataclasses

from shortcat.catalogue import (
    bz2_category, catalogue_short_multis, heyting2_skew_closed, monoid_skew_monoidal,
    poset2_first_short_skew, z2_monoid,
)
from shortcat.induce import induce_short_multi, induce_short_skew
from shortcat.shortmulti import validate_short_multicategory
from shortcat.shortskew import LOOSE, validate_short_skew
from shortcat.skewmon import validate_skew_closed, validate_skew_monoidal


def _each_redirect(m, table_names, pool_of, alternatives=1):
    """Each entry redirected to the first `alternatives` of its pool (to
    every one with None)."""
    for tname in table_names:
        table = getattr(m, tname)
        for key in sorted(table):
            for other in pool_of(table[key])[:alternatives]:
                yield tname, key, dataclasses.replace(m, **{tname: {**table, key: other}})


def _skew_pool(m):
    """The ids of the arity and of at least the flavours of a value."""
    def pool(current):
        n, _, _, fl = m.info(current)
        return [x for x in sorted(m._index)
                if x != current and m.info(x)[0] == n and fl <= m.info(x)[3]]
    return pool


def _j_pool(m):
    """The other loose maps of the arity of a j value."""
    return lambda current: [x for x in m.multimaps(LOOSE, m.arity(current)) if x != current]


def test_short_multi_mutations_all_flip():
    m = catalogue_short_multis()["z2"]

    def pool(current):
        return [x for x in m.multimaps(m.arity(current)) if x != current]

    tried = 0
    for tname, key, bad in _each_redirect(m, ("sub", "pre", "post"), pool):
        assert not validate_short_multicategory(bad).ok, (tname, key)
        tried += 1
    assert tried > 100


def test_short_skew_mutations_all_flip():
    m = poset2_first_short_skew()
    tried = 0
    for tname, key, bad in _each_redirect(m, ("sub", "pre", "post"), _skew_pool(m)):
        assert not validate_short_skew(bad).ok, (tname, key)
        tried += 1
    for _, key, bad in _each_redirect(m, ("j",), _j_pool(m)):
        assert not validate_short_skew(bad).ok, key
        tried += 1
    assert tried > 40


def test_bz2_short_multi_every_redirect_flips():
    """BZ/2 has one object, so a map's arity is its type: every other map of
    that arity is a well-typed alternative."""
    m = induce_short_multi(bz2_category())
    assert validate_short_multicategory(m).ok
    tried = 0
    for tname, key, bad in _each_redirect(
            m, ("sub", "pre", "post"),
            lambda current: [x for x in m.multimaps(m.arity(current)) if x != current], None):
        assert not validate_short_multicategory(bad).ok, (tname, key)
        tried += 1
    assert tried == 100


def test_bz2_short_skew_every_redirect_flips():
    m = induce_short_skew(bz2_category())
    assert validate_short_skew(m).ok
    redirects = list(_each_redirect(m, ("sub", "pre", "post"), _skew_pool(m), None))
    redirects += _each_redirect(m, ("j",), _j_pool(m), None)
    for tname, key, bad in redirects:
        assert not validate_short_skew(bad).ok, (tname, key)
    assert len(redirects) == 140


def test_skew_monoidal_mutations_all_flip():
    c = monoid_skew_monoidal(z2_monoid())
    mors = c.base.morphisms()
    tried = 0
    for tname in ("alpha", "lam", "rho", "tensor_mor"):
        table = getattr(c, tname)
        for key in sorted(table):
            pool = [x for x in mors if x != table[key]]
            patched = dict(table)
            patched[key] = pool[0]
            bad = dataclasses.replace(c, **{tname: patched})
            assert not validate_skew_monoidal(bad).ok, (tname, key)
            tried += 1
    for key in sorted(c.tensor_obj):
        pool = [o for o in c.base.objects if o != c.tensor_obj[key]]
        patched = dict(c.tensor_obj)
        patched[key] = pool[0]
        bad = dataclasses.replace(c, tensor_obj=patched)
        assert not validate_skew_monoidal(bad).ok, key
        tried += 1
    assert tried >= 20


def test_skew_closed_mutations_all_flip():
    c = heyting2_skew_closed()
    mors = c.base.morphisms()
    tried = 0
    for tname in ("hom_mor", "iu", "ju", "ell"):
        table = getattr(c, tname)
        for key in sorted(table):
            pool = [x for x in mors if x != table[key]]
            patched = dict(table)
            patched[key] = pool[0]
            bad = dataclasses.replace(c, **{tname: patched})
            assert not validate_skew_closed(bad).ok, (tname, key)
            tried += 1
    assert tried > 15
