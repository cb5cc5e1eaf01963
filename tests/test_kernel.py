"""The closure-free check kernels of the short-multi and short-skew validators
against the closure-based reference in reference_validators.py: the same
rendered report, or the same exception type, on every catalogue structure,
on Z/2..Z/4, on every mutant and on every completeness redirect."""
import argparse
import dataclasses

import pytest

import reference_validators as ref
from shortcat import cli
from shortcat.catalogue import (
    catalogue_mutants, catalogue_short_multis, catalogue_short_skews,
    poset2_first_short_skew,
)
from shortcat.shortmulti import ShortMulticategory, validate_short_multicategory
from shortcat.shortskew import LOOSE, TIGHT, ShortSkewMulticategory, validate_short_skew


def _cyclic(n):
    rows = [" ".join(str((a + b) % n) for b in range(n)) for a in range(n)]
    args = argparse.Namespace(elements=" ".join(map(str, range(n))), unit="0",
                              table=";".join(rows), monoid_name=f"zmod{n}")
    for sf in cli.catalogue_files("comm-monoid", args):
        if sf.kind == "short-multi":
            yield sf.name, sf.payload
        elif sf.kind == "short-skew":
            yield sf.name, sf.payload[0]


def _redirects(m, table_names, pool_of):
    """Every single-entry redirect to the first alternative, as
    test_completeness.py enumerates them."""
    for tname in table_names:
        table = getattr(m, tname)
        for key in sorted(table):
            pool = pool_of(table[key])
            if pool:
                yield f"{tname}{key}", dataclasses.replace(m, **{tname: {**table, key: pool[0]}})


def _z2_redirects():
    m = catalogue_short_multis()["z2"]
    return _redirects(m, ("sub", "pre", "post"),
                      lambda cur: [x for x in m.multimaps(m.arity(cur)) if x != cur])


def _poset2_first_redirects():
    m = poset2_first_short_skew()

    def pool(cur):
        n, _, _, fl = m.info(cur)
        return [x for x in sorted(m._index)
                if x != cur and m.info(x)[0] == n and fl <= m.info(x)[3]]
    yield from _redirects(m, ("sub", "pre", "post"), pool)
    yield from _redirects(m, ("j",),
                          lambda cur: [x for x in m.multimaps(LOOSE, m.info(cur)[0]) if x != cur])


def _structures(group):
    if group == "catalogue":
        yield from catalogue_short_multis().items()
        yield from catalogue_short_skews().items()
    elif group == "cyclic":
        for n in (2, 3, 4):
            yield from _cyclic(n)
    elif group == "mutants":
        for mut in catalogue_mutants():
            if mut.kind in ("short-multi", "short-skew"):
                yield mut.name, mut.payload
    elif group == "z2-redirects":
        yield from _z2_redirects()
    else:
        yield from _poset2_first_redirects()


def _outcome(validate, m):
    try:
        return validate(m).render()
    except Exception as exc:  # the reference's exception type is the expectation
        return type(exc)


GROUPS = ("catalogue", "cyclic", "mutants", "z2-redirects", "poset2-first-redirects")


@pytest.mark.parametrize("group", GROUPS)
def test_kernel_matches_reference(group):
    tried, differ = 0, []
    for name, m in _structures(group):
        if isinstance(m, ShortMulticategory):
            pair = (validate_short_multicategory, ref.validate_short_multicategory)
        else:
            pair = (validate_short_skew, ref.validate_short_skew)
        if _outcome(pair[0], m) != _outcome(pair[1], m):
            differ.append(name)
        tried += 1
    assert tried >= {"catalogue": 10, "cyclic": 6, "mutants": 30}.get(group, 40)
    assert not differ, differ


def _grouped(keys_and_maps):
    out = {}
    for key, fs in keys_and_maps:
        out.setdefault(key, []).extend(fs)
    return {key: tuple(fs) for key, fs in out.items()}


def test_adjacency_matches_its_definition():
    """The cached adjacency equals sorting and filtering the tables."""
    for name, m in list(catalogue_short_multis().items()) + list(catalogue_short_skews().items()):
        base = m.base
        assert base.morphisms() == tuple(sorted(base._span)), name
        for a in base.objects:
            assert base.mors_into(a) == tuple(sorted(
                f for f, (_, c) in base._span.items() if c == a)), name
            assert base.mors_out_of(a) == tuple(sorted(
                f for f, (d, _) in base._span.items() if d == a)), name
        if isinstance(m, ShortMulticategory):
            for n in (0, 2, 3, 4):
                assert m.multimaps(n) == tuple(sorted(
                    f for f, (k, _, _) in m._index.items() if k == n)), name
            for n in (0, 1, 2, 3, 4):
                want = _grouped(((n, key[1]), m.mapset(n, *key)) for key in m.mapset_keys(n))
                for (_, cod), fs in want.items():
                    assert m.maps_into(n, cod) == fs, name
        else:
            for flavour, arities in ((TIGHT, (2, 3, 4)), (LOOSE, (0, 1, 2))):
                tables = m.tight if flavour == TIGHT else m.loose
                for n in arities:
                    assert m.multimaps(flavour, n) == tuple(sorted(
                        f for fs in tables.get(n, {}).values() for f in fs)), name
                    want = _grouped(((n, key[1]), m.mapset(flavour, n, *key))
                                    for key in m.mapset_keys(flavour, n))
                    for (_, cod), fs in want.items():
                        assert m.maps_into(flavour, n, cod) == fs, name


def test_replace_does_not_carry_adjacency():
    """dataclasses.replace builds a structure whose adjacency follows its
    own tables, even after the original's adjacency was computed."""
    m = catalogue_short_multis()["z2"]
    nullary = m.multimaps(0)
    maps = {n: dict(t) for n, t in m.maps.items()}
    del maps[0][sorted(maps[0])[0]]
    smaller = dataclasses.replace(m, maps=maps)
    assert len(smaller.multimaps(0)) == len(nullary) - 1
    assert isinstance(smaller, ShortMulticategory)

    s = poset2_first_short_skew()
    before = s.multimaps(LOOSE, 0)
    loose = {n: dict(t) for n, t in s.loose.items()}
    loose[0] = {}
    emptied = dataclasses.replace(s, loose=loose)
    assert before and emptied.multimaps(LOOSE, 0) == ()
    assert isinstance(emptied, ShortSkewMulticategory)
