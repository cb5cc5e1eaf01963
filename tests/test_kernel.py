"""The validators against independent expectations. The short (skew)
multicategory kernels are compared with the law table of laws.py, written
from the paper: the same rendered report, or the same exception type and
message, on every catalogue structure, on Z/2..Z/4, on every mutant and on
the completeness redirects (every well-typed one of BZ/2 among them). The
kernel's pre-post quirk is one named filter here, LastPOfEachSlot.
MultiTables.lookups is compared with the law table's routing. The other
twelve validators (of categories, skew monoidal, braided and skew closed
categories, functors, lax monoidal, braided and skew closed functors,
short braidings, braided transports and morphisms of short (skew)
multicategories) are compared with the law table too, and every base-*
family and the functor families of every map come from it. The exceptions
on both sides are the package's table checks: check_structure,
check_braiding_total, and fincat.check_tables and check_members on the
swap tables of a short braiding and the tables of a map, each keyed and
valued as its fields say. Their inputs include hand-built ones where a
totality error and a dangling value meet. The multimap index is compared
with its definition."""
import argparse
import dataclasses
import itertools

import pytest

import laws
from shortcat import braiding, cli, fincat, shortmulti, shortskew, skewmon
from shortcat.braiding import ShortBraiding, s_from_short_braiding
from shortcat.catalogue import (
    bz2_category, catalogue_braidings, catalogue_morphisms, catalogue_mutants,
    catalogue_short_braidings, catalogue_short_multis, catalogue_short_skews,
    catalogue_skew_closed, catalogue_skew_monoidals, heyting2_skew_closed, monoid_skew_monoidal,
    poset2_base, poset2_first_short_skew, z2_monoid,
)
from shortcat.classify import certify, find_closed_structure
from shortcat.errors import InconsistentVerdicts, MalformedTable
from shortcat.fincat import check_members, check_tables, identity_functor
from shortcat.induce import induce_short_multi, induce_short_skew
from shortcat.shortmulti import (
    ShortMulticategory, identity_multi_morphism, validate_short_multicategory,
)
from shortcat.shortskew import (
    LOOSE, TIGHT, ShortSkewMulticategory, embed_multi_morphism, identity_skew_morphism,
    validate_short_skew,
)
from shortcat.skewmon import (
    Braiding, SkewClosedFunctor, check_braiding_total, identity_lax_functor,
)
from shortcat.transport import (
    k_morphism, k_object, kcl_morphism, kcl_object, ks_morphism, ks_object,
)
from test_completeness import _each_redirect, _j_pool, _skew_pool


def _cyclic_files(n):
    """The comm-monoid catalogue files of Z/n: the one Z/n fixture of the tests."""
    rows = [" ".join(str((a + b) % n) for b in range(n)) for a in range(n)]
    args = argparse.Namespace(elements=" ".join(map(str, range(n))), unit="0",
                              table=";".join(rows), monoid_name=f"zmod{n}")
    return cli.catalogue_files("comm-monoid", args)


def _cyclic(n):
    for sf in _cyclic_files(n):
        if sf.kind == "short-multi":
            yield sf.name, sf.payload
        elif sf.kind == "short-skew":
            yield sf.name, sf.payload[0]


def _redirects(x, table_names, pool_of, alternatives=1):
    """Every single-entry redirect of the named tables of x to the first
    `alternatives` of its pool (to every one with None), as
    test_completeness.py enumerates them."""
    for tname, key, bad in _each_redirect(x, table_names, pool_of, alternatives):
        yield f"{tname}{key}->{getattr(bad, tname)[key]}", bad


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


def _bz2():
    """BZ/2's induced plain and skew structures with every well-typed
    single-entry redirect of each, as test_completeness.py enumerates them.
    BZ/2 is the one base with parallel morphisms, so the kernel loops over
    the morphisms into or out of an object run over more than one there."""
    m = induce_short_multi(bz2_category())
    redirects = _each_redirect(m, ("sub", "pre", "post"),
                               lambda cur: [x for x in m.multimaps(m.arity(cur)) if x != cur], None)
    sk = induce_short_skew(bz2_category())
    skew_redirects = itertools.chain(
        _each_redirect(sk, ("sub", "pre", "post"), _skew_pool(sk), None),
        _each_redirect(sk, ("j",), _j_pool(sk), None))
    for x, edits in ((m, redirects), (sk, skew_redirects)):
        yield x.name, x
        for tname, key, bad in edits:
            yield f"{x.name}.{tname}{key}->{getattr(bad, tname)[key]}", bad


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
    elif group == "bz2":
        yield from _bz2()
    else:
        yield from _poset2_first_redirects()


def _outcome(validate, *args):
    try:
        return validate(*args).render()
    except Exception as exc:  # the reference's exception is the expectation
        return type(exc), str(exc)


class LastPOfEachSlot:
    """The pre-post quirk, kept here and only here: the kernel checks q o
    (f o_i p) = (q o f) o_i p only for the last p (in id order) into each
    slot i of each map f, so the law table's pre-post row is filtered to
    that p. Called with a row of the law table, it gives None or the row's
    filter. `quirked` tells whether some slot of a map has two or more
    morphisms into it, where the filter drops instances; `dropped` counts
    the instances it dropped."""

    def __init__(self, m):
        tables = laws.Tables(m)
        self.typed, self.dropped = tables.typed, 0
        self.last = {x: max(ps) for x, ps in tables.into.items()}
        self.quirked = any(len(tables.into[x]) > 1 for f in tables.every for x in self.typed[f][0])

    def __call__(self, law):
        return self.keep if law.head == ("pre-post",) else None

    def keep(self, f, i, p, q):
        if p == self.last[self.typed[f][0][i - 1]]:
            return True
        self.dropped += 1
        return False


def _law_report(m, braid=None, keep=None):
    """The report the law table gives m: a structure, with the base's
    families prefixed base-; the braiding braid on m; a map, with its
    functor's families; or, braid a pair, the map m between braided ends.
    Or the exception of the package's table checks."""
    _table_checks(m, braid)
    report = laws.validate(m, keep, braid)
    if braid is None and hasattr(m, "base"):
        report.merge_prefixed(laws.validate(m.base), "base-")
    if braid is None and hasattr(m, "functor"):
        report.merge(laws.validate(m.functor))
    return report.finish()


def _members(c):
    """The objects and the morphisms of the category c as the keys, and its
    morphisms as the values, of a row of fincat.check_tables."""
    mors = sorted(f for fs in c.homs.values() for f in fs)
    return (c.objects, "an object"), (mors, "a morphism"), (set(mors), "a morphism")


def _ids(m, ty):
    return sorted(f for fs in laws.raw_tables(m).get(ty, {}).values() for f in fs)


def _table_checks(m, braid=None):
    """Raise what the package's table checks raise on m (with braid, as
    _law_report takes it): a structure's check_structure, check_braiding_total,
    or fincat.check_tables and check_members on the swap tables of a short
    braiding and on the tables of a map, which must be keyed by exactly the
    source's objects, morphisms or multimaps and valued in the target's."""
    if isinstance(braid, ShortBraiding):
        values = (laws.Tables(m).typed, "a multimap")
        check_tables(braid.name, [
            (tag, braid.table(tag), 1, (_ids(m, ("t", n)), f"a tight multimap of arity {n}"), values)
            for tag, n in (("b32", 3), ("b42", 4), ("b43", 4))])
    elif braid is not None:
        if not isinstance(braid, tuple):  # a map between braided ends checks no table
            check_braiding_total(m, braid)
    elif not hasattr(m, "source"):
        m.check_structure()
    else:
        fun = getattr(m, "functor", m)
        (objs, mors, _), (images, _, arrows) = _members(fun.source), _members(fun.target)
        check_tables(fun.name, [("obj_map", fun.obj_map, 1, objs, images),
                                ("mor_map", fun.mor_map, 1, mors, arrows)])
        for label, field in (("f2", "f2"), ("hom comparison", "fh")):
            if hasattr(m, field):
                check_tables(m.name, [(label, getattr(m, field), 2, objs, arrows)])
        if hasattr(m, "maps") or hasattr(m, "tight_maps"):
            _image_checks(m, fun)


def _image_checks(F, fun):
    """Every source multimap of a morphism has an image (MalformedTable),
    and each image table is keyed by source multimaps of its type and
    valued in the target's multimaps (check_members' DanglingId)."""
    if hasattr(F, "maps"):
        types = [("m", n, F.maps, f"arity-{n}", f"m{n}", f"of arity {n}") for n in (0, 2, 3, 4)]
    else:
        types = [(x, n, tables, f"{x}{n}", f"{x}{n}", f"of type {x}{n}")
                 for x, tables, arities in ((TIGHT, F.tight_maps, (2, 3, 4)),
                                            (LOOSE, F.loose_maps, (0, 1, 2))) for n in arities]
    morphisms = _members(fun.source)[2][0]
    for x, n, tables, label, _, _ in types:
        for f in _ids(F.source, (x, n)):
            # a base morphism listed loose is its own loose unary map
            shared = (x, n) == (LOOSE, 1) and f in morphisms
            if (fun.mor_map if shared else tables.get(n, {})).get(f) is None:
                raise MalformedTable(f"{F.name}: no image for {label} multimap {f}")
    values = (laws.Tables(F.target).typed, "a multimap")
    check_members(F.name, [(row, tables[n], 1, (_ids(F.source, (x, n)), f"a source multimap {what}"),
                            values) for x, n, tables, _, row, what in types if n in tables])


def _law_braided_transport(F, beta_src, beta_tgt, cert_src, cert_tgt, src_mon, tgt_mon):
    """The law table's preserve-* families of F; the verdicts of the ternary
    and the quaternary swaps must agree (InconsistentVerdicts), and unless F
    fails the ternary swap and is no morphism, which ks_morphism refuses, the
    braided-functor family of the transported lax functor between the
    transported braidings."""
    report = laws.validate(F, braid=(beta_src, beta_tgt))
    failed = {inst.family for inst in report.failures}
    ok32, ok4 = "preserve-b32" not in failed, not failed & {"preserve-b42", "preserve-b43"}
    if ok32 and not ok4:
        raise InconsistentVerdicts(f"{F.name}: ternary swap preserved but a quaternary one is not")
    if ok32 or _law_report(F).ok:
        s_src = s_from_short_braiding(F.source, cert_src, beta_src)
        s_tgt = s_from_short_braiding(F.target, cert_tgt, beta_tgt)
        report.merge(_law_report(ks_morphism(F, cert_src, cert_tgt, src_mon, tgt_mon),
                                 (s_src, s_tgt)))
    return report.finish()


GROUPS = ("catalogue", "cyclic", "mutants", "z2-redirects", "poset2-first-redirects", "bz2")


@pytest.mark.parametrize("group", GROUPS)
def test_kernel_matches_reference(group):
    """Each kernel gives the law table's report once the law table's
    pre-post row is filtered to the kernel's quirk, and the filter drops
    instances exactly on the inputs where some slot has two or more
    morphisms into it: there, and only there, the unfiltered law table
    disagrees with the kernel."""
    tried, differ, filtered = 0, [], []
    for name, m in _structures(group):
        kernel = validate_short_multicategory if isinstance(m, ShortMulticategory) \
            else validate_short_skew
        keep = LastPOfEachSlot(m)
        if _outcome(kernel, m) != _outcome(_law_report, m, None, keep):
            differ.append(name)
        if keep.dropped:
            filtered.append(name)
        if (keep.dropped > 0) != keep.quirked:
            differ.append(f"{name}: the filter dropped {keep.dropped}")
        tried += 1
    assert tried >= {"catalogue": 10, "cyclic": 6, "mutants": 30, "bz2": 242}.get(group, 40)
    assert not differ, differ
    assert len(filtered) == {"catalogue": 5, "cyclic": 0, "mutants": 19, "z2-redirects": 0}.get(
        group, tried), filtered


@pytest.mark.parametrize("group", ("catalogue", "cyclic", "mutants"))
def test_lookups_match_reference(group):
    """MultiTables.lookups holds exactly what the law table's routing gives
    (a base morphism composes in the base; substituting one, or into one, is
    a pre or post action), keyed by every pair and triple (slots 0-5) of the
    ids with None and an unknown id among them that it defines: on each
    structure of the group, all of which pass check_structure, and on the
    plain-as-skew view of each catalogue one."""
    tried = 0
    for name, m in _structures(group):
        m.check_structure()
        views = (m, m.as_skew) if group == "catalogue" and isinstance(m, ShortMulticategory) else (m,)
        for x in views:
            tables = laws.Tables(x)
            pairs = list(itertools.product(sorted(tables.typed) + [None, "nowhere"], repeat=2))
            triples = [(g, i, f) for g, f in pairs for i in range(6)]
            for lookup, route, keys in zip(x.lookups, (tables.pre, tables.post, tables.sub),
                                           (triples, pairs, triples)):
                routed = zip(keys, itertools.starmap(route, keys))
                assert lookup == {key: h for key, h in routed if h is not None}, (name, x.name)
            tried += 1
    assert tried >= {"catalogue": 19, "cyclic": 6, "mutants": 30}[group]


@pytest.mark.parametrize("group", ("catalogue", "cyclic", "mutants"))
def test_table_domains_list_no_key_twice(group):
    """check_tables checks only the values of a total row with as many keys
    as its domain, which is sound only if no domain lists a key twice: the
    required pre, post and sub keys, the skew j domain and the composable
    pairs of the base, on every structure of the group and on the
    plain-as-skew view of each plain one."""
    tried = 0
    for name, m in _structures(group):
        views = (m, m.as_skew) if isinstance(m, ShortMulticategory) else (m,)
        for x in views:
            pre, post, cases = x.domains
            domains = {"pre": list(pre), "post": list(post),
                       "sub": [key for case in cases for key in case[3]],
                       "comp": list(fincat.composable_pairs(x.base))}
            if isinstance(x, ShortSkewMulticategory):
                domains["j"] = list(x.multimaps(TIGHT, 1) + x.multimaps(TIGHT, 2))
            for label, keys in domains.items():
                assert len(set(keys)) == len(keys), (name, x.name, label)
            tried += 1
    assert tried >= {"catalogue": 19, "cyclic": 9, "mutants": 72}[group]


# --------------------------------------------------------------------------
# the other validators: one list of inputs per validator
# --------------------------------------------------------------------------

def _cyclic_of(kind):
    for n in (2, 3, 4):
        for sf in _cyclic_files(n):
            if sf.kind == kind:
                yield sf.name, sf.payload


def _mutants_of(kind):
    return [(mut.name, mut.payload) for mut in catalogue_mutants() if mut.kind == kind]


def _skew_monoidals():
    yield from catalogue_skew_monoidals().items()
    yield from _cyclic_of("skew-monoidal")
    yield from _mutants_of("skew-monoidal")
    yield from ((name, mon) for name, (mon, _) in _mutants_of("braiding"))
    mon = monoid_skew_monoidal(z2_monoid())
    yield from _redirects(mon, ("alpha", "lam", "rho", "tensor_mor"),
                          lambda cur: [x for x in mon.base.morphisms() if x != cur], None)
    yield from _redirects(mon, ("tensor_obj",),
                          lambda cur: [o for o in mon.base.objects if o != cur], None)
    # BZ/2, the one base with parallel morphisms, and its redirects
    bz2 = bz2_category()
    yield bz2.name, bz2
    yield from ((f"{bz2.name}.{label}", c) for label, c in _redirects(
        bz2, ("alpha", "lam", "rho", "tensor_mor"),
        lambda cur: [x for x in bz2.base.morphisms() if x != cur], None))


def _braidings():
    yield from catalogue_braidings(catalogue_skew_monoidals()).items()
    yield from _cyclic_of("braiding")
    yield from _mutants_of("braiding")
    mon, braid = catalogue_braidings(catalogue_skew_monoidals())["z2.sym"]
    for label, redirected in _redirects(
            braid, ("s", "s_inv"), lambda cur: [x for x in mon.base.morphisms() if x != cur], None):
        yield label, (mon, redirected)
    # BZ/2, whose hom-set holds two parallel morphisms: s = e validates and
    # s = g fails braid-alpha-right and braid-alpha-left
    bz2 = bz2_category()
    for x in ("e", "g"):
        name = f"bz2.s={x}"
        yield name, (bz2, Braiding(name, {("o", "o", "o"): x}, {("o", "o", "o"): x}))


def _unit_moves(t):
    """t with its functor's obj_map sending the source unit i to each other
    object: the only inputs with F i != i', so the only ones on which the
    f0-typing pair (i', F i) reads differently from (F i, i')."""
    fun, i = t.functor, t.source.unit
    for x in t.target.base.objects:
        if x != fun.obj_map[i]:
            moved = dataclasses.replace(fun, obj_map={**fun.obj_map, i: x})
            yield f"obj_map[{i}]->{x}", dataclasses.replace(t, functor=moved)


def _lax_redirects():
    """Every single-entry redirect of the identity lax functor on z2.mon."""
    t = identity_lax_functor(catalogue_skew_monoidals()["z2.mon"])
    others = [x for x in t.target.base.morphisms() if x != t.f0]
    yield from ((f"f0->{x}", dataclasses.replace(t, f0=x)) for x in others)
    yield from _redirects(t, ("f2",),
                          lambda cur: [x for x in t.target.base.morphisms() if x != cur], None)
    yield from _unit_moves(t)


def _skew_closeds():
    yield from catalogue_skew_closed().items()
    yield from _mutants_of("skew-closed")
    cl = heyting2_skew_closed()
    yield from _redirects(cl, ("hom_mor", "iu", "ju", "ell"),
                          lambda cur: [x for x in cl.base.morphisms() if x != cur], None)
    # the closed structures of Z/2, the Klein group and Z/3: [a, b] is b - a,
    # so [a, a] = i differs from [a, i] when a is not i
    skews = catalogue_short_skews()
    for name in ("z2.skew", "klein.skew", "z3.skew"):
        cert = certify(skews[name])
        c = kcl_object(skews[name], cert, find_closed_structure(skews[name], cert))
        yield c.name, c


def _identity_closed_functor(c):
    return SkewClosedFunctor(f"id[{c.name}]", c, c, identity_functor(c.base),
                             c.base.identity(c.unit),
                             {key: c.base.identity(h) for key, h in c.hom_obj.items()})


def _short_braidings():
    yield from catalogue_short_braidings().items()
    yield from _cyclic_of("short-skew")
    m, beta = catalogue_short_braidings()["z2.beta"]
    for tag, arity in (("b32", 3), ("b42", 4), ("b43", 4)):
        for label, redirected in _redirects(
                beta, (tag,), lambda cur: [x for x in m.multimaps(TIGHT, arity) if x != cur],
                None):
            yield label, (m, redirected)


def _morphisms():
    yield from catalogue_morphisms().items()
    for name, m in list(_cyclic_of("short-multi")) + _mutants_of("short-multi"):
        yield f"id[{name}]", identity_multi_morphism(m)
    F = catalogue_morphisms()["z2-into-klein"]
    for n, table in F.maps.items():
        for f in sorted(table):
            for other in [x for x in F.target.multimaps(n) if x != table[f]][:1]:
                yield f"z2-into-klein[{f}]", dataclasses.replace(
                    F, maps={**F.maps, n: {**table, f: other}})


def _skew_morphisms():
    for name, F in catalogue_morphisms().items():
        yield name, embed_multi_morphism(F, F.source.as_skew, F.target.as_skew)
    skews = list(catalogue_short_skews().items()) + _mutants_of("short-skew")
    skews += [(name, m) for name, (m, _) in _cyclic_of("short-skew")]
    for name, m in skews:
        yield f"id[{name}]", identity_skew_morphism(m)
    # a loose binary image redirected to a tight-only binary map of its type
    F = identity_skew_morphism(poset2_first_short_skew())
    tight, loose = F.source.tight[2], F.source.loose[2]
    for key, fs in loose.items():
        for f in fs:
            for other in [g for g in tight.get(key, ()) if g not in fs]:
                yield f"{F.name}.l2[{f}]->{other}", dataclasses.replace(
                    F, loose_maps={**F.loose_maps, 2: {**F.loose_maps[2], f: other}})


def _braided_transports():
    data = {}
    for key, (sk, beta) in catalogue_short_braidings().items():
        cert = certify(sk)
        data[key.split(".")[0]] = (sk, beta, cert, ks_object(sk, cert))
    klein = data["klein"][0]
    cases = [("id[klein]", identity_skew_morphism(klein), "klein", "klein")]
    ms = catalogue_morphisms()
    for name, s, t in (("klein-swap", "klein", "klein"), ("z2-into-klein", "z2", "klein"),
                       ("z2-collapse", "z2", "terminal")):
        cases.append((name, embed_multi_morphism(ms[name], data[s][0], data[t][0]), s, t))
    identity = cases[0][1]
    for n in (3, 4):  # a ternary edit fails preservation, a quaternary one alone raises
        table = dict(identity.tight_maps[n])
        key = sorted(table)[0]
        table[key] = next(f for f in klein.multimaps(TIGHT, n) if f != table[key])
        cases.append((f"id[klein].t{n}[{key}]", dataclasses.replace(
            identity, tight_maps={**identity.tight_maps, n: table}), "klein", "klein"))
    for label, F, s, t in cases:
        yield label, (F, data[s][1], data[t][1], data[s][2], data[t][2], data[s][3], data[t][3])


# Hand-built inputs where a table that is not total meets a dangling value
# that an instance check would trip over first: the totality error wins.

def _morphism_totality_and_dangling():
    F = catalogue_morphisms()["z2-into-klein"]
    maps = {n: dict(t) for n, t in F.maps.items()}
    maps[2][sorted(maps[2])[0]] = "no-such-map"
    del maps[4][sorted(maps[4])[-1]]
    return dataclasses.replace(F, maps=maps)


def _lax_totality_and_dangling():
    c = monoid_skew_monoidal(z2_monoid())
    t = identity_lax_functor(c)
    src = dataclasses.replace(c, tensor_obj={**c.tensor_obj, ("0", "0"): "no-such-object"})
    f2 = dict(t.f2)
    del f2[sorted(f2)[-1]]
    return dataclasses.replace(t, source=src, f2=f2)


def _closed_functor_totality_and_dangling():
    c = heyting2_skew_closed()
    t = _identity_closed_functor(c)
    fh = dict(t.fh)
    del fh[sorted(fh)[-1]]
    return dataclasses.replace(t, source=dataclasses.replace(c, unit="no-such-object"), fh=fh)


def _short_braiding_totality_and_dangling():
    m, beta = catalogue_short_braidings()["z2.beta"]
    b32 = {**beta.b32, sorted(beta.b32)[0]: "no-such-map"}
    b43 = dict(beta.b43)
    del b43[sorted(b43)[-1]]
    return m, ShortBraiding(beta.name, b32, dict(beta.b42), b43)


HAND_BUILT = "totality-and-dangling"


def _validator_inputs(name):
    """(label, arguments) for every input the validator is compared on."""
    if name == "validate_category":
        structures = (list(catalogue_short_multis().items()) + list(catalogue_short_skews().items())
                      + list(_skew_monoidals()) + list(_skew_closeds())
                      + list(_structures("cyclic")) + list(_structures("mutants")))
        comp_redirects = [(f"{c.name}.{label}", x) for c in (poset2_base(), bz2_category().base)
                          for label, x in _redirects(
                              c, ("comp",), lambda cur, c=c: [f for f in c.morphisms() if f != cur],
                              None)]
        return ([(n, (x.base,)) for n, x in structures]
                + [(n, (x,)) for n, x in _mutants_of("category") + comp_redirects])
    if name == "validate_functor":
        functors = ([(n, F.functor) for n, F in list(_morphisms()) + list(_skew_morphisms())]
                    + [(n, t.functor) for n, (t,) in _validator_inputs("validate_lax_functor")])
        for n in ("z2-into-klein", "klein-onto-z2"):
            fun = catalogue_morphisms()[n].functor
            functors += _redirects(
                fun, ("mor_map",), lambda cur: [x for x in fun.target.morphisms() if x != cur])
        # on a base with a morphism le: 0 -> 1, where a functor-span failure
        # has a != b
        poset = identity_functor(poset2_base())
        functors += _redirects(
            poset, ("mor_map",), lambda cur: [x for x in poset.target.morphisms() if x != cur],
            None)
        return [(f"{n}.functor", (fun,)) for n, fun in functors]
    if name == "validate_skew_monoidal":
        return [(n, (c,)) for n, c in _skew_monoidals()]
    if name == "validate_lax_functor":
        ms = catalogue_short_multis()
        certs = {n: certify(m) for n, m in ms.items()}
        mons = {n: k_object(m, certs[n]) for n, m in ms.items()}
        return ([(f"id[{n}]", (identity_lax_functor(c),)) for n, c in _skew_monoidals()]
                + [(n, (k_morphism(F, certs[F.source.name], certs[F.target.name],
                                   mons[F.source.name], mons[F.target.name]),))
                   for n, F in catalogue_morphisms().items()]
                + [(n, (t,)) for n, t in _lax_redirects()]
                + [(HAND_BUILT, (_lax_totality_and_dangling(),))])
    if name == "validate_braiding":
        return list(_braidings())
    if name == "validate_braided_functor":
        return [(n, (identity_lax_functor(c), b, b)) for n, (c, b) in _braidings()]
    if name == "validate_skew_closed":
        return [(n, (c,)) for n, c in _skew_closeds()]
    if name == "validate_skew_closed_functor":
        sk = catalogue_short_skews()["heyting2.skew"]
        cert = certify(sk)
        homs = find_closed_structure(sk, cert)
        cl = kcl_object(sk, cert, homs)
        kcl = kcl_morphism(identity_skew_morphism(sk), homs, homs, cert, cert, cl, cl)
        return ([(f"id[{n}]", (_identity_closed_functor(c),)) for n, c in _skew_closeds()]
                + [(n, (t,)) for n, t in _unit_moves(_identity_closed_functor(
                    heyting2_skew_closed()))]
                + [("kcl[id[heyting2.skew]]", (kcl,)),
                   (HAND_BUILT, (_closed_functor_totality_and_dangling(),))])
    if name == "validate_short_braiding":
        return list(_short_braidings()) + [(HAND_BUILT, _short_braiding_totality_and_dangling())]
    if name == "validate_braided_transport_functor":
        return list(_braided_transports())
    if name == "validate_multi_morphism":
        return ([(n, (F,)) for n, F in _morphisms()]
                + [(HAND_BUILT, (_morphism_totality_and_dangling(),))])
    assert name == "validate_skew_multi_morphism"
    F = _morphism_totality_and_dangling()
    return ([(n, (F,)) for n, F in _skew_morphisms()]
            + [(HAND_BUILT, (embed_multi_morphism(F, F.source.as_skew, F.target.as_skew),))])


VALIDATORS = {
    "validate_category": fincat, "validate_functor": fincat,
    "validate_skew_monoidal": skewmon, "validate_lax_functor": skewmon,
    "validate_braiding": skewmon, "validate_braided_functor": skewmon,
    "validate_skew_closed": skewmon, "validate_skew_closed_functor": skewmon,
    "validate_short_braiding": braiding, "validate_braided_transport_functor": braiding,
    "validate_multi_morphism": shortmulti, "validate_skew_multi_morphism": shortskew,
}


# the law side of the validators whose arguments _law_report does not take
LAW_SIDE = {"validate_braided_functor": lambda t, s_src, s_tgt: _law_report(t, (s_src, s_tgt)),
            "validate_braided_transport_functor": _law_braided_transport}


@pytest.mark.parametrize("name", sorted(VALIDATORS))
def test_validator_matches_reference(name):
    validate = getattr(VALIDATORS[name], name)
    reference = LAW_SIDE.get(name, _law_report)
    tried, failing, differ = 0, 0, []
    for label, args in _validator_inputs(name):
        want = _outcome(reference, *args)
        if _outcome(validate, *args) != want:
            differ.append(label)
        if label == HAND_BUILT:
            assert isinstance(want, tuple) and want[0].__name__ == "MalformedTable", want
        failing += not isinstance(want, str) or "status FAIL" in want
        tried += 1
    assert not differ, differ
    assert tried >= 4 and failing >= 1, (tried, failing)


def _index_inputs():
    """The catalogue structures, Z/2..Z/4 in both kinds, the skew induction
    of each catalogue skew monoidal category, BZ/2 (whose hom-set holds two
    parallel morphisms) in both kinds, and copies with one table emptied."""
    yield from catalogue_short_multis().items()
    yield from catalogue_short_skews().items()
    for n in (2, 3, 4):
        yield from _cyclic(n)
    for name, c in catalogue_skew_monoidals().items():
        yield f"{name}.induced", induce_short_skew(c)
    yield "bz2", induce_short_multi(bz2_category())
    yield "bz2.skew", induce_short_skew(bz2_category())
    m = catalogue_short_multis()["z2"]
    yield "z2 without nullaries", dataclasses.replace(m, maps={**m.maps, 0: {}})
    s = poset2_first_short_skew()
    yield "poset2-first without loose nullaries", dataclasses.replace(s, loose={**s.loose, 0: {}})


def _raw_tables(m):
    """Each multimap table of m by head, read from the dataclass fields: a
    head is the arity, after the flavour in a skew structure, and the base
    hom-sets are the (tight) unary table."""
    homs = {((a,), b): fs for (a, b), fs in m.base.homs.items()}
    if isinstance(m, ShortMulticategory):
        return {(1,): homs, **{(n,): m.maps.get(n, {}) for n in (0, 2, 3, 4)}}
    return {(TIGHT, 1): homs, **{(TIGHT, n): m.tight.get(n, {}) for n in (2, 3, 4)},
            **{(LOOSE, n): m.loose.get(n, {}) for n in (0, 1, 2)}}


def test_adjacency_matches_its_definition():
    """The cached adjacency and the multimap index equal sorting and
    filtering the dataclass fields: multimaps are the sorted ids of a head's
    table, maps_into concatenates its sets of one codomain in key order,
    mapset reads one set, mapset_keys sorts the keys and _by_dom lists, for
    each domain, the codomains of its non-empty sets in base-object order."""
    tried = 0
    for name, m in _index_inputs():
        base = m.base
        assert base.morphisms() == tuple(sorted(base._span)), name
        for a in base.objects:
            assert base._adjacency[1][a] == tuple(sorted(
                f for f, (_, c) in base._span.items() if c == a)), name
            assert base.mors_out_of(a) == tuple(sorted(
                f for f, (d, _) in base._span.items() if d == a)), name
        for head, table in _raw_tables(m).items():
            keys = sorted(table)
            assert m.multimaps(*head) == tuple(sorted(f for fs in table.values() for f in fs)), name
            assert m.mapset_keys(*head) == keys, (name, head)
            for dom, cod in keys:
                assert m.mapset(*head, dom, cod) == table[dom, cod], (name, head, dom, cod)
            assert m.mapset(*head, (base.objects[0],) * head[-1], "nowhere") == (), (name, head)
            for x in base.objects:
                assert m.maps_into(*head, x) == tuple(
                    f for dom, cod in keys if cod == x for f in table[dom, cod]), (name, head, x)
            doms = {dom for dom, cod in keys if table[dom, cod]}
            assert m._by_dom.get(head, {}) == {dom: tuple(
                x for x in base.objects if table.get((dom, x))) for dom in doms}, (name, head)
        tried += 1
    assert tried == 6 + 7 + 6 + 7 + 2 + 2, tried


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
