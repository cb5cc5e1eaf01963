"""Copies of former package code, kept as the reference that the tests
compare the package against. It holds no validator: tests/laws.py writes
the laws of all fourteen validators from the papers, and
tests/test_kernel.py compares each validator with it. The former copies
enumerated through the package's own index and lookups, and one of them
copied the pre-post quirk, so a differential with them could not see
that quirk. Mutation studies of the package cleared the retirement of
every validator copy, of its helpers and of the former routing
(lookup_tables, safe_pre, safe_post and safe_subst), whose place the law
table's routing takes: the law-table differential killed every mutant
that a copy's differential killed. The same rule retired the former
serializer, structure checks and parser, which tests/test_ingest.py now
checks against docs/format.md, the former right_adjoint_witness, for
which tests/test_skewmon.py states the definition of a right adjoint, and
the former transfer-row pre-check, whose rows tests/test_transport.py
checks against validation instance by instance.

The helpers come first: hm_right, the hom accessor the former closed
induction reads through, and the former enumeration and typing helpers
(sub_pairs, the required keys, sub_case and the expected skew sub type),
so the reference does not enumerate through the code it checks.

Then comes the package's former plain induction, induce_short_multi,
which tabulated the plain structure itself instead of reading it off the
skew one. It took the unit inverses from a field of skewmon.Flavour that
is gone; here it computes them with is_iso. The former skew builders
follow it: the thin table_short_skew and both skew inductions, each of
which typed its j, pre, post and sub entries in its own loops;
tests/test_induce.py compares shortskew.build, which all three now go
through, with them table for table.

The file ends with the former certification searches of classify.py,
which wrote out each bijection scan by hand and ran every classifier search
twice (first hit, then all hits); tests/test_classify.py compares the
package's single scan helper and single search pass with them. They build
the package's certificate dataclasses, so cli.render_certificate reads both.
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Iterator, Optional

from shortcat.classify import (
    Certificate, DerivedClassifier, Inverses, Structure, Universal, skew_view,
)
from shortcat.errors import MalformedTable, UniversalityBroken
from shortcat.fincat import FinCategory
from shortcat.induce import _Bracketer, _Currier
from shortcat.shortmulti import STORED_CASES, ShortMulticategory
from shortcat.shortskew import (
    LOOSE, STORED_SKEW_CASES, TIGHT, ShortSkewMulticategory, sub_flavour,
)
from shortcat.skewmon import SkewClosedCategory, SkewMonCategory

# --------------------------------------------------------------------------
# the one hom accessor the former closed induction reads through
# --------------------------------------------------------------------------

def hm_right(c: SkewClosedCategory, b: str, g: str) -> Optional[str]:
    return c.hm(c.base.identity(b), g)

# --------------------------------------------------------------------------
# enumeration and typing helpers
# --------------------------------------------------------------------------
# The former helpers that induce_short_multi and the skew builders below
# call: _sub_pairs of shortmulti.py, expected_skew_sub_type of
# shortskew.py, and the former methods inner_into, sub_pairs,
# required_pre_keys, required_post_keys, required_sub_keys and sub_case
# (which searched the flavours of both ids in sorted order), taking the
# structure as `self` or `m`. Each body is verbatim
# (required_sub_keys holds the bodies of both classes), so the reference
# enumerates the substitution pairs and the required keys on its own and a
# slip in the package's enumeration shows as a difference.

def _sub_pairs(m: ShortMulticategory, n: int, k: int) -> Iterator[tuple[str, int, str]]:
    """All composable (g, i, f) with arity(g)=n, arity(f)=k."""
    for g in m.multimaps(n):
        dom = m.dom(g)
        for i in range(1, n + 1):
            for f in m.maps_into(k, dom[i - 1]):
                yield g, i, f


def inner_into(self, flavour: str, k: int, cod: str) -> tuple[str, ...]:
    """maps_into without the loose unary ids that are base morphisms:
    substituting one routes through the pre-action."""
    fs = self.maps_into(flavour, k, cod)
    if k == 1 and flavour == LOOSE:
        return tuple(f for f in fs if f not in self.base._span)
    return fs


def sub_pairs(self, case: tuple[int, str, int, str]) -> Iterator[tuple[str, int, str]]:
    n, x, k, y = case
    for g in self.multimaps(x, n):
        if n == 1 and self.is_tight(g):
            continue  # shared id: substitution into it routes through post-action
        dom = self.dom(g)
        for i in range(1, n + 1):
            yield from ((g, i, f) for f in inner_into(self, y, k, dom[i - 1]))


def required_pre_keys(self) -> Iterator[tuple[str, int, str]]:
    idx, into = self._index, self.base._adjacency[1]
    for n, f in self.table_maps:
        dom = idx[f][1]
        for i in range(1, n + 1):
            for p in into.get(dom[i - 1], ()):
                yield (f, i, p)


def required_post_keys(self) -> Iterator[tuple[str, str]]:
    idx, out_of = self._index, self.base._adjacency[2]
    for _, f in self.table_maps:
        for q in out_of.get(idx[f][2], ()):
            yield (q, f)


def required_sub_keys(self) -> Iterator[tuple[str, int, str]]:
    if isinstance(self, ShortSkewMulticategory):
        for case in sorted(STORED_SKEW_CASES):
            yield from sub_pairs(self, case)
    else:
        for (n, k) in sorted(STORED_CASES):
            yield from _sub_pairs(self, n, k)


def sub_case(m: ShortSkewMulticategory, g: str, i: int, f: str) -> Optional[tuple[int, str, int, str]]:
    """The stored-case descriptor for (g, i, f), or None."""
    ng, _, _, flg = m.info(g)
    nf, _, _, flf = m.info(f)
    for x in sorted(flg):
        for y in sorted(flf):
            case = (ng, x, nf, y)
            if case in STORED_SKEW_CASES:
                return case
    return None


def expected_skew_sub_type(m: ShortSkewMulticategory, g: str, i: int, f: str,
                           case: tuple[int, str, int, str]) -> tuple[int, tuple[str, ...], str, str]:
    n, x, k, y = case
    gdom, gcod = m.dom(g), m.cod(g)
    dom = gdom[:i - 1] + m.dom(f) + gdom[i:]
    return (n + k - 1, dom, gcod, sub_flavour(x, i, y))


# --------------------------------------------------------------------------
# the former plain induction
# --------------------------------------------------------------------------

def induce_short_multi(c: SkewMonCategory, name: Optional[str] = None) -> ShortMulticategory:
    """The plain induced structure, available when the left unit map is
    invertible: nullary maps are morphisms out of the unit, substituting a
    nullary map into the leading slot uses the unit inverse."""
    lam_inv = {a: c.base.is_iso(c.lam[a]) for a in c.base.objects}
    if None in lam_inv.values():
        raise MalformedTable(f"{c.name}: plain induction needs an invertible left unit map")
    br = _Bracketer(c)
    base = c.base
    name = name or (c.name + ".induced")

    maps: dict[int, dict] = {n: {} for n in (0, 2, 3, 4)}
    under: dict[str, str] = {}
    wrap_of: dict[tuple, str] = {}
    for n in (0, 1, 2, 3, 4):
        for dom in itertools.product(base.objects, repeat=n):
            for cod in base.objects:
                prod = br.lbr(dom) if n else c.unit
                fs = []
                for f in base.hom(prod, cod):
                    w = f if n == 1 else _wrap("m", n, dom, cod, f)
                    fs.append(w)
                    under[w] = f
                    wrap_of[(n, dom, cod, f)] = w
                if fs and n != 1:
                    maps[n][(dom, cod)] = tuple(sorted(fs))

    def rewrap(n, dom, cod, f):
        try:
            return wrap_of[(n, dom, cod, f)]
        except KeyError:
            raise MalformedTable(f"{name}: induced map {f} missing from m{n}{dom};{cod}")

    skeleton = ShortMulticategory(name, base, maps, {}, {}, {})
    pre = {}
    for (f, i, p) in required_pre_keys(skeleton):
        n, dom, cod = skeleton.info(f)
        newdom = dom[:i - 1] + (base.dom(p),) + dom[i:]
        pre[(f, i, p)] = rewrap(n, newdom, cod,
                                base.compose(under[f], br.slot_mor(newdom, i, p)))
    post = {}
    for (q, f) in required_post_keys(skeleton):
        n, dom, _ = skeleton.info(f)
        post[(q, f)] = rewrap(n, dom, base.cod(q), base.compose(q, under[f]))

    sub = {}
    for (g, i, f) in required_sub_keys(skeleton):
        ng, gdom, gcod = skeleton.info(g)
        nf, fdom, _ = skeleton.info(f)
        prefix, suffix = gdom[:i - 1], gdom[i:]
        if not prefix:
            if nf == 0:
                # use the unit inverse to grow the leading unit factor
                if not suffix:
                    raise MalformedTable(f"{name}: nullary into unary slot")
                grow = br.lbr_mor([lam_inv[suffix[0]]]
                                  + [base.identity(o) for o in suffix[1:]])
                feed = br.lbr_mor([under[f]] + [base.identity(o) for o in suffix])
                result = base.compose(under[g], base.compose(feed, grow))
                sub[(g, i, f)] = rewrap(ng - 1, suffix, gcod, result)
                continue
            gamma = under[f]
        else:
            gamma = br.gamma(prefix, under[f], fdom, nf == 0, gdom[i - 1])
        ext = gamma
        for sobj in suffix:
            ext = br.c.tm_left(ext, sobj)
        result = base.compose(under[g], ext)
        newdom = gdom[:i - 1] + fdom + gdom[i:]
        sub[(g, i, f)] = rewrap(ng + nf - 1, newdom, gcod, result)

    return ShortMulticategory(name, base, maps, pre, post, sub)


# --------------------------------------------------------------------------
# the former skew builders
# --------------------------------------------------------------------------
# The former thin builder table_short_skew of catalogue.py and the former
# _tabulate, induce_short_skew and induce_closed_skew of induce.py, each of
# which typed the j, pre, post and sub entries in its own loops. The bodies
# are verbatim, with two edits: the required keys, sub_case and
# expected_skew_sub_type come from the reference helpers in this file, and
# _wrap, _tmm and _lmm are the former naming helpers, copied here.

def _wrap(flavour: str, n: int, dom: tuple[str, ...], cod: str, f: str) -> str:
    return f"{flavour}{n}({','.join(dom)};{cod})#{f}"


def _tmm(n: int, dom: tuple[str, ...], cod: str) -> str:
    return f"t{n}({','.join(dom)};{cod})"


def _lmm(n: int, dom: tuple[str, ...], cod: str) -> str:
    return f"l{n}({','.join(dom)};{cod})"


def table_short_skew(name: str, base: FinCategory,
                     tight_inhabited: Callable[[int, tuple[str, ...], str], bool],
                     loose_inhabited: Callable[[int, tuple[str, ...], str], bool]
                     ) -> ShortSkewMulticategory:
    """Build a thin short skew multicategory from inhabitation predicates.

    Requires tight sets to map into loose ones (j must exist) and both
    predicates to be closed under the typed substitutions.
    """
    objs = base.objects
    tight: dict[int, dict] = {n: {} for n in (2, 3, 4)}
    loose: dict[int, dict] = {n: {} for n in (0, 1, 2)}
    for n in (2, 3, 4):
        for dom in itertools.product(objs, repeat=n):
            for cod in objs:
                if tight_inhabited(n, dom, cod):
                    tight[n][(dom, cod)] = (_tmm(n, dom, cod),)
    for n in (0, 1, 2):
        for dom in itertools.product(objs, repeat=n):
            for cod in objs:
                if loose_inhabited(n, dom, cod):
                    loose[n][(dom, cod)] = (_lmm(n, dom, cod),)

    def the(flavour: str, n: int, dom: tuple[str, ...], cod: str) -> str:
        if flavour == TIGHT and n == 1:
            fs = base.hom(dom[0], cod)
        elif flavour == TIGHT:
            fs = tight[n].get((dom, cod), ())
        else:
            fs = loose[n].get((dom, cod), ())
        if len(fs) != 1:
            raise MalformedTable(f"{name}: expected a unique {flavour}{n} multimap "
                                 f"{dom};{cod}, found {len(fs)}")
        return fs[0]

    j = {}
    for f in base.morphisms():
        a, b = base.span(f)
        j[f] = the(LOOSE, 1, (a,), b)
    for (dom, cod), fs in tight[2].items():
        j[fs[0]] = the(LOOSE, 2, dom, cod)

    skeleton = ShortSkewMulticategory(name, base, tight, loose, j, {}, {}, {})
    pre = {}
    for (f, i, p) in required_pre_keys(skeleton):
        n, dom, cod, fl = skeleton.info(f)
        flavour = TIGHT if TIGHT in fl else LOOSE
        pre[(f, i, p)] = the(flavour, n, dom[:i - 1] + (base.dom(p),) + dom[i:], cod)
    post = {}
    for (q, f) in required_post_keys(skeleton):
        n, dom, _, fl = skeleton.info(f)
        flavour = TIGHT if TIGHT in fl else LOOSE
        post[(q, f)] = the(flavour, n, dom, base.cod(q))
    sub = {}
    for (g, i, f) in required_sub_keys(skeleton):
        case = sub_case(skeleton, g, i, f)
        n, dom, cod, flavour = expected_skew_sub_type(skeleton, g, i, f, case)
        sub[(g, i, f)] = the(flavour, n, dom, cod)
    return ShortSkewMulticategory(name, base, tight, loose, j, pre, post, sub)


def _tabulate(name: str, base: FinCategory,
              span: Callable[[str, tuple[str, ...], str], tuple[str, str]]):
    """The tables of an induced structure whose tight (arities 1-4) and loose
    (arities 0-2) maps (dom; cod) are the base morphisms source -> target,
    (source, target) = span(flavour, dom, cod).

    Returns a skeleton with those tables and no j or action entries, the
    underlying morphism of every map, and rewrap, which names the map of a
    type whose underlying morphism is f."""
    tables = {TIGHT: {}, LOOSE: {}}
    under: dict[str, str] = {}
    wrap_of: dict[tuple, str] = {}
    for flavour, arities in ((TIGHT, (1, 2, 3, 4)), (LOOSE, (0, 1, 2))):
        for n in arities:
            table = tables[flavour][n] = {}
            for dom in itertools.product(base.objects, repeat=n):
                for cod in base.objects:
                    fs = []
                    for f in base.hom(*span(flavour, dom, cod)):
                        w = f if (flavour == TIGHT and n == 1) else _wrap(flavour, n, dom, cod, f)
                        fs.append(w)
                        under[w] = f
                        wrap_of[(flavour, n, dom, cod, f)] = w
                    if fs:
                        table[(dom, cod)] = tuple(sorted(fs))

    def rewrap(flavour: str, n: int, dom: tuple[str, ...], cod: str, f: str) -> str:
        try:
            return wrap_of[(flavour, n, dom, cod, f)]
        except KeyError:
            raise MalformedTable(f"{name}: induced map {f} missing from {flavour}{n}{dom};{cod}")

    skeleton = ShortSkewMulticategory(
        name, base, {n: tables[TIGHT][n] for n in (2, 3, 4)}, tables[LOOSE],
        j={}, pre={}, post={}, sub={})
    return skeleton, under, rewrap


def induce_short_skew(c: SkewMonCategory, name: Optional[str] = None) -> ShortSkewMulticategory:
    """The short skew multicategory of a skew monoidal category: tight maps
    out of left-bracketed products, loose maps with a leading unit factor,
    j given by the left unit map."""
    br = _Bracketer(c)
    base = c.base
    skeleton, under, rewrap = _tabulate(
        name or (c.name + ".induced"), base,
        lambda flavour, dom, cod: (br.lbr((c.unit,) + dom if flavour == LOOSE else dom), cod))

    j: dict[str, str] = {}
    for n in (1, 2):
        for f in skeleton.multimaps(TIGHT, n):
            dom, cod = skeleton.dom(f), skeleton.cod(f)
            lam_slot = br.lbr_mor([c.lam[dom[0]]] + [base.identity(o) for o in dom[1:]])
            j[f] = rewrap(LOOSE, n, dom, cod, base.compose(under[f], lam_slot))

    def front(f: str) -> tuple[str, ...]:
        return (c.unit,) if skeleton.is_loose(f) and not skeleton.is_tight(f) else ()

    pre = {}
    for (f, i, p) in required_pre_keys(skeleton):
        n, dom, cod, fl = skeleton.info(f)
        flavour = LOOSE if LOOSE in fl else TIGHT
        full = front(f) + dom
        slot = i + len(front(f))
        newdom = dom[:i - 1] + (base.dom(p),) + dom[i:]
        pre[(f, i, p)] = rewrap(flavour, n, newdom, cod,
                                base.compose(under[f], br.slot_mor(
                                    full[:slot - 1] + (base.dom(p),) + full[slot:], slot, p)))
    post = {}
    for (q, f) in required_post_keys(skeleton):
        n, dom, _, fl = skeleton.info(f)
        flavour = LOOSE if LOOSE in fl else TIGHT
        post[(q, f)] = rewrap(flavour, n, dom, base.cod(q), base.compose(q, under[f]))

    sub = {}
    for (g, i, f) in required_sub_keys(skeleton):
        case = sub_case(skeleton, g, i, f)
        ng, x, nf, y = case
        gdom, gcod = skeleton.dom(g), skeleton.cod(g)
        fdom = skeleton.dom(f)
        blist = ((c.unit,) if x == LOOSE else ()) + gdom
        idx = (1 if x == LOOSE else 0) + i - 1
        prefix, suffix = blist[:idx], blist[idx + 1:]
        ext = br.gamma(prefix, under[f], fdom, y == LOOSE, blist[idx]) if prefix else under[f]
        for sobj in suffix:
            ext = c.tm_left(ext, sobj)
        result = base.compose(under[g], ext)
        flavour = sub_flavour(x, i, y)
        newdom = gdom[:i - 1] + fdom + gdom[i:]
        sub[(g, i, f)] = rewrap(flavour, ng + nf - 1, newdom, gcod, result)

    return replace(skeleton, j=j, pre=pre, post=post, sub=sub)


def induce_closed_skew(x: SkewClosedCategory, name: Optional[str] = None) -> ShortSkewMulticategory:
    """The closed short skew multicategory of a skew closed category: tight
    n-ary maps (a1,...,an;b) are morphisms a1 -> [a2,...[an,b]], loose ones
    are morphisms out of the unit into the full curried hom."""
    c = x
    base = c.base
    cur = _Currier(c)

    def span(flavour: str, dom: tuple[str, ...], cod: str) -> tuple[str, str]:
        if flavour == TIGHT:
            return dom[0], cur.curry(dom[1:], cod)
        return c.unit, cur.curry(dom, cod)

    skeleton, under, rewrap = _tabulate(name or (c.name + ".induced"), base, span)

    j: dict[str, str] = {}
    for n in (1, 2):
        for f in skeleton.multimaps(TIGHT, n):
            dom, cod = skeleton.dom(f), skeleton.cod(f)
            a1 = dom[0]
            lifted = base.compose(hm_right(c, a1, under[f]), c.ju[a1])
            j[f] = rewrap(LOOSE, n, dom, cod, lifted)

    def pre_action(f: str, i: int, p: str) -> str:
        _, dom, cod, fl = skeleton.info(f)
        loose = LOOSE in fl and TIGHT not in fl
        if not loose and i == 1:
            return base.compose(under[f], p)
        before = dom[:i - 1] if loose else dom[1:i - 1]
        rest = cur.curry(dom[i:], cod)
        action = c.hm(p, base.identity(rest))
        return base.compose(cur.nest(before, action), under[f])

    pre = {}
    for (f, i, p) in required_pre_keys(skeleton):
        n, dom, cod, fl = skeleton.info(f)
        flavour = LOOSE if (LOOSE in fl and TIGHT not in fl) else TIGHT
        newdom = dom[:i - 1] + (base.dom(p),) + dom[i:]
        pre[(f, i, p)] = rewrap(flavour, n, newdom, cod, pre_action(f, i, p))

    post = {}
    for (q, f) in required_post_keys(skeleton):
        n, dom, _, fl = skeleton.info(f)
        flavour = LOOSE if (LOOSE in fl and TIGHT not in fl) else TIGHT
        layers = dom[1:] if flavour == TIGHT else dom
        post[(q, f)] = rewrap(flavour, n, dom, base.cod(q),
                              base.compose(cur.nest(layers, q), under[f]))

    sub = {}
    for (g, i, f) in required_sub_keys(skeleton):
        case = sub_case(skeleton, g, i, f)
        ng, xfl, nf, yfl = case
        gdom, gcod = skeleton.dom(g), skeleton.cod(g)
        fdom = skeleton.dom(f)
        flavour = sub_flavour(xfl, i, yfl)
        newdom = gdom[:i - 1] + fdom + gdom[i:]
        tail = cur.curry(gdom[i:], gcod)
        if xfl == TIGHT and i == 1:
            # feed the whole consumer through the inner map's codomain layer
            lifted = cur.nest(fdom[1:] if yfl == TIGHT else fdom, under[g])
            result = base.compose(lifted, under[f])
        else:
            outer_layers = gdom[1:i - 1] if xfl == TIGHT else gdom[:i - 1]
            action = cur.sub_map(under[f], fdom, yfl == LOOSE, gdom[i - 1], tail)
            result = base.compose(cur.nest(outer_layers, action), under[g])
        sub[(g, i, f)] = rewrap(flavour, ng + nf - 1, newdom, gcod, result)

    return replace(skeleton, j=j, pre=pre, post=post, sub=sub)


# --------------------------------------------------------------------------
# the former certification searches
# --------------------------------------------------------------------------

def bijection_table(domain: list[str], apply_fn: Callable[[str], Optional[str]],
                    target: list[str]) -> Optional[dict[str, str]]:
    """The graph of apply_fn if it is a bijection domain -> target, else None."""
    table: dict[str, str] = {}
    seen: set[str] = set()
    target_set = set(target)
    for v in domain:
        img = apply_fn(v)
        if img is None or img not in target_set or img in seen:
            return None
        table[v] = img
        seen.add(img)
    if len(seen) != len(target):
        return None
    return table


def _certify_binary(v: ShortSkewMulticategory, a: str, b: str,
                    cand: str, theta: str) -> Optional[Universal]:
    witness: dict[tuple, dict[str, str]] = {}
    for d in v.base.objects:
        table = bijection_table(
            list(v.base.hom(cand, d)),
            lambda w: v.safe_subst(w, 1, theta),
            list(v.mapset(TIGHT, 2, (a, b), d)))
        if table is None:
            return None
        witness[("base", d)] = table
    return Universal((a, b), cand, theta, witness)


def find_binary_classifier(m: Structure, a: str, b: str) -> Optional[Universal]:
    v = skew_view(m)
    for cand in v.base.objects:
        for theta in v.mapset(TIGHT, 2, (a, b), cand):
            cl = _certify_binary(v, a, b, cand, theta)
            if cl is not None:
                return cl
    return None


def all_binary_classifiers(m: Structure, a: str, b: str) -> list[Universal]:
    v = skew_view(m)
    found = []
    for cand in v.base.objects:
        for theta in v.mapset(TIGHT, 2, (a, b), cand):
            cl = _certify_binary(v, a, b, cand, theta)
            if cl is not None:
                found.append(cl)
    return found


def _certify_nullary(v: ShortSkewMulticategory, cand: str, u: str) -> Optional[Universal]:
    witness: dict[tuple, dict[str, str]] = {}
    for d in v.base.objects:
        table = bijection_table(
            list(v.base.hom(cand, d)),
            lambda w: v.safe_subst(w, 1, u),
            list(v.mapset(LOOSE, 0, (), d)))
        if table is None:
            return None
        witness[("base", d)] = table
    return Universal((), cand, u, witness)


def find_nullary_classifier(m: Structure) -> Optional[Universal]:
    v = skew_view(m)
    for cand in v.base.objects:
        for u in v.mapset(LOOSE, 0, (), cand):
            cl = _certify_nullary(v, cand, u)
            if cl is not None:
                return cl
    return None


def all_nullary_classifiers(m: Structure) -> list[Universal]:
    v = skew_view(m)
    return [cl for cand in v.base.objects
            for u in v.mapset(LOOSE, 0, (), cand)
            if (cl := _certify_nullary(v, cand, u)) is not None]


def check_left_universal(m: Structure,
                         cl: Universal
                         ) -> tuple[bool, list[str]]:
    """Extend the witness tables of a certified classifier to the longer
    position-1 bijections; returns the verdict and failing scopes."""
    v = skew_view(m)
    failures: list[str] = []
    if cl.key:
        a, b = cl.key
        for n in (2, 3):
            for xs in itertools.product(v.base.objects, repeat=n - 1):
                for d in v.base.objects:
                    table = bijection_table(
                        list(v.mapset(TIGHT, n, (cl.obj,) + xs, d)),
                        lambda g: v.safe_subst(g, 1, cl.via),
                        list(v.mapset(TIGHT, n + 1, (a, b) + xs, d)))
                    if table is None:
                        failures.append(f"t{n}:{','.join(xs)};{d}")
                    else:
                        cl.witness[("ext", n, xs, d)] = table
    else:
        for n in (1, 2):
            for xs in itertools.product(v.base.objects, repeat=n):
                for d in v.base.objects:
                    table = bijection_table(
                        list(v.mapset(TIGHT, n + 1, (cl.obj,) + xs, d)),
                        lambda g: v.safe_subst(g, 1, cl.via),
                        list(v.mapset(LOOSE, n, xs, d)))
                    if table is None:
                        failures.append(f"l{n}:{','.join(xs)};{d}")
                    else:
                        cl.witness[("ext", n, xs, d)] = table
    cl.left_universal = not failures
    return (not failures, failures)


def certify(m: Structure) -> Certificate:
    """Run all classifier searches and left-universality extensions."""
    v = skew_view(m)
    plain = isinstance(m, ShortMulticategory)
    binary: dict[tuple[str, str], Optional[Universal]] = {}
    candidates: dict[tuple[str, str], list[Universal]] = {}
    for a, b in itertools.product(v.base.objects, repeat=2):
        binary[(a, b)] = find_binary_classifier(m, a, b)
        candidates[(a, b)] = all_binary_classifiers(m, a, b)
    nullary = find_nullary_classifier(m)
    cert = Certificate(
        name=getattr(m, "name"), structure=m, view=v, plain=plain,
        binary=binary, binary_candidates=candidates,
        nullary=nullary, nullary_candidates=all_nullary_classifiers(m))
    if cert.weakly_representable:
        for cl in binary.values():
            check_left_universal(m, cl)
        check_left_universal(m, nullary)
    return cert


def derived_classifiers(m: Structure, cert: Certificate) -> list[DerivedClassifier]:
    """Materialize the composite ternary/quaternary classifiers and the
    unit-unary one, re-certifying each composite bijection directly and
    against the composite of the stepwise witnesses."""
    if not cert.left_representable:
        raise MalformedTable(f"{cert.name}: derived classifiers need left representability")
    v = cert.view
    out: list[DerivedClassifier] = []

    def note(kind, key, obj, theta, n):
        out.append(DerivedClassifier(kind, key, obj, theta, n))

    for a, b, c in itertools.product(v.base.objects, repeat=3):
        ab = cert.obj(a, b)
        theta3 = v.safe_subst(cert.theta(ab, c), 1, cert.theta(a, b))
        obj3 = cert.obj(ab, c)
        if theta3 is None:
            raise UniversalityBroken(f"{cert.name}: ternary composite undefined at ({a},{b},{c})")
        count = 0
        for d in v.base.objects:
            table = bijection_table(
                list(v.base.hom(obj3, d)),
                lambda w: v.safe_subst(w, 1, theta3),
                list(v.mapset(TIGHT, 3, (a, b, c), d)))
            if table is None:
                raise UniversalityBroken(
                    f"{cert.name}: composite ternary classifier fails at ({a},{b},{c});{d}")
            for w, img in table.items():
                stepwise = v.safe_subst(v.safe_subst(w, 1, cert.theta(ab, c)), 1, cert.theta(a, b))
                if stepwise != img:
                    raise UniversalityBroken(
                        f"{cert.name}: ternary composite disagrees with stepwise at {w}")
                count += 1
        note("ternary", (a, b, c), obj3, theta3, count)

    for a, b, c, d in itertools.product(v.base.objects, repeat=4):
        ab = cert.obj(a, b)
        abc = cert.obj(ab, c)
        inner = v.safe_subst(cert.theta(abc, d), 1, cert.theta(ab, c))
        theta4 = v.safe_subst(inner, 1, cert.theta(a, b))
        obj4 = cert.obj(abc, d)
        if theta4 is None:
            raise UniversalityBroken(f"{cert.name}: quaternary composite undefined")
        count = 0
        for e in v.base.objects:
            table = bijection_table(
                list(v.base.hom(obj4, e)),
                lambda w: v.safe_subst(w, 1, theta4),
                list(v.mapset(TIGHT, 4, (a, b, c, d), e)))
            if table is None:
                raise UniversalityBroken(
                    f"{cert.name}: composite quaternary classifier fails at ({a},{b},{c},{d});{e}")
            count += len(table)
        note("quaternary", (a, b, c, d), obj4, theta4, count)

    i = cert.nullary.obj
    for a in v.base.objects:
        theta_ia = v.safe_subst(cert.theta(i, a), 1, cert.nullary.via)
        obj_ia = cert.obj(i, a)
        if theta_ia is None:
            raise UniversalityBroken(f"{cert.name}: unit-unary composite undefined at {a}")
        count = 0
        for d in v.base.objects:
            table = bijection_table(
                list(v.base.hom(obj_ia, d)),
                lambda w: v.safe_subst(w, 1, theta_ia),
                list(v.mapset(LOOSE, 1, (a,), d)))
            if table is None:
                raise UniversalityBroken(f"{cert.name}: unit-unary classifier fails at {a};{d}")
            for w, img in table.items():
                stepwise = v.safe_subst(v.safe_subst(w, 1, cert.theta(i, a)), 1, cert.nullary.via)
                if stepwise != img:
                    raise UniversalityBroken(
                        f"{cert.name}: unit-unary composite disagrees with stepwise at {w}")
                count += 1
        note("unit-unary", (a,), obj_ia, theta_ia, count)
    cert.derived = out
    return out


def check_representable(m: ShortMulticategory, cert: Certificate) -> tuple[bool, list[str]]:
    """Positional bijections at every slot, arities 1 to 3."""
    if not isinstance(m, ShortMulticategory):
        raise MalformedTable("representability is defined for plain short multicategories")
    if not cert.weakly_representable:
        cert.representable = False
        return False, ["missing classifiers"]
    failures: list[str] = []
    objs = m.base.objects
    i = cert.nullary.obj
    u = cert.nullary.via
    for n in (1, 2, 3):
        for lx in range(0, n):
            ly = n - 1 - lx
            j = lx + 1
            for xs in itertools.product(objs, repeat=lx):
                for ys in itertools.product(objs, repeat=ly):
                    for z in objs:
                        if bijection_table(
                                list(m.mapset(n, xs + (i,) + ys, z)),
                                lambda g: m.safe_subst(g, j, u),
                                list(m.mapset(n - 1, xs + ys, z))) is None:
                            failures.append(f"u@{n}.{j}:{xs}{ys};{z}")
    for a, b in itertools.product(objs, repeat=2):
        ab = cert.obj(a, b)
        theta = cert.theta(a, b)
        for n in (1, 2, 3):
            for lx in range(0, n):
                ly = n - 1 - lx
                j = lx + 1
                for xs in itertools.product(objs, repeat=lx):
                    for ys in itertools.product(objs, repeat=ly):
                        for z in objs:
                            if bijection_table(
                                    list(m.mapset(n, xs + (ab,) + ys, z)),
                                    lambda g: m.safe_subst(g, j, theta),
                                    list(m.mapset(n + 1, xs + (a, b) + ys, z))) is None:
                                failures.append(f"theta({a},{b})@{n}.{j}:{xs}{ys};{z}")
    cert.representable = not failures
    return (not failures, failures)


def _certify_hom(v: ShortSkewMulticategory, b: str, c: str,
                 cand: str, e: str, include_nullary: bool = True) -> Optional[Universal]:
    witness: dict[tuple, dict[str, str]] = {}
    for n in (1, 2, 3):
        for xs in itertools.product(v.base.objects, repeat=n):
            table = bijection_table(
                list(v.mapset(TIGHT, n, xs, cand)),
                lambda g: v.safe_subst(e, 1, g),
                list(v.mapset(TIGHT, n + 1, xs + (b,), c)))
            if table is None:
                return None
            if table:
                witness[(TIGHT, n, xs)] = table
    loose_arities = (0, 1) if include_nullary else (1,)
    for n in loose_arities:
        for xs in itertools.product(v.base.objects, repeat=n):
            table = bijection_table(
                list(v.mapset(LOOSE, n, xs, cand)),
                lambda g: v.safe_subst(e, 1, g),
                list(v.mapset(LOOSE, n + 1, xs + (b,), c)))
            if table is None:
                return None
            if table:
                witness[(LOOSE, n, xs)] = table
    return Universal((b, c), cand, e, witness)


def find_hom_object(m: Structure, b: str, c: str,
                    include_nullary: bool = True) -> Optional[Universal]:
    v = skew_view(m)
    for cand in v.base.objects:
        for e in v.mapset(TIGHT, 2, (cand, b), c):
            h = _certify_hom(v, b, c, cand, e, include_nullary=include_nullary)
            if h is not None:
                return h
    return None


def find_closed_structure(m: Structure,
                          cert: Optional[Certificate] = None
                          ) -> Optional[dict[tuple[str, str], Universal]]:
    """Exhaustive hom-object search for every pair; None when some pair
    admits none. Records the inventory on the certificate when given."""
    v = skew_view(m)
    homs: dict[tuple[str, str], Optional[Universal]] = {}
    for b, c in itertools.product(v.base.objects, repeat=2):
        homs[(b, c)] = find_hom_object(m, b, c)
    if cert is not None:
        cert.homs = homs
    if any(h is None for h in homs.values()):
        return None
    return homs


def find_right_hom_object(m: ShortMulticategory, b: str, c: str) -> Optional[Universal]:
    """Right-closed analogue on plain structures: e(b, r[b,c]) -> c with
    substitution in position 2 inducing the bijections, arities 0 to 3."""
    objs = m.base.objects
    for cand in objs:
        for e in m.mapset(2, (b, cand), c):
            witness: dict[tuple, dict[str, str]] = {}
            ok = True
            for n in (0, 1, 2, 3):
                for xs in itertools.product(objs, repeat=n):
                    table = bijection_table(
                        list(m.mapset(n, xs, cand)),
                        lambda g: m.safe_subst(e, 2, g),
                        list(m.mapset(n + 1, (b,) + xs, c)))
                    if table is None:
                        ok = False
                        break
                    if table:
                        witness[(n, xs)] = table
                if not ok:
                    break
            if ok:
                return Universal((b, c), cand, e, witness)
    return None


def find_right_closed(m: ShortMulticategory,
                      cert: Optional[Certificate] = None
                      ) -> Optional[dict[tuple[str, str], Universal]]:
    homs: dict[tuple[str, str], Optional[Universal]] = {}
    for b, c in itertools.product(m.base.objects, repeat=2):
        homs[(b, c)] = find_right_hom_object(m, b, c)
    if cert is not None:
        cert.right_homs = homs
    if any(h is None for h in homs.values()):
        return None
    return homs


def inverses(m: Structure, cert: Certificate,
             homs: Optional[dict[tuple[str, str], Universal]] = None) -> Inverses:
    """Build explicit inverse tables from the recorded witnesses and verify
    the defining equations on every element."""
    if not cert.left_representable:
        raise MalformedTable(f"{cert.name}: inverse tables need left representability")
    v = cert.view
    prime: dict[str, str] = {}
    for n in (2, 3, 4):
        for f in v.multimaps(TIGHT, n):
            dom = v.dom(f)
            cl = cert.classifier(dom[0], dom[1])
            key = ("base", v.cod(f)) if n == 2 else ("ext", n - 1, dom[2:], v.cod(f))
            table = cl.witness.get(key, {})
            hits = [w for w, img in table.items() if img == f]
            if len(hits) != 1:
                raise UniversalityBroken(f"{cert.name}: prime inverse missing for {f}")
            prime[f] = hits[0]
            if v.safe_subst(hits[0], 1, cl.via) != f:
                raise UniversalityBroken(f"{cert.name}: prime roundtrip failed at {f}")
    star: dict[str, str] = {}
    nu = cert.nullary
    for n in (0, 1, 2):
        for f in v.multimaps(LOOSE, n):
            dom, cod = v.dom(f), v.cod(f)
            key = ("base", cod) if n == 0 else ("ext", n, dom, cod)
            table = nu.witness.get(key, {})
            hits = [w for w, img in table.items() if img == f]
            if len(hits) != 1:
                raise UniversalityBroken(f"{cert.name}: star inverse missing for {f}")
            star[f] = hits[0]
            if v.safe_subst(hits[0], 1, nu.via) != f:
                raise UniversalityBroken(f"{cert.name}: star roundtrip failed at {f}")
    sharp: dict[str, str] = {}
    if homs is not None:
        for flavour, lo, hi in ((TIGHT, 2, 4), (LOOSE, 1, 2)):
            for n in range(lo, hi + 1):
                for f in v.multimaps(flavour, n):
                    if flavour == LOOSE and v.is_tight(f) and n >= 2:
                        continue  # handled through the tight tables
                    dom, cod = v.dom(f), v.cod(f)
                    h = homs[(dom[-1], cod)]
                    key = (flavour, n - 1, dom[:-1])
                    table = h.witness.get(key, {})
                    hits = [w for w, img in table.items() if img == f]
                    if len(hits) != 1:
                        raise UniversalityBroken(f"{cert.name}: sharp inverse missing for {f}")
                    sharp[f] = hits[0]
    return Inverses(prime, star, sharp)
