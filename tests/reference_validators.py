"""The closure-based validators, kept as the reference that
tests/test_kernel.py compares the package's validators against.

Each law instance is a (family, subjects, thunk) triple, and report.run_checks
evaluates the list in order, exactly as the package did before its
validators recorded instances directly. The short-multi and short-skew
instance generators are unchanged apart from their names and from
all_tables, a method of ShortSkewMulticategory then and a function here now.
The other validators are the package's former bodies with two edits: the
relative imports inside them are absolute, and the calls they make to
validate_category, validate_functor and validate_braided_functor resolve to
the reference versions below, so every report here is evaluated the old way.

Then comes the package's former plain induction, induce_short_multi, which
tabulated the plain structure itself instead of reading it off the skew one.
It took the unit inverses from a field of skewmon.Flavour that is gone; here
it computes them with is_iso. The former skew builders follow it: the thin
table_short_skew and both skew inductions, each of which typed its j, pre,
post and sub entries in its own loops; tests/test_induce.py compares
shortskew.build, which all three now go through, with them table for table.

Then come the former line-by-line serializer and the former structure
checks (check_structure, with the former sub_case it and the former
builders call), which tests/test_ingest.py compares the package's
table-driven ones with. Then comes the former parser,
one hand-written function per kind, which tests/test_ingest.py compares
the ROWS-driven one with.

The file ends with the former certification searches of classify.py,
which wrote out each bijection scan by hand and ran every classifier search
twice (first hit, then all hits); tests/test_classify.py compares the
package's single scan helper and single search pass with them. They build
the package's certificate dataclasses, so cli.render_certificate reads both.

The former skewmon.right_adjoint_witness, which checked each object's
bijection with a seen-dict loop of its own, follows them;
tests/test_skewmon.py compares classify_flavour through it with the
package's, which goes through classify.bijection_table.

The former transport._check_transfer_rows, a three-row pre-check that
ks_morphism_inverse ran before validate_skew_multi_morphism, closes the
file; tests/test_transport.py shows on single-entry image redirects that
validation refuses every morphism these rows refuse.

The routing helpers come first: the former safe_post, safe_pre and
safe_subst of MultiTables and the former lookup_tables, which
tests/test_kernel.py compares MultiTables.lookups with, and the former
ShortSkewMulticategory.safe_j and MultiMorphism.apply, which the reference
validators call. Each body is verbatim, taking the structure or morphism as
`self`; safe_subst calls the reference safe_pre and safe_post, not the
package's methods. The former enumeration and typing helpers follow them
(sub_pairs, the required keys, check_slot and the expected sub types), so
the reference does not enumerate through the code it checks.
"""
from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import replace
from typing import Callable, Iterator, Optional

from shortcat.braiding import _SPECS, ShortBraiding, _swap, s_from_short_braiding
from shortcat.classify import (
    Certificate, DerivedClassifier, Inverses, Structure, Universal, skew_view,
)
from shortcat.errors import (
    AxiomTransferFailure, DanglingId, InconsistentVerdicts, MalformedTable, ParseError,
    TypingViolation, UnknownKind, UniversalityBroken, VersionMismatch,
)
from shortcat.fileformat import KINDS, FORMAT_VERSION, RawLaxFunctor, RawMorphism, StructureFile
from shortcat.fincat import FinCategory, FinFunctor, composable_pairs
from shortcat.induce import _Bracketer, _Currier
from shortcat.report import Check, ValidationReport, run_checks
from shortcat.shortmulti import STORED_CASES, MultiMorphism, ShortMulticategory
from shortcat.shortskew import (
    LOOSE, STORED_SKEW_CASES, TIGHT, ShortSkewMulticategory, SkewMultiMorphism, sub_flavour,
)
from shortcat.skewmon import (
    Braiding, LaxMonFunctor, SkewClosedCategory, SkewClosedFunctor, SkewMonCategory,
    _comp_chain, check_braiding_total,
)

# --------------------------------------------------------------------------
# table accessors of categories, functors and skew monoidal and skew closed
# categories that only the reference reads through
# --------------------------------------------------------------------------

def mors_into(c: FinCategory, a: str) -> tuple[str, ...]:
    return c._adjacency[1].get(a, ())


def on_obj(fun: FinFunctor, a: str) -> str:
    try:
        return fun.obj_map[a]
    except KeyError:
        raise MalformedTable(f"{fun.name}: no image for object {a}")


def on_mor(fun: FinFunctor, f: str) -> str:
    try:
        return fun.mor_map[f]
    except KeyError:
        raise MalformedTable(f"{fun.name}: no image for morphism {f}")


def tm_right(c: SkewMonCategory, a: str, g: str) -> Optional[str]:
    return c.tm(c.base.identity(a), g)


def hm_left(c: SkewClosedCategory, f: str, x: str) -> Optional[str]:
    """[f, 1_x]: contravariant action in the first argument."""
    return c.hm(f, c.base.identity(x))


def hm_right(c: SkewClosedCategory, b: str, g: str) -> Optional[str]:
    return c.hm(c.base.identity(b), g)


# --------------------------------------------------------------------------
# routing helpers
# --------------------------------------------------------------------------

def safe_post(self, q: Optional[str], f: Optional[str]) -> Optional[str]:
    if q is None or f is None or f not in self._index or q not in self._index:
        return None
    if f in self.base._span:
        return self.base.compose_opt(q, f)
    return self.post.get((q, f))


def safe_pre(self, f: Optional[str], i: int, p: Optional[str]) -> Optional[str]:
    if f is None or p is None or f not in self._index:
        return None
    if f in self.base._span:
        return self.base.compose_opt(f, p) if i == 1 else None
    return self.pre.get((f, i, p))


def safe_subst(self, g: Optional[str], i: int, f: Optional[str]) -> Optional[str]:
    if g is None or f is None or g not in self._index or f not in self._index:
        return None
    if f in self.base._span:
        return safe_pre(self, g, i, f)
    if g in self.base._span:
        return safe_post(self, g, f) if i == 1 else None
    return self.sub.get((g, i, f))


def lookup_tables(base: FinCategory, pre: dict, post: dict, sub: dict) -> tuple[dict, dict, dict]:
    """Total lookup dicts (pre, post, subst) that give exactly what safe_pre,
    safe_post and safe_subst give on a structure that passed check_structure,
    with an absent key for None. A base morphism routes through base
    composition, as the dispatchers route it, so a stored entry keyed at one
    is dropped."""
    span, comp = base._span, base.comp
    post_t = {k: v for k, v in post.items() if k[1] not in span}
    post_t.update(comp)
    pre_t = {k: v for k, v in pre.items() if k[0] not in span}
    pre_t.update(((g, 1, f), h) for (g, f), h in comp.items())
    sub_t = {k: v for k, v in sub.items() if k[0] not in span and k[2] not in span}
    sub_t.update(((q, 1, f), h) for (q, f), h in post_t.items() if f not in span)
    sub_t.update(pre_t)
    return pre_t, post_t, sub_t


def safe_j(self, f: Optional[str]) -> Optional[str]:
    if f is None:
        return None
    return self.j.get(f)


def multi_apply(self, f: str) -> str:
    n = self.source.arity(f)
    if n == 1:
        return on_mor(self.functor, f)
    try:
        return self.maps[n][f]
    except KeyError:
        raise MalformedTable(f"{self.name}: no image for multimap {f}")


# --------------------------------------------------------------------------
# enumeration and typing helpers
# --------------------------------------------------------------------------
# The former helpers that the reference validators, induce_short_multi and
# check_structure below call: _sub_pairs, check_slot and expected_sub_type of
# shortmulti.py, expected_skew_sub_type of shortskew.py, and the former
# methods inner_into, sub_pairs, required_pre_keys, required_post_keys and
# required_sub_keys, taking the structure as `self`. Each body is verbatim
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


def check_slot(name: str, table: str, key: tuple, i: int, arity: int) -> None:
    """A pre or sub key substitutes at slot i of a map with `arity` inputs."""
    if not 1 <= i <= arity:
        raise MalformedTable(
            f"{name}: {table} key ({','.join(map(str, key))}) has slot {i} "
            f"outside 1..{arity}")


def expected_sub_type(m: ShortMulticategory, g: str, i: int, f: str) -> tuple[int, tuple[str, ...], str]:
    n, gdom, gcod = m.info(g)
    k, fdom, _ = m.info(f)
    dom = gdom[:i - 1] + fdom + gdom[i:]
    return (n + k - 1, dom, gcod)


def expected_skew_sub_type(m: ShortSkewMulticategory, g: str, i: int, f: str,
                           case: tuple[int, str, int, str]) -> tuple[int, tuple[str, ...], str, str]:
    n, x, k, y = case
    gdom, gcod = m.dom(g), m.cod(g)
    dom = gdom[:i - 1] + m.dom(f) + gdom[i:]
    return (n + k - 1, dom, gcod, sub_flavour(x, i, y))


# --------------------------------------------------------------------------
# short multicategories
# --------------------------------------------------------------------------

def multi_typing_checks(m: ShortMulticategory) -> Iterator[Check]:
    def pre_t(f, i, p):
        def thunk():
            g = m.pre[(f, i, p)]
            n, dom, cod = m.info(f)
            want = (n, dom[:i - 1] + (m.base.dom(p),) + dom[i:], cod)
            return (str(m.info(g)), str(want))
        return thunk

    def post_t(q, f):
        def thunk():
            g = m.post[(q, f)]
            n, dom, _ = m.info(f)
            return (str(m.info(g)), str((n, dom, m.base.cod(q))))
        return thunk

    def sub_t(g, i, f):
        def thunk():
            h = m.sub[(g, i, f)]
            return (str(m.info(h)), str(expected_sub_type(m, g, i, f)))
        return thunk

    for (f, i, p) in sorted(m.pre):
        yield ("typing", ("pre", f, str(i), p), pre_t(f, i, p))
    for (q, f) in sorted(m.post):
        yield ("typing", ("post", q, f), post_t(q, f))
    for (g, i, f) in sorted(m.sub):
        yield ("typing", ("sub", g, str(i), f), sub_t(g, i, f))


def multi_identity_checks(m: ShortMulticategory) -> Iterator[Check]:
    for n in (0, 2, 3, 4):
        for f in m.multimaps(n):
            _, dom, cod = m.info(f)
            yield ("identity", ("post", cod, f),
                   lambda f=f, cod=cod: (m.safe_post(m.base.identity(cod), f), f))
            for i in range(1, n + 1):
                yield ("identity", ("pre", f, str(i)),
                       lambda f=f, i=i, dom=dom: (m.safe_pre(f, i, m.base.identity(dom[i - 1])), f))


def multi_profunctor_checks(m: ShortMulticategory) -> Iterator[Check]:
    base = m.base
    for n in (0, 2, 3, 4):
        for f in m.multimaps(n):
            _, dom, cod = m.info(f)
            for q in base.mors_out_of(cod):
                for q2 in base.mors_out_of(base.cod(q)):
                    yield ("profunctor", ("post-post", q2, q, f),
                           lambda q2=q2, q=q, f=f: (m.safe_post(q2, m.safe_post(q, f)),
                                                    m.safe_post(base.compose(q2, q), f)))
            for i in range(1, n + 1):
                for p in mors_into(base, dom[i - 1]):
                    for p2 in mors_into(base, base.dom(p)):
                        yield ("profunctor", ("pre-pre", f, str(i), p, p2),
                               lambda f=f, i=i, p=p, p2=p2: (
                                   m.safe_pre(m.safe_pre(f, i, p), i, p2),
                                   m.safe_pre(f, i, base.compose(p, p2))))
                for q in base.mors_out_of(cod):
                    yield ("profunctor", ("pre-post", q, f, str(i), p),
                           lambda q=q, f=f, i=i, p=p: (
                               m.safe_post(q, m.safe_pre(f, i, p)),
                               m.safe_pre(m.safe_post(q, f), i, p)))
            for i, j in itertools.combinations(range(1, n + 1), 2):
                for p in mors_into(base, dom[i - 1]):
                    for p2 in mors_into(base, dom[j - 1]):
                        yield ("profunctor", ("pre-commute", f, str(i), p, str(j), p2),
                               lambda f=f, i=i, p=p, j=j, p2=p2: (
                                   m.safe_pre(m.safe_pre(f, i, p), j, p2),
                                   m.safe_pre(m.safe_pre(f, j, p2), i, p)))


def multi_sub_pairs(m: ShortMulticategory, n: int, k: int) -> Iterator[tuple[str, int, str]]:
    """All composable (g, i, f) with arity(g)=n, arity(f)=k."""
    for g in m.multimaps(n):
        dom = m.dom(g)
        for i in range(1, n + 1):
            for key in m.mapset_keys(k):
                if key[1] != dom[i - 1]:
                    continue
                for f in m.mapset(k, *key):
                    yield g, i, f


def multi_naturality_checks(m: ShortMulticategory) -> Iterator[Check]:
    base = m.base
    for (n, k) in sorted(STORED_CASES):
        for g, i, f in multi_sub_pairs(m, n, k):
            fdom = m.dom(f)
            gdom = m.dom(g)
            gcod = m.cod(g)
            # naturality in the inner domain objects
            for t in range(1, k + 1):
                for p in mors_into(base, fdom[t - 1]):
                    yield ("nat-in-a", (g, str(i), f, str(t), p),
                           lambda g=g, i=i, f=f, t=t, p=p: (
                               m.safe_subst(g, i, m.safe_pre(f, t, p)),
                               m.safe_pre(m.safe_subst(g, i, f), i - 1 + t, p)))
            # naturality in the outer, non-substituted domain objects
            for j in range(1, n + 1):
                if j == i:
                    continue
                pos = j if j < i else j + k - 1
                for p in mors_into(base, gdom[j - 1]):
                    yield ("nat-in-b", (g, str(i), f, str(j), p),
                           lambda g=g, i=i, f=f, j=j, p=p, pos=pos: (
                               m.safe_subst(m.safe_pre(g, j, p), i, f),
                               m.safe_pre(m.safe_subst(g, i, f), pos, p)))
            # naturality in the codomain
            for q in base.mors_out_of(gcod):
                yield ("nat-in-c", (q, g, str(i), f),
                       lambda q=q, g=g, i=i, f=f: (
                           m.safe_post(q, m.safe_subst(g, i, f)),
                           m.safe_subst(m.safe_post(q, g), i, f)))
        # dinaturality in the substituted variable: for w : x -> e,
        # (g' o_i w) o_i f  =  g' o_i (w o f)  with g' having e at slot i.
        for gp in m.multimaps(n):
            gpdom = m.dom(gp)
            for i in range(1, n + 1):
                e = gpdom[i - 1]
                for w in mors_into(base, e):
                    x = base.dom(w)
                    for key in m.mapset_keys(k):
                        if key[1] != x:
                            continue
                        for f in m.mapset(k, *key):
                            yield ("dinat-in-b", (gp, str(i), w, f),
                                   lambda gp=gp, i=i, w=w, f=f: (
                                       m.safe_subst(m.safe_pre(gp, i, w), i, f),
                                       m.safe_subst(gp, i, m.safe_post(w, f))))


def multi_assoc_checks(m: ShortMulticategory) -> Iterator[Check]:
    """Associativity family: f o_i (g o_j h) = (f o_i g) o_{j+i-1} h, and the
    interchange family: (f o_1 g) o_{n+1} h = (f o_2 h) o_1 g, in the cases
    (a) through (d); f is always binary."""
    def line(case: str, gn: int, hn: int) -> Iterator[Check]:
        for f in m.multimaps(2):
            fdom = m.dom(f)
            for i in (1, 2):
                for gkey in m.mapset_keys(gn):
                    if gkey[1] != fdom[i - 1]:
                        continue
                    for g in m.mapset(gn, *gkey):
                        gdom = m.dom(g)
                        for j in range(1, gn + 1):
                            for hkey in m.mapset_keys(hn):
                                if hkey[1] != gdom[j - 1]:
                                    continue
                                for h in m.mapset(hn, *hkey):
                                    yield (f"assoc-line-{case}", (f, str(i), g, str(j), h),
                                           lambda f=f, i=i, g=g, j=j, h=h: (
                                               m.safe_subst(f, i, m.safe_subst(g, j, h)),
                                               m.safe_subst(m.safe_subst(f, i, g), j + i - 1, h)))

    def notline(case: str, gn: int, hn: int) -> Iterator[Check]:
        for f in m.multimaps(2):
            fdom = m.dom(f)
            for gkey in m.mapset_keys(gn):
                if gkey[1] != fdom[0]:
                    continue
                for g in m.mapset(gn, *gkey):
                    for hkey in m.mapset_keys(hn):
                        if hkey[1] != fdom[1]:
                            continue
                        for h in m.mapset(hn, *hkey):
                            yield (f"assoc-notline-{case}", (f, g, h),
                                   lambda f=f, g=g, h=h, gn=gn: (
                                       m.safe_subst(m.safe_subst(f, 1, g), gn + 1, h),
                                       m.safe_subst(m.safe_subst(f, 2, h), 1, g)))

    yield from line("a", 2, 2)
    yield from line("b", 2, 0)
    yield from notline("a", 2, 2)
    yield from notline("b", 2, 0)
    yield from notline("c", 0, 2)
    yield from notline("d", 0, 0)


def validate_short_multicategory(m: ShortMulticategory) -> ValidationReport:
    m.check_structure()
    checks = itertools.chain(
        multi_typing_checks(m), multi_identity_checks(m), multi_profunctor_checks(m),
        multi_naturality_checks(m), multi_assoc_checks(m))
    report = run_checks(m.name, checks)
    report.merge_prefixed(validate_category(m.base), "base-")
    return report.finish()


# --------------------------------------------------------------------------
# short skew multicategories
# --------------------------------------------------------------------------

def all_tables(m: ShortSkewMulticategory) -> Iterator[tuple[str, int, str]]:
    """(flavour, arity, multimap) over every non-base table entry."""
    for n in (2, 3, 4):
        for f in m.multimaps(TIGHT, n):
            yield (TIGHT, n, f)
    for n in (0, 1, 2):
        for f in m.multimaps(LOOSE, n):
            if not (m.arity(f) == 1 and m.is_tight(f)):
                yield (LOOSE, n, f)


def skew_typing_checks(m: ShortSkewMulticategory) -> Iterator[Check]:
    def pre_t(f, i, p):
        def thunk():
            g = m.pre[(f, i, p)]
            n, dom, cod, fl = m.info(f)
            want = (n, dom[:i - 1] + (m.base.dom(p),) + dom[i:], cod)
            have = m.info(g)
            return (str((have[0], have[1], have[2], fl <= have[3])), str(want + (True,)))
        return thunk

    def post_t(q, f):
        def thunk():
            g = m.post[(q, f)]
            n, dom, _, fl = m.info(f)
            have = m.info(g)
            return (str((have[0], have[1], have[2], fl <= have[3])),
                    str((n, dom, m.base.cod(q), True)))
        return thunk

    def sub_t(g, i, f):
        def thunk():
            h = m.sub[(g, i, f)]
            case = sub_case(m, g, i, f)
            n, dom, cod, flavour = expected_skew_sub_type(m, g, i, f, case)
            have = m.info(h)
            return (str((have[0], have[1], have[2], flavour in have[3])),
                    str((n, dom, cod, True)))
        return thunk

    for (f, i, p) in sorted(m.pre):
        yield ("typing", ("pre", f, str(i), p), pre_t(f, i, p))
    for (q, f) in sorted(m.post):
        yield ("typing", ("post", q, f), post_t(q, f))
    for (g, i, f) in sorted(m.sub):
        yield ("typing", ("sub", g, str(i), f), sub_t(g, i, f))


def skew_identity_checks(m: ShortSkewMulticategory) -> Iterator[Check]:
    seen = set()
    for _, n, f in all_tables(m):
        if f in seen:
            continue
        seen.add(f)
        _, dom, cod, _ = m.info(f)
        yield ("identity", ("post", cod, f),
               lambda f=f, cod=cod: (m.safe_post(m.base.identity(cod), f), f))
        for i in range(1, n + 1):
            yield ("identity", ("pre", f, str(i)),
                   lambda f=f, i=i, dom=dom: (m.safe_pre(f, i, m.base.identity(dom[i - 1])), f))


def skew_profunctor_checks(m: ShortSkewMulticategory) -> Iterator[Check]:
    base = m.base
    seen = set()
    for _, n, f in all_tables(m):
        if f in seen:
            continue
        seen.add(f)
        _, dom, cod, _ = m.info(f)
        for q in base.mors_out_of(cod):
            for q2 in base.mors_out_of(base.cod(q)):
                yield ("profunctor", ("post-post", q2, q, f),
                       lambda q2=q2, q=q, f=f: (m.safe_post(q2, m.safe_post(q, f)),
                                                m.safe_post(base.compose(q2, q), f)))
        for i in range(1, n + 1):
            for p in mors_into(base, dom[i - 1]):
                for p2 in mors_into(base, base.dom(p)):
                    yield ("profunctor", ("pre-pre", f, str(i), p, p2),
                           lambda f=f, i=i, p=p, p2=p2: (
                               m.safe_pre(m.safe_pre(f, i, p), i, p2),
                               m.safe_pre(f, i, base.compose(p, p2))))
            for q in base.mors_out_of(cod):
                yield ("profunctor", ("pre-post", q, f, str(i), p),
                       lambda q=q, f=f, i=i, p=p: (
                           m.safe_post(q, m.safe_pre(f, i, p)),
                           m.safe_pre(m.safe_post(q, f), i, p)))
        for i, jx in itertools.combinations(range(1, n + 1), 2):
            for p in mors_into(base, dom[i - 1]):
                for p2 in mors_into(base, dom[jx - 1]):
                    yield ("profunctor", ("pre-commute", f, str(i), p, str(jx), p2),
                           lambda f=f, i=i, p=p, jx=jx, p2=p2: (
                               m.safe_pre(m.safe_pre(f, i, p), jx, p2),
                               m.safe_pre(m.safe_pre(f, jx, p2), i, p)))


def skew_j_nat_checks(m: ShortSkewMulticategory) -> Iterator[Check]:
    """The five unary-level naturality conditions for j, plus the derived
    descriptions of j on binary maps and on unary maps via j(1)."""
    base = m.base
    for p in base.morphisms():
        a, b = base.span(p)
        for g in m.multimaps(TIGHT, 2):
            if m.dom(g)[1] == b:
                yield ("j-nat", ("g-pos2", g, p),
                       lambda g=g, p=p: (m.safe_subst(g, 2, safe_j(m, p)), m.safe_pre(g, 2, p)))
            if m.dom(g)[0] == b:
                yield ("j-nat", ("g-pos1", g, p),
                       lambda g=g, p=p: (m.safe_subst(g, 1, safe_j(m, p)),
                                         safe_j(m, m.safe_pre(g, 1, p))))
        for q in base.mors_out_of(b):
            yield ("j-nat", ("post", q, p),
                   lambda q=q, p=p: (m.safe_post(q, safe_j(m, p)),
                                     safe_j(m, base.compose_opt(q, p))))
        for g in m.multimaps(TIGHT, 2):
            if m.cod(g) == a:
                yield ("j-nat", ("into-binary", p, g),
                       lambda p=p, g=g: (m.safe_subst(safe_j(m, p), 1, g),
                                         safe_j(m, m.safe_post(p, g))))
        for key in m.mapset_keys(LOOSE, 0):
            if key[1] != a:
                continue
            for v in m.mapset(LOOSE, 0, *key):
                yield ("j-nat", ("into-nullary", p, v),
                       lambda p=p, v=v: (m.safe_subst(safe_j(m, p), 1, v),
                                         m.safe_post(p, v)))
    for g in m.multimaps(TIGHT, 2):
        a = m.dom(g)[0]
        yield ("j-derived", ("binary", g),
               lambda g=g, a=a: (safe_j(m, g), m.safe_subst(g, 1, safe_j(m, base.identity(a)))))
    for q in base.morphisms():
        a = base.dom(q)
        yield ("j-derived", ("unary", q),
               lambda q=q, a=a: (safe_j(m, q), m.safe_post(q, safe_j(m, base.identity(a)))))


def skew_naturality_checks(m: ShortSkewMulticategory) -> Iterator[Check]:
    base = m.base
    for case in sorted(STORED_SKEW_CASES):
        n, x, k, y = case
        tag = f"{x}{n}-{y}{k}"
        for g, i, f in sub_pairs(m, case):
            fdom, gdom, gcod = m.dom(f), m.dom(g), m.cod(g)
            for t in range(1, k + 1):
                for p in mors_into(base, fdom[t - 1]):
                    yield ("nat-in-a", (tag, g, str(i), f, str(t), p),
                           lambda g=g, i=i, f=f, t=t, p=p: (
                               m.safe_subst(g, i, m.safe_pre(f, t, p)),
                               m.safe_pre(m.safe_subst(g, i, f), i - 1 + t, p)))
            for jx in range(1, n + 1):
                if jx == i:
                    continue
                pos = jx if jx < i else jx + k - 1
                for p in mors_into(base, gdom[jx - 1]):
                    yield ("nat-in-b", (tag, g, str(i), f, str(jx), p),
                           lambda g=g, i=i, f=f, jx=jx, p=p, pos=pos: (
                               m.safe_subst(m.safe_pre(g, jx, p), i, f),
                               m.safe_pre(m.safe_subst(g, i, f), pos, p)))
            for q in base.mors_out_of(gcod):
                yield ("nat-in-c", (tag, q, g, str(i), f),
                       lambda q=q, g=g, i=i, f=f: (
                           m.safe_post(q, m.safe_subst(g, i, f)),
                           m.safe_subst(m.safe_post(q, g), i, f)))
        for gp in m.multimaps(x, n):
            gpdom = m.dom(gp)
            for i in range(1, n + 1):
                e = gpdom[i - 1]
                for w in mors_into(base, e):
                    xobj = base.dom(w)
                    for key in m.mapset_keys(y, k):
                        if key[1] != xobj:
                            continue
                        for f in m.mapset(y, k, *key):
                            if k == 1 and y == LOOSE and m.is_tight(f) and m.arity(f) == 1:
                                continue
                            yield ("dinat-in-b", (tag, gp, str(i), w, f),
                                   lambda gp=gp, i=i, w=w, f=f: (
                                       m.safe_subst(m.safe_pre(gp, i, w), i, f),
                                       m.safe_subst(gp, i, m.safe_post(w, f))))


def skew_assoc_checks(m: ShortSkewMulticategory) -> Iterator[Check]:
    """Associativity/interchange cases (a)-(d) with all participants tight
    except the nullary ones."""
    def pool(arity: int) -> list[str]:
        return m.multimaps(LOOSE, 0) if arity == 0 else m.multimaps(TIGHT, arity)

    def line(case: str, gn: int, hn: int) -> Iterator[Check]:
        for f in m.multimaps(TIGHT, 2):
            fdom = m.dom(f)
            for i in (1, 2):
                for g in pool(gn):
                    if m.cod(g) != fdom[i - 1]:
                        continue
                    gdom = m.dom(g)
                    for jx in range(1, gn + 1):
                        for h in pool(hn):
                            if m.cod(h) != gdom[jx - 1]:
                                continue
                            yield (f"assoc-line-{case}", (f, str(i), g, str(jx), h),
                                   lambda f=f, i=i, g=g, jx=jx, h=h: (
                                       m.safe_subst(f, i, m.safe_subst(g, jx, h)),
                                       m.safe_subst(m.safe_subst(f, i, g), jx + i - 1, h)))

    def notline(case: str, gn: int, hn: int) -> Iterator[Check]:
        for f in m.multimaps(TIGHT, 2):
            fdom = m.dom(f)
            for g in pool(gn):
                if m.cod(g) != fdom[0]:
                    continue
                for h in pool(hn):
                    if m.cod(h) != fdom[1]:
                        continue
                    yield (f"assoc-notline-{case}", (f, g, h),
                           lambda f=f, g=g, h=h, gn=gn: (
                               m.safe_subst(m.safe_subst(f, 1, g), gn + 1, h),
                               m.safe_subst(m.safe_subst(f, 2, h), 1, g)))

    yield from line("a", 2, 2)
    yield from line("b", 2, 0)
    yield from notline("a", 2, 2)
    yield from notline("b", 2, 0)
    yield from notline("c", 0, 2)
    yield from notline("d", 0, 0)


def validate_short_skew(m: ShortSkewMulticategory) -> ValidationReport:
    m.check_structure()
    checks = itertools.chain(
        skew_typing_checks(m), skew_identity_checks(m), skew_profunctor_checks(m),
        skew_j_nat_checks(m), skew_naturality_checks(m), skew_assoc_checks(m))
    report = run_checks(m.name, checks)
    report.merge_prefixed(validate_category(m.base), "base-")
    return report.finish()


# --------------------------------------------------------------------------
# finite categories and functors
# --------------------------------------------------------------------------

def validate_category(c: FinCategory) -> ValidationReport:
    """Exhaustive check of typing, identity and associativity laws."""
    c.check_structure()
    checks: list[Check] = []

    def typing_check(g, f):
        def thunk():
            h = c.comp[(g, f)]
            want = (c.dom(f), c.cod(g))
            return (str(c.span(h)), str(want))
        return thunk

    for g, f in composable_pairs(c):
        checks.append(("comp-typing", (g, f), typing_check(g, f)))

    for f in c.morphisms():
        a, b = c.span(f)
        checks.append(("identity", (c.identity(b), f),
                       lambda f=f, b=b: (c.comp.get((c.identity(b), f)), f)))
        checks.append(("identity", (f, c.identity(a)),
                       lambda f=f, a=a: (c.comp.get((f, c.identity(a))), f)))

    for g, f in composable_pairs(c):
        for h in c.mors_out_of(c.cod(g)):
            def thunk(h=h, g=g, f=f):
                inner = c.comp.get((g, f))
                lhs = c.comp.get((h, inner)) if inner is not None else None
                mid = c.comp.get((h, g))
                rhs = c.comp.get((mid, f)) if mid is not None else None
                return lhs, rhs
            checks.append(("assoc", (h, g, f), thunk))

    return run_checks(c.name, checks)


def validate_functor(fun: FinFunctor) -> ValidationReport:
    """Check totality of the maps plus preservation of spans, identities
    and composition."""
    src, tgt = fun.source, fun.target
    for a in src.objects:
        if fun.obj_map.get(a) not in tgt.objects:
            raise MalformedTable(f"{fun.name}: object {a} has no valid image")
    for f in src.morphisms():
        g = fun.mor_map.get(f)
        if g is None or g not in tgt._span:
            raise DanglingId(f"{fun.name}: morphism {f} has no valid image")

    checks: list[Check] = []
    for f in src.morphisms():
        a, b = src.span(f)
        checks.append(("functor-span", (f,),
                       lambda f=f, a=a, b=b: (str(tgt.span(on_mor(fun, f))),
                                              str((on_obj(fun, a), on_obj(fun, b))))))
    for a in src.objects:
        checks.append(("functor-id", (a,),
                       lambda a=a: (on_mor(fun, src.identity(a)),
                                    tgt.ids.get(on_obj(fun, a)))))
    for g, f in composable_pairs(src):
        checks.append(("functor-comp", (g, f),
                       lambda g=g, f=f: (fun.mor_map.get(src.comp[(g, f)]),
                                         tgt.compose_opt(on_mor(fun, g), on_mor(fun, f)))))
    return run_checks(fun.name, checks)


# --------------------------------------------------------------------------
# skew monoidal, braided and skew closed categories and their functors
# --------------------------------------------------------------------------

def validate_skew_monoidal(c: SkewMonCategory) -> ValidationReport:
    c.check_structure()
    base = c.base
    objs = base.objects
    checks: list[Check] = []

    # tensor functoriality
    for f, g in itertools.product(base.morphisms(), repeat=2):
        (a, b), (x, y) = base.span(f), base.span(g)
        checks.append(("tensor-typing", (f, g),
                       lambda f=f, g=g, a=a, b=b, x=x, y=y: (
                           str(base._span.get(c.tensor_mor[(f, g)])),
                           str((c.t(a, x), c.t(b, y))))))
    for a, b in itertools.product(objs, repeat=2):
        checks.append(("tensor-id", (a, b),
                       lambda a=a, b=b: (c.tm(base.identity(a), base.identity(b)),
                                         base.ids.get(c.t(a, b)))))
    for f, g in itertools.product(base.morphisms(), repeat=2):
        for f2 in base.mors_out_of(base.cod(f)):
            for g2 in base.mors_out_of(base.cod(g)):
                checks.append(("tensor-comp", (f2, f, g2, g),
                               lambda f2=f2, f=f, g2=g2, g=g: (
                                   c.tm(base.compose(f2, f), base.compose(g2, g)),
                                   base.compose_opt(c.tm(f2, g2), c.tm(f, g)))))

    # spans of the structure morphisms
    for a, b, x in itertools.product(objs, repeat=3):
        checks.append(("alpha-typing", (a, b, x),
                       lambda a=a, b=b, x=x: (
                           str(base._span.get(c.alpha[(a, b, x)])),
                           str((c.t(c.t(a, b), x), c.t(a, c.t(b, x)))))))
    for a in objs:
        checks.append(("lambda-typing", (a,),
                       lambda a=a: (str(base._span.get(c.lam[a])),
                                    str((c.t(c.unit, a), a)))))
        checks.append(("rho-typing", (a,),
                       lambda a=a: (str(base._span.get(c.rho[a])),
                                    str((a, c.t(a, c.unit))))))

    # naturality of alpha, lambda, rho
    for f, g, h in itertools.product(base.morphisms(), repeat=3):
        (a, a2), (b, b2), (x, x2) = base.span(f), base.span(g), base.span(h)
        checks.append(("nat-alpha", (f, g, h),
                       lambda f=f, g=g, h=h, a=a, b=b, x=x, a2=a2, b2=b2, x2=x2: (
                           _comp_chain(base, c.tm(c.tm(f, g), h), c.alpha[(a2, b2, x2)]),
                           _comp_chain(base, c.alpha[(a, b, x)], c.tm(f, c.tm(g, h))))))
    for f in base.morphisms():
        a, b = base.span(f)
        checks.append(("nat-lambda", (f,),
                       lambda f=f, a=a, b=b: (
                           _comp_chain(base, tm_right(c, c.unit, f), c.lam[b]),
                           _comp_chain(base, c.lam[a], f))))
        checks.append(("nat-rho", (f,),
                       lambda f=f, a=a, b=b: (
                           _comp_chain(base, f, c.rho[b]),
                           _comp_chain(base, c.rho[a], c.tm_left(f, c.unit)))))

    # the five structure axioms
    i = c.unit
    for a, b, x, d in itertools.product(objs, repeat=4):
        checks.append(("pentagon", (a, b, x, d),
                       lambda a=a, b=b, x=x, d=d: (
                           _comp_chain(base, c.alpha[(c.t(a, b), x, d)], c.alpha[(a, b, c.t(x, d))]),
                           _comp_chain(base, c.tm_left(c.alpha[(a, b, x)], d),
                                       c.alpha[(a, c.t(b, x), d)],
                                       tm_right(c, a, c.alpha[(b, x, d)])))))
    for a, b in itertools.product(objs, repeat=2):
        checks.append(("left-unit", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.alpha[(i, a, b)], c.lam[c.t(a, b)]),
                           c.tm_left(c.lam[a], b))))
        checks.append(("right-unit", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.rho[c.t(a, b)], c.alpha[(a, b, i)]),
                           tm_right(c, a, c.rho[b]))))
        checks.append(("middle-unit", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.tm_left(c.rho[a], b), c.alpha[(a, i, b)],
                                       tm_right(c, a, c.lam[b])),
                           base.ids.get(c.t(a, b)))))
    checks.append(("unit-unit", (i,),
                   lambda: (_comp_chain(base, c.rho[i], c.lam[i]), base.ids.get(i))))

    report = run_checks(c.name, checks)
    report.merge_prefixed(validate_category(base), "base-")
    return report.finish()


def validate_lax_functor(t: LaxMonFunctor) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    report = validate_functor(fun)
    checks: list[Check] = []

    fi = on_obj(fun, src.unit)
    checks.append(("f0-typing", (t.f0,),
                   lambda: (str(base._span.get(t.f0)), str((tgt.unit, fi)))))
    for a, b in itertools.product(src.base.objects, repeat=2):
        if (a, b) not in t.f2:
            raise MalformedTable(f"{t.name}: f2 not total at ({a},{b})")
        checks.append(("f2-typing", (a, b),
                       lambda a=a, b=b: (str(base._span.get(t.f2[(a, b)])),
                                         str((tgt.t(on_obj(fun, a), on_obj(fun, b)),
                                              on_obj(fun, src.t(a, b)))))))
    for f, g in itertools.product(src.base.morphisms(), repeat=2):
        (a, a2), (b, b2) = src.base.span(f), src.base.span(g)
        checks.append(("f2-nat", (f, g),
                       lambda f=f, g=g, a=a, b=b, a2=a2, b2=b2: (
                           _comp_chain(base, tgt.tm(on_mor(fun, f), on_mor(fun, g)), t.f2[(a2, b2)]),
                           _comp_chain(base, t.f2[(a, b)], fun.mor_map.get(src.tm(f, g))))))

    F = functools.partial(on_obj, fun)
    for a, b, x in itertools.product(src.base.objects, repeat=3):
        checks.append(("lax-assoc", (a, b, x),
                       lambda a=a, b=b, x=x: (
                           _comp_chain(base, tgt.tm_left(t.f2[(a, b)], F(x)),
                                       t.f2[(src.t(a, b), x)],
                                       fun.mor_map.get(src.alpha[(a, b, x)])),
                           _comp_chain(base, tgt.alpha[(F(a), F(b), F(x))],
                                       tm_right(tgt, F(a), t.f2[(b, x)]),
                                       t.f2[(a, src.t(b, x))]))))
    for a in src.base.objects:
        checks.append(("lax-left-unit", (a,),
                       lambda a=a: (
                           _comp_chain(base, tgt.tm_left(t.f0, F(a)), t.f2[(src.unit, a)],
                                       fun.mor_map.get(src.lam[a])),
                           tgt.lam.get(F(a)))))
        checks.append(("lax-right-unit", (a,),
                       lambda a=a: (
                           _comp_chain(base, tgt.rho[F(a)], tm_right(tgt, F(a), t.f0),
                                       t.f2[(a, src.unit)]),
                           fun.mor_map.get(src.rho[a]))))

    out = run_checks(t.name, checks)
    out.merge(report)
    return out.finish()


def validate_braiding(c: SkewMonCategory, braid: Braiding) -> ValidationReport:
    check_braiding_total(c, braid)
    base = c.base
    objs = base.objects
    checks: list[Check] = []

    def lhs_obj(x, a, b):
        return c.t(c.t(x, a), b)

    for (x, a, b) in itertools.product(objs, repeat=3):
        s = braid.s[(x, a, b)]
        si = braid.s_inv[(x, a, b)]
        checks.append(("s-typing", (x, a, b),
                       lambda s=s, x=x, a=a, b=b: (str(base._span.get(s)),
                                                   str((lhs_obj(x, a, b), lhs_obj(x, b, a))))))
        checks.append(("s-inverse", (x, a, b),
                       lambda s=s, si=si, x=x, a=a, b=b: (
                           str((base.compose_opt(si, s), base.compose_opt(s, si))),
                           str((base.ids.get(lhs_obj(x, a, b)), base.ids.get(lhs_obj(x, b, a)))))))

    for f, g, h in itertools.product(base.morphisms(), repeat=3):
        (x, x2), (a, a2), (b, b2) = base.span(f), base.span(g), base.span(h)
        checks.append(("s-nat", (f, g, h),
                       lambda f=f, g=g, h=h, x=x, a=a, b=b, x2=x2, a2=a2, b2=b2: (
                           _comp_chain(base, c.tm(c.tm(f, g), h), braid.s[(x2, a2, b2)]),
                           _comp_chain(base, braid.s[(x, a, b)], c.tm(c.tm(f, h), g)))))

    s = braid.s
    for (x, a, b, e) in itertools.product(objs, repeat=4):
        checks.append(("braid-hexagon", (x, a, b, e),
                       lambda x=x, a=a, b=b, e=e: (
                           _comp_chain(base, s[(c.t(x, a), b, e)], c.tm_left(s[(x, a, e)], b),
                                       s[(c.t(x, e), a, b)]),
                           _comp_chain(base, c.tm_left(s[(x, a, b)], e), s[(c.t(x, b), a, e)],
                                       c.tm_left(s[(x, b, e)], a)))))
        checks.append(("braid-alpha-right", (x, a, b, e),
                       lambda x=x, a=a, b=b, e=e: (
                           _comp_chain(base, c.tm_left(s[(x, a, b)], e), s[(c.t(x, b), a, e)],
                                       c.tm_left(c.alpha[(x, b, e)], a)),
                           _comp_chain(base, c.alpha[(c.t(x, a), b, e)], s[(x, a, c.t(b, e))]))))
        checks.append(("braid-alpha-left", (x, a, b, e),
                       lambda x=x, a=a, b=b, e=e: (
                           _comp_chain(base, s[(c.t(x, a), b, e)], c.tm_left(s[(x, a, e)], b),
                                       c.alpha[(c.t(x, e), a, b)]),
                           _comp_chain(base, c.tm_left(c.alpha[(x, a, b)], e),
                                       s[(x, c.t(a, b), e)]))))
        checks.append(("braid-alpha-inner", (x, a, b, e),
                       lambda x=x, a=a, b=b, e=e: (
                           _comp_chain(base, c.tm_left(c.alpha[(x, a, b)], e),
                                       c.alpha[(x, c.t(a, b), e)],
                                       tm_right(c, x, s[(a, b, e)])),
                           _comp_chain(base, s[(c.t(x, a), b, e)],
                                       c.tm_left(c.alpha[(x, a, e)], b),
                                       c.alpha[(x, c.t(a, e), b)]))))
    return run_checks(braid.name, checks)


def validate_braided_functor(t: LaxMonFunctor, s_src: Braiding, s_tgt: Braiding) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    F = functools.partial(on_obj, fun)
    checks: list[Check] = []
    for (x, a, b) in itertools.product(src.base.objects, repeat=3):
        checks.append(("braided-functor", (x, a, b),
                       lambda x=x, a=a, b=b: (
                           _comp_chain(base, s_tgt.s[(F(x), F(a), F(b))],
                                       tgt.tm_left(t.f2[(x, b)], F(a)),
                                       t.f2[(src.t(x, b), a)]),
                           _comp_chain(base, tgt.tm_left(t.f2[(x, a)], F(b)),
                                       t.f2[(src.t(x, a), b)],
                                       fun.mor_map.get(s_src.s[(x, a, b)])))))
    return run_checks(t.name + ".braided", checks)


def validate_skew_closed(c: SkewClosedCategory) -> ValidationReport:
    """Naturality of the hom functor and of I, J, L, plus the five
    structure axioms of a left skew closed category (the J/L triangle among
    them) as axiom schemas."""
    c.check_structure()
    base = c.base
    objs = base.objects
    i = c.unit
    checks: list[Check] = []

    # hom functoriality: contravariant first argument, covariant second
    for f, g in itertools.product(base.morphisms(), repeat=2):
        (b, b2), (x, x2) = base.span(f), base.span(g)
        checks.append(("hom-typing", (f, g),
                       lambda f=f, g=g, b=b, b2=b2, x=x, x2=x2: (
                           str(base._span.get(c.hom_mor[(f, g)])),
                           str((c.h(b2, x), c.h(b, x2))))))
    for a, b in itertools.product(objs, repeat=2):
        checks.append(("hom-id", (a, b),
                       lambda a=a, b=b: (c.hm(base.identity(a), base.identity(b)),
                                         base.ids.get(c.h(a, b)))))
    # contravariance crosses the pairing: [f2 o f, g2 o g] = [f,g2] o [f2,g]
    for f, g in itertools.product(base.morphisms(), repeat=2):
        for f2 in base.mors_out_of(base.cod(f)):
            for g2 in base.mors_out_of(base.cod(g)):
                checks.append(("hom-comp", (f2, f, g2, g),
                               lambda f2=f2, f=f, g2=g2, g=g: (
                                   c.hm(base.compose(f2, f), base.compose(g2, g)),
                                   base.compose_opt(c.hm(f, g2), c.hm(f2, g)))))

    # spans of the structure morphisms
    for a in objs:
        checks.append(("I-typing", (a,),
                       lambda a=a: (str(base._span.get(c.iu[a])), str((c.h(i, a), a)))))
        checks.append(("J-typing", (a,),
                       lambda a=a: (str(base._span.get(c.ju[a])), str((i, c.h(a, a))))))
    for a, b, x in itertools.product(objs, repeat=3):
        checks.append(("L-typing", (a, b, x),
                       lambda a=a, b=b, x=x: (
                           str(base._span.get(c.ell[(a, b, x)])),
                           str((c.h(b, x), c.h(c.h(a, b), c.h(a, x)))))))

    # naturality of I, J (dinatural), L
    for f in base.morphisms():
        a, b = base.span(f)
        checks.append(("nat-I", (f,),
                       lambda f=f, a=a, b=b: (
                           _comp_chain(base, hm_right(c, i, f), c.iu[b]),
                           _comp_chain(base, c.iu[a], f))))
        checks.append(("dinat-J", (f,),
                       lambda f=f, a=a, b=b: (
                           _comp_chain(base, c.ju[a], hm_right(c, a, f)),
                           _comp_chain(base, c.ju[b], hm_left(c, f, b)))))
    for f in base.morphisms():
        b, b2 = base.span(f)
        for a, x in itertools.product(objs, repeat=2):
            # contravariant: [f,x] then L  =  L then [[a,f],1]
            checks.append(("nat-L-contra", (a, f, x),
                           lambda a=a, f=f, x=x, b=b, b2=b2: (
                               _comp_chain(base, hm_left(c, f, x), c.ell[(a, b, x)]),
                               _comp_chain(base, c.ell[(a, b2, x)],
                                           c.hm(hm_right(c, a, f),
                                                base.identity(c.h(a, x)))))))
            # covariant: L then [1,[a,f]]  =  [x,f] then L
            checks.append(("nat-L-co", (a, x, f),
                           lambda a=a, x=x, f=f, b=b, b2=b2: (
                               _comp_chain(base, c.ell[(a, x, b)],
                                           c.hm(base.identity(c.h(a, x)), hm_right(c, a, f))),
                               _comp_chain(base, hm_right(c, x, f), c.ell[(a, x, b2)]))))
            # dinatural in a: L^a then [[f,a-slot],1]  =  L^{a'} then [1,[f,x]]
            checks.append(("dinat-L", (f, a, x),
                           lambda f=f, a=a, x=x, b=b, b2=b2: (
                               _comp_chain(base, c.ell[(b, a, x)],
                                           c.hm(hm_left(c, f, a), base.identity(c.h(b, x)))),
                               _comp_chain(base, c.ell[(b2, a, x)],
                                           c.hm(base.identity(c.h(b2, a)), hm_left(c, f, x))))))

    # the five structure axioms
    for a, b, x, d in itertools.product(objs, repeat=4):
        checks.append(("L-pentagon", (a, b, x, d),
                       lambda a=a, b=b, x=x, d=d: (
                           _comp_chain(base, c.ell[(a, x, d)],
                                       c.ell[(c.h(a, b), c.h(a, x), c.h(a, d))],
                                       c.hm(c.ell[(a, b, x)], base.identity(c.h(c.h(a, b), c.h(a, d))))),
                           _comp_chain(base, c.ell[(b, x, d)],
                                       c.hm(base.identity(c.h(b, x)), c.ell[(a, b, d)])))))
    for a, b in itertools.product(objs, repeat=2):
        checks.append(("L-J-collapse", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.ell[(a, a, b)],
                                       c.hm(c.ju[a], base.identity(c.h(a, b))),
                                       c.iu[c.h(a, b)]),
                           base.ids.get(c.h(a, b)))))
        checks.append(("J-L-triangle", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.ju[b], c.ell[(a, b, b)]),
                           c.ju.get(c.h(a, b)))))
        checks.append(("L-I-compat", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.ell[(i, a, b)],
                                       c.hm(base.identity(c.h(i, a)), c.iu[b])),
                           c.hm(c.iu[a], base.identity(b)))))
    checks.append(("I-J-unit", (i,),
                   lambda: (_comp_chain(base, c.ju[i], c.iu[i]), base.ids.get(i))))

    report = run_checks(c.name, checks)
    report.merge_prefixed(validate_category(base), "base-")
    return report.finish()


def validate_skew_closed_functor(t: SkewClosedFunctor) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    F = functools.partial(on_obj, fun)
    report = validate_functor(fun)
    checks: list[Check] = []

    checks.append(("f0-typing", (t.f0,),
                   lambda: (str(base._span.get(t.f0)), str((tgt.unit, F(src.unit))))))
    for a, b in itertools.product(src.base.objects, repeat=2):
        if (a, b) not in t.fh:
            raise MalformedTable(f"{t.name}: hom comparison not total at ({a},{b})")
        checks.append(("fh-typing", (a, b),
                       lambda a=a, b=b: (str(base._span.get(t.fh[(a, b)])),
                                         str((F(src.h(a, b)), tgt.h(F(a), F(b)))))))
    for f, g in itertools.product(src.base.morphisms(), repeat=2):
        (b, b2), (x, x2) = src.base.span(f), src.base.span(g)
        checks.append(("fh-nat", (f, g),
                       lambda f=f, g=g, b=b, b2=b2, x=x, x2=x2: (
                           _comp_chain(base, fun.mor_map.get(src.hm(f, g)), t.fh[(b, x2)]),
                           _comp_chain(base, t.fh[(b2, x)],
                                       tgt.hm(on_mor(fun, f), on_mor(fun, g))))))

    for a in src.base.objects:
        checks.append(("closed-I", (a,),
                       lambda a=a: (
                           _comp_chain(base, t.fh[(src.unit, a)], hm_left(tgt, t.f0, F(a)),
                                       tgt.iu[F(a)]),
                           fun.mor_map.get(src.iu[a]))))
        checks.append(("closed-J", (a,),
                       lambda a=a: (
                           _comp_chain(base, t.f0, fun.mor_map.get(src.ju[a]), t.fh[(a, a)]),
                           tgt.ju.get(F(a)))))
    for a, b, x in itertools.product(src.base.objects, repeat=3):
        checks.append(("closed-L", (a, b, x),
                       lambda a=a, b=b, x=x: (
                           _comp_chain(base, t.fh[(b, x)], tgt.ell[(F(a), F(b), F(x))],
                                       tgt.hm(t.fh[(a, b)], base.identity(tgt.h(F(a), F(x))))),
                           _comp_chain(base, fun.mor_map.get(src.ell[(a, b, x)]),
                                       t.fh[(src.h(a, b), src.h(a, x))],
                                       tgt.hm(base.identity(F(src.h(a, b))), t.fh[(a, x)])))))
    out = run_checks(t.name, checks)
    out.merge(report)
    return out.finish()


# --------------------------------------------------------------------------
# short braidings
# --------------------------------------------------------------------------

def validate_short_braiding(m: ShortSkewMulticategory, beta: ShortBraiding) -> ValidationReport:
    checks: list[Check] = []
    base = m.base

    for tag, arity, slot in _SPECS:
        table = beta.table(tag)
        for f in m.multimaps(TIGHT, arity):
            if f not in table:
                raise MalformedTable(f"{beta.name}: {tag} not total at {f}")
        # typing and global invertibility (bijection onto the swapped sets)
        for f in m.multimaps(TIGHT, arity):
            _, dom, cod, _ = m.info(f)
            want = (arity, _swap(dom, slot), cod, True)
            checks.append((f"{tag}-typing", (f,),
                           lambda f=f, table=table, want=want: (
                               str((m.info(table[f])[0], m.info(table[f])[1],
                                    m.info(table[f])[2], m.is_tight(table[f]))),
                               str(want))))
        for key in m.mapset_keys(TIGHT, arity):
            dom, cod = key
            source = m.mapset(TIGHT, arity, dom, cod)
            target = m.mapset(TIGHT, arity, _swap(dom, slot), cod)
            checks.append((f"{tag}-bijective", (",".join(dom), cod),
                           lambda source=source, target=target, table=table: (
                               str(sorted({table[f] for f in source})
                                   if all(f in table for f in source) else None),
                               str(sorted(target)))))
        # naturality in every slot and in the codomain
        perm = {k: k for k in range(1, arity + 1)}
        perm[slot], perm[slot + 1] = slot + 1, slot
        for f in m.multimaps(TIGHT, arity):
            _, dom, cod, _ = m.info(f)
            for q in base.mors_out_of(cod):
                checks.append((f"{tag}-nat", ("post", q, f),
                               lambda q=q, f=f, table=table: (
                                   table.get(m.safe_post(q, f)),
                                   m.safe_post(q, table.get(f)))))
            for i in range(1, arity + 1):
                for p in mors_into(base, dom[i - 1]):
                    checks.append((f"{tag}-nat", ("pre", f, str(i), p),
                                   lambda f=f, i=i, p=p, table=table, perm=perm: (
                                       table.get(m.safe_pre(f, i, p)),
                                       m.safe_pre(table.get(f), perm[i], p))))

    def b32(f):
        return beta.b32.get(f) if f is not None else None

    def b42(f):
        return beta.b42.get(f) if f is not None else None

    def b43(f):
        return beta.b43.get(f) if f is not None else None

    # Yang-Baxter style relation on quaternary maps
    for h in m.multimaps(TIGHT, 4):
        checks.append(("braid-yang-baxter", (h,),
                       lambda h=h: (b42(b43(b42(h))), b43(b42(b43(h))))))

    # ternary maps into binary ones
    for g in m.multimaps(TIGHT, 2):
        gdom = m.dom(g)
        for f in m.multimaps(TIGHT, 3):
            if m.cod(f) == gdom[0]:
                checks.append(("braid-3-in-2-slot1", (g, f),
                               lambda g=g, f=f: (m.safe_subst(g, 1, b32(f)),
                                                 b42(m.safe_subst(g, 1, f)))))
            if m.cod(f) == gdom[1]:
                checks.append(("braid-3-in-2-slot2", (g, f),
                               lambda g=g, f=f: (m.safe_subst(g, 2, b32(f)),
                                                 b43(m.safe_subst(g, 2, f)))))
    # binary maps into ternary ones
    for g in m.multimaps(TIGHT, 3):
        gdom = m.dom(g)
        for f in m.multimaps(TIGHT, 2):
            if m.cod(f) == gdom[0]:
                checks.append(("braid-2-in-3-slot1", (g, f),
                               lambda g=g, f=f: (b43(m.safe_subst(g, 1, f)),
                                                 m.safe_subst(b32(g), 1, f))))
            if m.cod(f) == gdom[1]:
                checks.append(("braid-2-in-3-slot2", (g, f),
                               lambda g=g, f=f: (b42(b43(m.safe_subst(g, 2, f))),
                                                 m.safe_subst(b32(g), 3, f))))
            if m.cod(f) == gdom[2]:
                checks.append(("braid-2-in-3-slot3", (g, f),
                               lambda g=g, f=f: (b43(b42(m.safe_subst(g, 3, f))),
                                                 m.safe_subst(b32(g), 2, f))))
    return run_checks(beta.name, checks)


def validate_braided_transport_functor(F: SkewMultiMorphism,
                                       beta_src: ShortBraiding,
                                       beta_tgt: ShortBraiding,
                                       cert_src: Certificate,
                                       cert_tgt: Certificate,
                                       src_mon: SkewMonCategory,
                                       tgt_mon: SkewMonCategory) -> ValidationReport:
    """Check preservation of the ternary swap; independently check the two
    quaternary swaps and insist the verdicts agree (preserving the ternary
    swap forces the others); finally check the transported lax functor
    preserves the transported braidings."""
    from shortcat.transport import ks_morphism
    src = F.source
    report = ValidationReport(F.name + ".braided")
    ok32 = True
    for f in src.multimaps(TIGHT, 3):
        lhs = F.safe_apply(beta_src.b32.get(f), TIGHT)
        rhs = beta_tgt.b32.get(F.safe_apply(f, TIGHT))
        report.count("preserve-b32")
        if lhs is None or lhs != rhs:
            ok32 = False
            report.fail("preserve-b32", (f,), lhs, rhs)
    ok4 = True
    for tag in ("b42", "b43"):
        for g in src.multimaps(TIGHT, 4):
            lhs = F.safe_apply(beta_src.table(tag).get(g), TIGHT)
            rhs = beta_tgt.table(tag).get(F.safe_apply(g, TIGHT))
            report.count(f"preserve-{tag}")
            if lhs is None or lhs != rhs:
                ok4 = False
                report.fail(f"preserve-{tag}", (g,), lhs, rhs)
    if ok32 and not ok4:
        raise InconsistentVerdicts(
            f"{F.name}: ternary swap preserved but a quaternary one is not")

    s_src = s_from_short_braiding(src, cert_src, beta_src)
    s_tgt = s_from_short_braiding(F.target, cert_tgt, beta_tgt)
    t = ks_morphism(F, cert_src, cert_tgt, src_mon, tgt_mon)
    braided = validate_braided_functor(t, s_src, s_tgt)
    report.merge(braided)
    return report.finish()


# --------------------------------------------------------------------------
# morphisms of short (skew) multicategories
# --------------------------------------------------------------------------

def validate_multi_morphism(F: MultiMorphism) -> ValidationReport:
    """Check table totality, typing, naturality in every variable, and
    commutation with every stored substitution."""
    src, tgt, fun = F.source, F.target, F.functor
    base_report = validate_functor(fun)
    checks: list[Check] = []

    for n in (0, 2, 3, 4):
        for f in src.multimaps(n):
            if F.maps.get(n, {}).get(f) is None:
                raise MalformedTable(f"{F.name}: no image for arity-{n} multimap {f}")
            _, dom, cod = src.info(f)
            want = (n, tuple(on_obj(fun, a) for a in dom), on_obj(fun, cod))
            checks.append(("morphism-typing", (f,),
                           lambda f=f, want=want: (str(tgt.info(multi_apply(F, f))), str(want))))

    # naturality: F(q o f) = F(q) o F(f) and F(f o_i p) = F(f) o_i F(p)
    for n in (0, 2, 3, 4):
        for f in src.multimaps(n):
            _, dom, cod = src.info(f)
            for q in src.base.mors_out_of(cod):
                checks.append(("morphism-nat", ("post", q, f),
                               lambda q=q, f=f: (F.safe_apply(src.safe_post(q, f)),
                                                 tgt.safe_post(fun.mor_map.get(q), F.safe_apply(f)))))
            for i in range(1, n + 1):
                for p in mors_into(src.base, dom[i - 1]):
                    checks.append(("morphism-nat", ("pre", f, str(i), p),
                                   lambda f=f, i=i, p=p: (F.safe_apply(src.safe_pre(f, i, p)),
                                                          tgt.safe_pre(F.safe_apply(f), i, fun.mor_map.get(p)))))

    for (n, k) in sorted(STORED_CASES):
        for g, i, f in _sub_pairs(src, n, k):
            checks.append(("morphism-sub", (g, str(i), f),
                           lambda g=g, i=i, f=f: (F.safe_apply(src.safe_subst(g, i, f)),
                                                  tgt.safe_subst(F.safe_apply(g), i, F.safe_apply(f)))))

    report = run_checks(F.name, checks)
    report.merge(base_report)
    return report.finish()


def validate_skew_multi_morphism(F: SkewMultiMorphism) -> ValidationReport:
    src, tgt, fun = F.source, F.target, F.functor
    base_report = validate_functor(fun)
    checks: list[Check] = []

    table_of = [(TIGHT, n) for n in (2, 3, 4)] + [(LOOSE, n) for n in (0, 1, 2)]
    for flavour, n in table_of:
        for f in src.multimaps(flavour, n):
            if n == 1 and flavour == LOOSE and src.is_tight(f):
                img = F.safe_apply(f)  # shared id under j = identity
            else:
                img = F.safe_apply(f, flavour)
            if img is None:
                raise MalformedTable(f"{F.name}: no image for {flavour}{n} multimap {f}")
            _, dom, cod, _ = src.info(f)
            want = (n, tuple(on_obj(fun, a) for a in dom), on_obj(fun, cod))
            checks.append(("morphism-typing", (flavour + str(n), f),
                           lambda img=img, want=want, flavour=flavour: (
                               str((tgt.info(img)[0], tgt.info(img)[1], tgt.info(img)[2],
                                    flavour in tgt.info(img)[3] or tgt.is_tight(img))),
                               str(want + (True,)))))

    for n, f in src.table_maps:
        _, dom, cod, _ = src.info(f)
        for q in src.base.mors_out_of(cod):
            checks.append(("morphism-nat", ("post", q, f),
                           lambda q=q, f=f: (F.safe_apply(src.safe_post(q, f)),
                                             tgt.safe_post(fun.mor_map.get(q), F.safe_apply(f)))))
        for i in range(1, n + 1):
            for p in mors_into(src.base, dom[i - 1]):
                checks.append(("morphism-nat", ("pre", f, str(i), p),
                               lambda f=f, i=i, p=p: (F.safe_apply(src.safe_pre(f, i, p)),
                                                      tgt.safe_pre(F.safe_apply(f), i, fun.mor_map.get(p)))))

    for case in sorted(STORED_SKEW_CASES):
        for g, i, f in sub_pairs(src, case):
            checks.append(("morphism-sub", (g, str(i), f),
                           lambda g=g, i=i, f=f: (F.safe_apply(src.safe_subst(g, i, f)),
                                                  tgt.safe_subst(F.safe_apply(g), i, F.safe_apply(f)))))

    for f in sorted(src.j):
        checks.append(("morphism-j", (f,),
                       lambda f=f: (F.safe_apply(safe_j(src, f), LOOSE),
                                    safe_j(tgt, F.safe_apply(f)))))

    report = run_checks(F.name, checks)
    report.merge(base_report)
    return report.finish()


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
# the former serializer and structure checks
# --------------------------------------------------------------------------
# serialize wrote each line through _emit. check_structure is the former
# MultiTables._check_tables, which read every entry through the typed lookups
# and the totality generators, followed on a skew structure by the former
# body of ShortSkewMulticategory.check_structure; sub_case is the former
# method, which searched the flavours of both ids in sorted order.

def _emit(lines: list[str], keyword: str, args: tuple, values) -> None:
    if isinstance(values, str):
        values = (values,)
    if not values:
        return
    head = " ".join((keyword,) + tuple(str(a) for a in args))
    lines.append(f"{head} = {' '.join(values)}")


def _category_lines(c: FinCategory) -> list[str]:
    lines: list[str] = []
    _emit(lines, "objects", (), tuple(c.objects))
    for (a, b) in sorted(c.homs):
        _emit(lines, "hom", (a, b), c.homs[(a, b)])
    for a in sorted(c.ids):
        _emit(lines, "id", (a,), c.ids[a])
    for (g, f) in sorted(c.comp):
        _emit(lines, "comp", (g, f), c.comp[(g, f)])
    return lines


def _multi_lines(m: ShortMulticategory) -> list[str]:
    lines = _category_lines(m.base)
    for n in (0, 2, 3, 4):
        for (dom, cod) in m.mapset_keys(n):
            _emit(lines, f"map{n}", dom + (cod,), m.mapset(n, dom, cod))
    for (f, i, p) in sorted(m.pre):
        _emit(lines, "pre", (f, i, p), m.pre[(f, i, p)])
    for (q, f) in sorted(m.post):
        _emit(lines, "post", (q, f), m.post[(q, f)])
    for (g, i, f) in sorted(m.sub):
        _emit(lines, "sub", (g, i, f), m.sub[(g, i, f)])
    return lines


def _skew_lines(m: ShortSkewMulticategory, beta: Optional[ShortBraiding]) -> list[str]:
    lines = _category_lines(m.base)
    for n in (2, 3, 4):
        for (dom, cod) in sorted(m.tight.get(n, {})):
            _emit(lines, f"tmap{n}", dom + (cod,), m.tight[n][(dom, cod)])
    for n in (0, 1, 2):
        for (dom, cod) in sorted(m.loose.get(n, {})):
            _emit(lines, f"lmap{n}", dom + (cod,), m.loose[n][(dom, cod)])
    for f in sorted(m.j):
        _emit(lines, "j", (f,), m.j[f])
    for (f, i, p) in sorted(m.pre):
        _emit(lines, "pre", (f, i, p), m.pre[(f, i, p)])
    for (q, f) in sorted(m.post):
        _emit(lines, "post", (q, f), m.post[(q, f)])
    for (g, i, f) in sorted(m.sub):
        _emit(lines, "sub", (g, i, f), m.sub[(g, i, f)])
    if beta is not None:
        for tag in ("b32", "b42", "b43"):
            for f in sorted(beta.table(tag)):
                _emit(lines, "beta" + tag[1:], (f,), beta.table(tag)[f])
    return lines


def _monoidal_lines(c: SkewMonCategory, braid: Optional[Braiding]) -> list[str]:
    lines = _category_lines(c.base)
    _emit(lines, "unit", (), c.unit)
    for (a, b) in sorted(c.tensor_obj):
        _emit(lines, "tensor", (a, b), c.tensor_obj[(a, b)])
    for (f, g) in sorted(c.tensor_mor):
        _emit(lines, "tensormor", (f, g), c.tensor_mor[(f, g)])
    for key in sorted(c.alpha):
        _emit(lines, "alpha", key, c.alpha[key])
    for a in sorted(c.lam):
        _emit(lines, "lambda", (a,), c.lam[a])
    for a in sorted(c.rho):
        _emit(lines, "rho", (a,), c.rho[a])
    if braid is not None:
        for key in sorted(braid.s):
            _emit(lines, "s", key, braid.s[key])
        for key in sorted(braid.s_inv):
            _emit(lines, "sinv", key, braid.s_inv[key])
    return lines


def _closed_lines(c: SkewClosedCategory) -> list[str]:
    lines = _category_lines(c.base)
    _emit(lines, "unit", (), c.unit)
    for (a, b) in sorted(c.hom_obj):
        _emit(lines, "homobj", (a, b), c.hom_obj[(a, b)])
    for (f, g) in sorted(c.hom_mor):
        _emit(lines, "hommor", (f, g), c.hom_mor[(f, g)])
    for a in sorted(c.iu):
        _emit(lines, "I", (a,), c.iu[a])
    for a in sorted(c.ju):
        _emit(lines, "J", (a,), c.ju[a])
    for key in sorted(c.ell):
        _emit(lines, "L", key, c.ell[key])
    return lines


def _morphism_lines(raw: RawMorphism) -> list[str]:
    lines: list[str] = []
    _emit(lines, "source", (), raw.source)
    _emit(lines, "target", (), raw.target)
    _emit(lines, "variant", (), raw.variant)
    for a in sorted(raw.obj_map):
        _emit(lines, "obj", (a,), raw.obj_map[a])
    for f in sorted(raw.mor_map):
        _emit(lines, "mor", (f,), raw.mor_map[f])
    for tname in sorted(raw.tables):
        for f in sorted(raw.tables[tname]):
            _emit(lines, tname, (f,), raw.tables[tname][f])
    return lines


def _lax_lines(raw: RawLaxFunctor) -> list[str]:
    lines: list[str] = []
    _emit(lines, "source", (), raw.source)
    _emit(lines, "target", (), raw.target)
    for a in sorted(raw.obj_map):
        _emit(lines, "obj", (a,), raw.obj_map[a])
    for f in sorted(raw.mor_map):
        _emit(lines, "mor", (f,), raw.mor_map[f])
    _emit(lines, "f0", (), raw.f0)
    for (a, b) in sorted(raw.f2):
        _emit(lines, "f2", (a, b), raw.f2[(a, b)])
    return lines


def serialize(sf: StructureFile) -> str:
    lines = [f"format = {FORMAT_VERSION}", f"kind = {sf.kind}", f"name = {sf.name}"]
    for key in sorted(sf.provenance):
        lines.append(f"provenance {key} = {sf.provenance[key]}")
    kind, payload = sf.kind, sf.payload
    if kind == "category":
        lines += _category_lines(payload)
    elif kind == "short-multi":
        lines += _multi_lines(payload)
    elif kind == "short-skew":
        structure, beta = payload if isinstance(payload, tuple) else (payload, None)
        lines += _skew_lines(structure, beta)
    elif kind == "skew-monoidal":
        lines += _monoidal_lines(payload, None)
    elif kind == "braiding":
        structure, braid = payload
        lines += _monoidal_lines(structure, braid)
    elif kind == "skew-closed":
        lines += _closed_lines(payload)
    elif kind == "morphism":
        lines += _morphism_lines(payload)
    elif kind == "lax-functor":
        lines += _lax_lines(payload)
    else:
        raise UnknownKind(0, f"unknown kind {kind}")
    return "\n".join(lines) + "\n"


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


def _stored(m, g: str, i: int, f: str) -> bool:
    if isinstance(m, ShortSkewMulticategory):
        return sub_case(m, g, i, f) is not None
    return (m._index[g][0], m._index[f][0]) in STORED_CASES


def check_structure(m) -> None:
    m.base.check_structure()
    idx, span = m._index, m.base._span
    for (*_, n), table in m._tables():
        for dom, cod in table:
            if len(dom) != n:
                raise MalformedTable(f"{m.name}: arity-{n} key with {len(dom)} inputs")
            for a in dom + (cod,):
                if a not in m.base.objects:
                    raise MalformedTable(f"{m.name}: unknown object {a} in multimap key")
    for (f, i, p), g in m.pre.items():
        if f not in idx or g not in idx:
            raise DanglingId(f"{m.name}: pre entry ({f},{i},{p}) dangles")
        check_slot(m.name, "pre", (f, i, p), i, m.arity(f))
        if p not in span or span[p][1] != m.dom(f)[i - 1]:
            raise MalformedTable(f"{m.name}: pre key ({f},{i},{p}) not composable")
    for (q, f), g in m.post.items():
        if f not in idx or g not in idx:
            raise DanglingId(f"{m.name}: post entry ({q},{f}) dangles")
        if q not in span or span[q][0] != m.cod(f):
            raise MalformedTable(f"{m.name}: post key ({q},{f}) not composable")
    for (g, i, f), h in m.sub.items():
        if g not in idx or f not in idx or h not in idx:
            raise DanglingId(f"{m.name}: sub entry ({g},{i},{f}) dangles")
        check_slot(m.name, "sub", (g, i, f), i, m.arity(g))
        if not _stored(m, g, i, f):
            raise MalformedTable(f"{m.name}: sub key ({g},{i},{f}) outside stored cases")
        if m.cod(f) != m.dom(g)[i - 1]:
            raise MalformedTable(f"{m.name}: sub key ({g},{i},{f}) not composable")
    for label, table, keys in (("pre", m.pre, required_pre_keys(m)),
                               ("post", m.post, required_post_keys(m)),
                               ("sub", m.sub, required_sub_keys(m))):
        for key in keys:
            if key not in table:
                raise MalformedTable(f"{m.name}: {label} table not total at {key}")
    if not isinstance(m, ShortSkewMulticategory):
        return
    for f, q in m.j.items():
        if f not in idx or q not in idx:
            raise DanglingId(f"{m.name}: j entry {f} -> {q} dangles")
        if not m.is_tight(f) or m.arity(f) not in (1, 2):
            raise MalformedTable(f"{m.name}: j keyed by non-tight or bad-arity id {f}")
        if not m.is_loose(q):
            raise TypingViolation(f"{m.name}: j({f}) = {q} is not loose")
    for n in (1, 2):
        for f in m.multimaps(TIGHT, n):
            if f not in m.j:
                raise MalformedTable(f"{m.name}: j not total at {f}")
    for (g, i, f), h in m.sub.items():
        _, x, _, y = sub_case(m, g, i, f)
        if sub_flavour(x, i, y) not in m.info(h)[3]:
            raise TypingViolation(
                f"{m.name}: sub ({g},{i},{f}) lands in the wrong tight/loose table")


# --------------------------------------------------------------------------
# the former parser
# --------------------------------------------------------------------------
# One hand-written parser per kind, with one loop per keyword. A later line
# with the key of an earlier one overwrote it, and `kw =` read `=` as an
# argument. Its canonical-form check is the former serializer above.

class _Lines:
    """The key = value rows of a file, grouped by keyword in file order.

    Every argument and value token is interned, so an id is one object in
    every table that names it and a tuple-key lookup matches on identity."""

    def __init__(self, text: str):
        self.rows: dict[str, list[tuple[int, list[str], list[str]]]] = {}
        intern = sys.intern
        for no, rawline in enumerate(text.splitlines(), start=1):
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, tail = line.partition(" = ")
            if not sep and not line.endswith(" ="):
                raise ParseError(no, f"expected 'key = value' in {line!r}")
            toks = head.split()
            if not toks:
                raise ParseError(no, "empty key")
            self.rows.setdefault(toks[0], []).append(
                (no, [*map(intern, toks[1:])], [*map(intern, tail.split())]))

    def take(self, keyword: str) -> list[tuple[int, list[str], list[str]]]:
        return self.rows.pop(keyword, [])

    def take_single(self, keyword: str, nargs: int = 0) -> Optional[tuple[int, list[str], list[str]]]:
        rows = self.take(keyword)
        if not rows:
            return None
        if len(rows) > 1:
            raise ParseError(rows[1][0], f"duplicate {keyword} line")
        no, args, vals = rows[0]
        if len(args) != nargs:
            raise ParseError(no, f"{keyword} expects {nargs} arguments")
        return rows[0]


def _one_value(no: int, keyword: str, vals: list[str]) -> str:
    if len(vals) != 1:
        raise ParseError(no, f"{keyword} expects exactly one value")
    return vals[0]


def _args(no: int, keyword: str, args: list[str], n: int) -> list[str]:
    if len(args) != n:
        raise ParseError(no, f"{keyword} expects {n} arguments, got {len(args)}")
    return args


def _parse_category(name: str, lines: _Lines) -> FinCategory:
    row = lines.take_single("objects")
    if row is None:
        raise ParseError(0, "missing objects line")
    objects = tuple(row[2])
    declared = set(objects)
    homs = {}
    for no, args, vals in lines.take("hom"):
        a, b = _args(no, "hom", args, 2)
        for o in (a, b):
            if o not in declared:
                raise ParseError(no, f"undeclared object {o!r}")
        homs[(a, b)] = tuple(vals)
    ids = {}
    for no, args, vals in lines.take("id"):
        (a,) = _args(no, "id", args, 1)
        if a not in declared:
            raise ParseError(no, f"undeclared object {a!r}")
        ids[a] = _one_value(no, "id", vals)
    comp = {}
    for no, args, vals in lines.take("comp"):
        g, f = _args(no, "comp", args, 2)
        comp[(g, f)] = _one_value(no, "comp", vals)
    return FinCategory(name, objects, homs, comp, ids)


def _parse_int(no: int, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"expected a position, got {tok!r}")


def _parse_actions(lines: _Lines):
    pre, post, sub = {}, {}, {}
    for no, args, vals in lines.take("pre"):
        f, i, p = _args(no, "pre", args, 3)
        pre[(f, _parse_int(no, i), p)] = _one_value(no, "pre", vals)
    for no, args, vals in lines.take("post"):
        q, f = _args(no, "post", args, 2)
        post[(q, f)] = _one_value(no, "post", vals)
    for no, args, vals in lines.take("sub"):
        g, i, f = _args(no, "sub", args, 3)
        sub[(g, _parse_int(no, i), f)] = _one_value(no, "sub", vals)
    return pre, post, sub


def _parse_multi(name: str, lines: _Lines) -> ShortMulticategory:
    base = _parse_category(name, lines)
    maps: dict[int, dict] = {n: {} for n in (0, 2, 3, 4)}
    for n in (0, 2, 3, 4):
        for no, args, vals in lines.take(f"map{n}"):
            parts = _args(no, f"map{n}", args, n + 1)
            maps[n][(tuple(parts[:-1]), parts[-1])] = tuple(vals)
    pre, post, sub = _parse_actions(lines)
    return ShortMulticategory(name, base, maps, pre, post, sub)


def _parse_skew(name: str, lines: _Lines):
    base = _parse_category(name, lines)
    tight: dict[int, dict] = {n: {} for n in (2, 3, 4)}
    loose: dict[int, dict] = {n: {} for n in (0, 1, 2)}
    for n in (2, 3, 4):
        for no, args, vals in lines.take(f"tmap{n}"):
            parts = _args(no, f"tmap{n}", args, n + 1)
            tight[n][(tuple(parts[:-1]), parts[-1])] = tuple(vals)
    for n in (0, 1, 2):
        for no, args, vals in lines.take(f"lmap{n}"):
            parts = _args(no, f"lmap{n}", args, n + 1)
            loose[n][(tuple(parts[:-1]), parts[-1])] = tuple(vals)
    j = {}
    for no, args, vals in lines.take("j"):
        (f,) = _args(no, "j", args, 1)
        j[f] = _one_value(no, "j", vals)
    pre, post, sub = _parse_actions(lines)
    beta_tables = {}
    for tag in ("beta32", "beta42", "beta43"):
        table = {}
        for no, args, vals in lines.take(tag):
            (f,) = _args(no, tag, args, 1)
            table[f] = _one_value(no, tag, vals)
        beta_tables[tag] = table
    structure = ShortSkewMulticategory(name, base, tight, loose, j, pre, post, sub)
    beta = None
    if any(beta_tables.values()):
        beta = ShortBraiding(name + ".beta", beta_tables["beta32"],
                             beta_tables["beta42"], beta_tables["beta43"])
    return structure, beta


def _parse_monoidal(name: str, lines: _Lines, with_braiding: bool):
    base = _parse_category(name, lines)
    row = lines.take_single("unit")
    if row is None:
        raise ParseError(0, "missing unit line")
    unit = _one_value(row[0], "unit", row[2])
    tensor_obj, tensor_mor, alpha, lam, rho = {}, {}, {}, {}, {}
    for no, args, vals in lines.take("tensor"):
        a, b = _args(no, "tensor", args, 2)
        tensor_obj[(a, b)] = _one_value(no, "tensor", vals)
    for no, args, vals in lines.take("tensormor"):
        f, g = _args(no, "tensormor", args, 2)
        tensor_mor[(f, g)] = _one_value(no, "tensormor", vals)
    for no, args, vals in lines.take("alpha"):
        a, b, c = _args(no, "alpha", args, 3)
        alpha[(a, b, c)] = _one_value(no, "alpha", vals)
    for no, args, vals in lines.take("lambda"):
        (a,) = _args(no, "lambda", args, 1)
        lam[a] = _one_value(no, "lambda", vals)
    for no, args, vals in lines.take("rho"):
        (a,) = _args(no, "rho", args, 1)
        rho[a] = _one_value(no, "rho", vals)
    structure = SkewMonCategory(name, base, tensor_obj, tensor_mor, unit, alpha, lam, rho)
    if not with_braiding:
        return structure
    s, s_inv = {}, {}
    for no, args, vals in lines.take("s"):
        x, a, b = _args(no, "s", args, 3)
        s[(x, a, b)] = _one_value(no, "s", vals)
    for no, args, vals in lines.take("sinv"):
        x, a, b = _args(no, "sinv", args, 3)
        s_inv[(x, a, b)] = _one_value(no, "sinv", vals)
    return structure, Braiding(name + ".braid", s, s_inv)


def _parse_closed(name: str, lines: _Lines) -> SkewClosedCategory:
    base = _parse_category(name, lines)
    row = lines.take_single("unit")
    if row is None:
        raise ParseError(0, "missing unit line")
    unit = _one_value(row[0], "unit", row[2])
    hom_obj, hom_mor, iu, ju, ell = {}, {}, {}, {}, {}
    for no, args, vals in lines.take("homobj"):
        a, b = _args(no, "homobj", args, 2)
        hom_obj[(a, b)] = _one_value(no, "homobj", vals)
    for no, args, vals in lines.take("hommor"):
        f, g = _args(no, "hommor", args, 2)
        hom_mor[(f, g)] = _one_value(no, "hommor", vals)
    for no, args, vals in lines.take("I"):
        (a,) = _args(no, "I", args, 1)
        iu[a] = _one_value(no, "I", vals)
    for no, args, vals in lines.take("J"):
        (a,) = _args(no, "J", args, 1)
        ju[a] = _one_value(no, "J", vals)
    for no, args, vals in lines.take("L"):
        a, b, c = _args(no, "L", args, 3)
        ell[(a, b, c)] = _one_value(no, "L", vals)
    return SkewClosedCategory(name, base, hom_obj, hom_mor, unit, iu, ju, ell)


def _parse_morphism(lines: _Lines) -> RawMorphism:
    def need(keyword):
        row = lines.take_single(keyword)
        if row is None:
            raise ParseError(0, f"missing {keyword} line")
        return _one_value(row[0], keyword, row[2])

    source, target, variant = need("source"), need("target"), need("variant")
    if variant not in ("plain", "skew"):
        raise ParseError(0, f"variant must be plain or skew, got {variant!r}")
    obj_map, mor_map = {}, {}
    for no, args, vals in lines.take("obj"):
        (a,) = _args(no, "obj", args, 1)
        obj_map[a] = _one_value(no, "obj", vals)
    for no, args, vals in lines.take("mor"):
        (f,) = _args(no, "mor", args, 1)
        mor_map[f] = _one_value(no, "mor", vals)
    tables = {}
    names = ("m0", "m2", "m3", "m4") if variant == "plain" else ("l0", "l1", "l2", "t2", "t3", "t4")
    for tname in names:
        table = {}
        for no, args, vals in lines.take(tname):
            (f,) = _args(no, tname, args, 1)
            table[f] = _one_value(no, tname, vals)
        tables[tname] = table
    return RawMorphism(source, target, variant, obj_map, mor_map, tables)


def _parse_lax(lines: _Lines) -> RawLaxFunctor:
    def need(keyword):
        row = lines.take_single(keyword)
        if row is None:
            raise ParseError(0, f"missing {keyword} line")
        return _one_value(row[0], keyword, row[2])

    source, target = need("source"), need("target")
    obj_map, mor_map, f2 = {}, {}, {}
    for no, args, vals in lines.take("obj"):
        (a,) = _args(no, "obj", args, 1)
        obj_map[a] = _one_value(no, "obj", vals)
    for no, args, vals in lines.take("mor"):
        (f,) = _args(no, "mor", args, 1)
        mor_map[f] = _one_value(no, "mor", vals)
    f0 = need("f0")
    for no, args, vals in lines.take("f2"):
        a, b = _args(no, "f2", args, 2)
        f2[(a, b)] = _one_value(no, "f2", vals)
    return RawLaxFunctor(source, target, obj_map, mor_map, f0, f2)


def parse(text: str) -> tuple[StructureFile, list[str]]:
    """Parse a structure file; returns the file and normalization warnings."""
    lines = _Lines(text)
    row = lines.take_single("format")
    if row is None:
        raise VersionMismatch(1, "missing format line")
    version = _one_value(row[0], "format", row[2])
    if version != FORMAT_VERSION:
        raise VersionMismatch(row[0], f"unsupported format version {version}")
    row = lines.take_single("kind")
    if row is None:
        raise UnknownKind(1, "missing kind line")
    kind = _one_value(row[0], "kind", row[2])
    if kind not in KINDS:
        raise UnknownKind(row[0], f"unknown kind {kind!r}")
    row = lines.take_single("name")
    if row is None:
        raise ParseError(1, "missing name line")
    name = _one_value(row[0], "name", row[2])
    provenance = {}
    for no, args, vals in lines.take("provenance"):
        (key,) = _args(no, "provenance", args, 1)
        provenance[key] = " ".join(vals)

    if kind == "category":
        payload: object = _parse_category(name, lines)
    elif kind == "short-multi":
        payload = _parse_multi(name, lines)
    elif kind == "short-skew":
        payload = _parse_skew(name, lines)
    elif kind == "skew-monoidal":
        payload = _parse_monoidal(name, lines, with_braiding=False)
    elif kind == "braiding":
        payload = _parse_monoidal(name, lines, with_braiding=True)
    elif kind == "skew-closed":
        payload = _parse_closed(name, lines)
    elif kind == "morphism":
        payload = _parse_morphism(lines)
    else:
        payload = _parse_lax(lines)

    if lines.rows:
        no, kw = min((rows[0][0], kw) for kw, rows in lines.rows.items())
        raise ParseError(no, f"unexpected keyword {kw!r} for kind {kind}")

    sf = StructureFile(kind, name, payload, provenance)
    warnings = []
    if serialize(sf) != text:
        warnings.append("input was not in canonical form; normalized on output")
    return sf, warnings


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


# --------------------------------------------------------------------------
# the former closed search of classify_flavour
# --------------------------------------------------------------------------

def right_adjoint_witness(c: SkewMonCategory, b: str, cod: str) -> Optional[tuple[str, str]]:
    """Search for (h, eps) with eps: h(x)b -> cod such that composing
    (- tensor b) with eps is a bijection hom(a, h) -> hom(ab, cod) for all a."""
    base = c.base
    for h in base.objects:
        for eps in base.hom(c.t(h, b), cod):
            ok = True
            for a in base.objects:
                seen = {}
                for v in base.hom(a, h):
                    img = _comp_chain(base, c.tm_left(v, b), eps)
                    if img is None or img in seen:
                        ok = False
                        break
                    seen[img] = v
                if not ok or len(seen) != len(base.hom(c.t(a, b), cod)):
                    ok = False
                    break
            if ok:
                return (h, eps)
    return None


# --------------------------------------------------------------------------
# the former row pre-check of ks_morphism_inverse
# --------------------------------------------------------------------------

def _check_transfer_rows(F: SkewMultiMorphism) -> None:
    """The three conditions that characterise a morphism: substitution of a
    nullary map into the second slot of a binary one, substitution of a
    binary map into the first slot of a binary one, and compatibility with
    the comparison j (which in the plain case is substitution of a nullary
    map into the first slot)."""
    src, tgt = F.source, F.target
    for g in src.multimaps(TIGHT, 2):
        dom = src.dom(g)
        for v0 in src.multimaps(LOOSE, 0):
            if src.cod(v0) == dom[1]:
                lhs = F.safe_apply(src.safe_subst(g, 2, v0))
                rhs = tgt.safe_subst(F.safe_apply(g), 2, F.safe_apply(v0, LOOSE))
                if lhs is None or lhs != rhs:
                    raise AxiomTransferFailure("right unit axiom",
                                               f"nullary into slot 2 of {g}")
        for f in src.multimaps(TIGHT, 2):
            if src.cod(f) == dom[0]:
                lhs = F.safe_apply(src.safe_subst(g, 1, f))
                rhs = tgt.safe_subst(F.safe_apply(g), 1, F.safe_apply(f))
                if lhs is None or lhs != rhs:
                    raise AxiomTransferFailure("associator axiom",
                                               f"binary into slot 1 of {g}")
    for p in src.base.morphisms():
        lhs = F.safe_apply(src.j.get(p), LOOSE)
        rhs = tgt.j.get(F.functor.mor_map.get(p))
        if lhs is None or lhs != rhs:
            raise AxiomTransferFailure("left unit axiom", f"j at {p}")
