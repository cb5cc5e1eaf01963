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

The file ends with the package's former plain induction, induce_short_multi,
which tabulated the plain structure itself instead of reading it off the
skew one. It took the unit inverses from a field of skewmon.Flavour that is
gone; here it computes them with is_iso.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Optional

from shortcat.braiding import _SPECS, ShortBraiding, _swap, s_from_short_braiding
from shortcat.classify import Certificate
from shortcat.errors import DanglingId, InconsistentVerdicts, MalformedTable
from shortcat.fincat import FinCategory, FinFunctor, composable_pairs
from shortcat.induce import _Bracketer, _wrap
from shortcat.report import Check, ValidationReport, run_checks
from shortcat.shortmulti import (
    STORED_CASES, MultiMorphism, ShortMulticategory, _sub_pairs, expected_sub_type,
)
from shortcat.shortskew import (
    LOOSE, STORED_SKEW_CASES, TIGHT, ShortSkewMulticategory, SkewMultiMorphism,
    expected_skew_sub_type,
)
from shortcat.skewmon import (
    Braiding, LaxMonFunctor, SkewClosedCategory, SkewClosedFunctor, SkewMonCategory,
    _comp_chain, check_braiding_total,
)

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
                for p in base.mors_into(dom[i - 1]):
                    for p2 in base.mors_into(base.dom(p)):
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
                for p in base.mors_into(dom[i - 1]):
                    for p2 in base.mors_into(dom[j - 1]):
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
                for p in base.mors_into(fdom[t - 1]):
                    yield ("nat-in-a", (g, str(i), f, str(t), p),
                           lambda g=g, i=i, f=f, t=t, p=p: (
                               m.safe_subst(g, i, m.safe_pre(f, t, p)),
                               m.safe_pre(m.safe_subst(g, i, f), i - 1 + t, p)))
            # naturality in the outer, non-substituted domain objects
            for j in range(1, n + 1):
                if j == i:
                    continue
                pos = j if j < i else j + k - 1
                for p in base.mors_into(gdom[j - 1]):
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
                for w in base.mors_into(e):
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
            case = m.sub_case(g, i, f)
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
            for p in base.mors_into(dom[i - 1]):
                for p2 in base.mors_into(base.dom(p)):
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
            for p in base.mors_into(dom[i - 1]):
                for p2 in base.mors_into(dom[jx - 1]):
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
                       lambda g=g, p=p: (m.safe_subst(g, 2, m.safe_j(p)), m.safe_pre(g, 2, p)))
            if m.dom(g)[0] == b:
                yield ("j-nat", ("g-pos1", g, p),
                       lambda g=g, p=p: (m.safe_subst(g, 1, m.safe_j(p)),
                                         m.safe_j(m.safe_pre(g, 1, p))))
        for q in base.mors_out_of(b):
            yield ("j-nat", ("post", q, p),
                   lambda q=q, p=p: (m.safe_post(q, m.safe_j(p)),
                                     m.safe_j(base.compose_opt(q, p))))
        for g in m.multimaps(TIGHT, 2):
            if m.cod(g) == a:
                yield ("j-nat", ("into-binary", p, g),
                       lambda p=p, g=g: (m.safe_subst(m.safe_j(p), 1, g),
                                         m.safe_j(m.safe_post(p, g))))
        for key in m.mapset_keys(LOOSE, 0):
            if key[1] != a:
                continue
            for v in m.mapset(LOOSE, 0, *key):
                yield ("j-nat", ("into-nullary", p, v),
                       lambda p=p, v=v: (m.safe_subst(m.safe_j(p), 1, v),
                                         m.safe_post(p, v)))
    for g in m.multimaps(TIGHT, 2):
        a = m.dom(g)[0]
        yield ("j-derived", ("binary", g),
               lambda g=g, a=a: (m.safe_j(g), m.safe_subst(g, 1, m.safe_j(base.identity(a)))))
    for q in base.morphisms():
        a = base.dom(q)
        yield ("j-derived", ("unary", q),
               lambda q=q, a=a: (m.safe_j(q), m.safe_post(q, m.safe_j(base.identity(a)))))


def skew_naturality_checks(m: ShortSkewMulticategory) -> Iterator[Check]:
    base = m.base
    for case in sorted(STORED_SKEW_CASES):
        n, x, k, y = case
        tag = f"{x}{n}-{y}{k}"
        for g, i, f in m.sub_pairs(case):
            fdom, gdom, gcod = m.dom(f), m.dom(g), m.cod(g)
            for t in range(1, k + 1):
                for p in base.mors_into(fdom[t - 1]):
                    yield ("nat-in-a", (tag, g, str(i), f, str(t), p),
                           lambda g=g, i=i, f=f, t=t, p=p: (
                               m.safe_subst(g, i, m.safe_pre(f, t, p)),
                               m.safe_pre(m.safe_subst(g, i, f), i - 1 + t, p)))
            for jx in range(1, n + 1):
                if jx == i:
                    continue
                pos = jx if jx < i else jx + k - 1
                for p in base.mors_into(gdom[jx - 1]):
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
                for w in base.mors_into(e):
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
                       lambda f=f, a=a, b=b: (str(tgt.span(fun.on_mor(f))),
                                              str((fun.on_obj(a), fun.on_obj(b))))))
    for a in src.objects:
        checks.append(("functor-id", (a,),
                       lambda a=a: (fun.on_mor(src.identity(a)),
                                    tgt.ids.get(fun.on_obj(a)))))
    for g, f in composable_pairs(src):
        checks.append(("functor-comp", (g, f),
                       lambda g=g, f=f: (fun.mor_map.get(src.comp[(g, f)]),
                                         tgt.compose_opt(fun.on_mor(g), fun.on_mor(f)))))
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
                           _comp_chain(base, c.tm_right(c.unit, f), c.lam[b]),
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
                                       c.tm_right(a, c.alpha[(b, x, d)])))))
    for a, b in itertools.product(objs, repeat=2):
        checks.append(("left-unit", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.alpha[(i, a, b)], c.lam[c.t(a, b)]),
                           c.tm_left(c.lam[a], b))))
        checks.append(("right-unit", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.rho[c.t(a, b)], c.alpha[(a, b, i)]),
                           c.tm_right(a, c.rho[b]))))
        checks.append(("middle-unit", (a, b),
                       lambda a=a, b=b: (
                           _comp_chain(base, c.tm_left(c.rho[a], b), c.alpha[(a, i, b)],
                                       c.tm_right(a, c.lam[b])),
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

    fi = fun.on_obj(src.unit)
    checks.append(("f0-typing", (t.f0,),
                   lambda: (str(base._span.get(t.f0)), str((tgt.unit, fi)))))
    for a, b in itertools.product(src.base.objects, repeat=2):
        if (a, b) not in t.f2:
            raise MalformedTable(f"{t.name}: f2 not total at ({a},{b})")
        checks.append(("f2-typing", (a, b),
                       lambda a=a, b=b: (str(base._span.get(t.f2[(a, b)])),
                                         str((tgt.t(fun.on_obj(a), fun.on_obj(b)),
                                              fun.on_obj(src.t(a, b)))))))
    for f, g in itertools.product(src.base.morphisms(), repeat=2):
        (a, a2), (b, b2) = src.base.span(f), src.base.span(g)
        checks.append(("f2-nat", (f, g),
                       lambda f=f, g=g, a=a, b=b, a2=a2, b2=b2: (
                           _comp_chain(base, tgt.tm(fun.on_mor(f), fun.on_mor(g)), t.f2[(a2, b2)]),
                           _comp_chain(base, t.f2[(a, b)], fun.mor_map.get(src.tm(f, g))))))

    F = fun.on_obj
    for a, b, x in itertools.product(src.base.objects, repeat=3):
        checks.append(("lax-assoc", (a, b, x),
                       lambda a=a, b=b, x=x: (
                           _comp_chain(base, tgt.tm_left(t.f2[(a, b)], F(x)),
                                       t.f2[(src.t(a, b), x)],
                                       fun.mor_map.get(src.alpha[(a, b, x)])),
                           _comp_chain(base, tgt.alpha[(F(a), F(b), F(x))],
                                       tgt.tm_right(F(a), t.f2[(b, x)]),
                                       t.f2[(a, src.t(b, x))]))))
    for a in src.base.objects:
        checks.append(("lax-left-unit", (a,),
                       lambda a=a: (
                           _comp_chain(base, tgt.tm_left(t.f0, F(a)), t.f2[(src.unit, a)],
                                       fun.mor_map.get(src.lam[a])),
                           tgt.lam.get(F(a)))))
        checks.append(("lax-right-unit", (a,),
                       lambda a=a: (
                           _comp_chain(base, tgt.rho[F(a)], tgt.tm_right(F(a), t.f0),
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
                                       c.tm_right(x, s[(a, b, e)])),
                           _comp_chain(base, s[(c.t(x, a), b, e)],
                                       c.tm_left(c.alpha[(x, a, e)], b),
                                       c.alpha[(x, c.t(a, e), b)]))))
    return run_checks(braid.name, checks)


def validate_braided_functor(t: LaxMonFunctor, s_src: Braiding, s_tgt: Braiding) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    F = fun.on_obj
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
                           _comp_chain(base, c.hm_right(i, f), c.iu[b]),
                           _comp_chain(base, c.iu[a], f))))
        checks.append(("dinat-J", (f,),
                       lambda f=f, a=a, b=b: (
                           _comp_chain(base, c.ju[a], c.hm_right(a, f)),
                           _comp_chain(base, c.ju[b], c.hm_left(f, b)))))
    for f in base.morphisms():
        b, b2 = base.span(f)
        for a, x in itertools.product(objs, repeat=2):
            # contravariant: [f,x] then L  =  L then [[a,f],1]
            checks.append(("nat-L-contra", (a, f, x),
                           lambda a=a, f=f, x=x, b=b, b2=b2: (
                               _comp_chain(base, c.hm_left(f, x), c.ell[(a, b, x)]),
                               _comp_chain(base, c.ell[(a, b2, x)],
                                           c.hm(c.hm_right(a, f),
                                                base.identity(c.h(a, x)))))))
            # covariant: L then [1,[a,f]]  =  [x,f] then L
            checks.append(("nat-L-co", (a, x, f),
                           lambda a=a, x=x, f=f, b=b, b2=b2: (
                               _comp_chain(base, c.ell[(a, x, b)],
                                           c.hm(base.identity(c.h(a, x)), c.hm_right(a, f))),
                               _comp_chain(base, c.hm_right(x, f), c.ell[(a, x, b2)]))))
            # dinatural in a: L^a then [[f,a-slot],1]  =  L^{a'} then [1,[f,x]]
            checks.append(("dinat-L", (f, a, x),
                           lambda f=f, a=a, x=x, b=b, b2=b2: (
                               _comp_chain(base, c.ell[(b, a, x)],
                                           c.hm(c.hm_left(f, a), base.identity(c.h(b, x)))),
                               _comp_chain(base, c.ell[(b2, a, x)],
                                           c.hm(base.identity(c.h(b2, a)), c.hm_left(f, x))))))

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
    F = fun.on_obj
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
                                       tgt.hm(fun.on_mor(f), fun.on_mor(g))))))

    for a in src.base.objects:
        checks.append(("closed-I", (a,),
                       lambda a=a: (
                           _comp_chain(base, t.fh[(src.unit, a)], tgt.hm_left(t.f0, F(a)),
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
                for p in base.mors_into(dom[i - 1]):
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
            want = (n, tuple(fun.on_obj(a) for a in dom), fun.on_obj(cod))
            checks.append(("morphism-typing", (f,),
                           lambda f=f, want=want: (str(tgt.info(F.apply(f))), str(want))))

    # naturality: F(q o f) = F(q) o F(f) and F(f o_i p) = F(f) o_i F(p)
    for n in (0, 2, 3, 4):
        for f in src.multimaps(n):
            _, dom, cod = src.info(f)
            for q in src.base.mors_out_of(cod):
                checks.append(("morphism-nat", ("post", q, f),
                               lambda q=q, f=f: (F.safe_apply(src.safe_post(q, f)),
                                                 tgt.safe_post(fun.mor_map.get(q), F.safe_apply(f)))))
            for i in range(1, n + 1):
                for p in src.base.mors_into(dom[i - 1]):
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
            want = (n, tuple(fun.on_obj(a) for a in dom), fun.on_obj(cod))
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
            for p in src.base.mors_into(dom[i - 1]):
                checks.append(("morphism-nat", ("pre", f, str(i), p),
                               lambda f=f, i=i, p=p: (F.safe_apply(src.safe_pre(f, i, p)),
                                                      tgt.safe_pre(F.safe_apply(f), i, fun.mor_map.get(p)))))

    for case in sorted(STORED_SKEW_CASES):
        for g, i, f in src.sub_pairs(case):
            checks.append(("morphism-sub", (g, str(i), f),
                           lambda g=g, i=i, f=f: (F.safe_apply(src.safe_subst(g, i, f)),
                                                  tgt.safe_subst(F.safe_apply(g), i, F.safe_apply(f)))))

    for f in sorted(src.j):
        checks.append(("morphism-j", (f,),
                       lambda f=f: (F.safe_apply(src.safe_j(f), LOOSE),
                                    tgt.safe_j(F.safe_apply(f)))))

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
    for (f, i, p) in skeleton.required_pre_keys():
        n, dom, cod = skeleton.info(f)
        newdom = dom[:i - 1] + (base.dom(p),) + dom[i:]
        pre[(f, i, p)] = rewrap(n, newdom, cod,
                                base.compose(under[f], br.slot_mor(newdom, i, p)))
    post = {}
    for (q, f) in skeleton.required_post_keys():
        n, dom, _ = skeleton.info(f)
        post[(q, f)] = rewrap(n, dom, base.cod(q), base.compose(q, under[f]))

    sub = {}
    for (g, i, f) in skeleton.required_sub_keys():
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
