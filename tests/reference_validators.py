"""The closure-based instance checks of the short-multi and short-skew
validators, kept as the reference that tests/test_kernel.py compares the
closure-free check kernels against.

Each generator yields (family, subjects, thunk) per law instance and the
validators below evaluate them through report.run_checks, exactly as the
package did before its validators became per-family loops. The generator
bodies are unchanged apart from their names and from all_tables, a method
of ShortSkewMulticategory then and a function here now.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from shortcat.fincat import validate_category
from shortcat.report import Check, ValidationReport, run_checks
from shortcat.shortmulti import STORED_CASES, ShortMulticategory, expected_sub_type
from shortcat.shortskew import (
    LOOSE, STORED_SKEW_CASES, TIGHT, ShortSkewMulticategory, expected_skew_sub_type,
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
