"""Induced multimap tables: from a skew monoidal category, the short (skew)
multicategory whose n-ary maps out of (a1,...,an) are morphisms out of the
left-bracketed product (...(a1 a2)...)an, with loose maps carrying a leading
unit factor; and from a skew closed category, the closed short skew
multicategory whose maps are morphisms into iterated homs.

Both skew inductions tabulate their maps through one helper. Substitutions
are computed from the tensor (or hom) structure morphisms and then
tabulated, so the derived structures run through the ordinary table
validators. The plain induced structure of a left-normal skew monoidal
category is the skew one read through its invertible j
(shortskew.plain_of).
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from functools import reduce
from typing import Callable, Optional

from .errors import MalformedTable
from .fincat import FinCategory
from .shortmulti import ShortMulticategory
from .shortskew import LOOSE, TIGHT, ShortSkewMulticategory, plain_of, sub_flavour
from .skewmon import SkewClosedCategory, SkewMonCategory


def _wrap(flavour: str, n: int, dom: tuple[str, ...], cod: str, f: str) -> str:
    return f"{flavour}{n}({','.join(dom)};{cod})#{f}"


class _Bracketer:
    """Left-bracketed tensor calculus over a skew monoidal category.

    lbr and kappa are memoized per instance: one induction asks for the same
    products and canonical maps many times over."""

    def __init__(self, c: SkewMonCategory):
        self.c = c
        self.base = c.base
        self._lbr: dict[tuple[str, ...], str] = {}
        self._kappa: dict[tuple[str, tuple[str, ...]], str] = {}

    def lbr(self, objs: tuple[str, ...]) -> str:
        out = self._lbr.get(objs)
        if out is None:
            if not objs:
                raise MalformedTable("empty left-bracketed product")
            out = self._lbr[objs] = reduce(self.c.t, objs)
        return out

    def lbr_mor(self, mors: list[str]) -> str:
        def pair(f, g):
            h = self.c.tm(f, g)
            if h is None:
                raise MalformedTable("tensor of morphisms undefined")
            return h
        return reduce(pair, mors)

    def slot_mor(self, objs: tuple[str, ...], k: int, p: str) -> str:
        """Identity on the left-bracketed product with p in slot k (1-based)."""
        mors = [self.base.identity(o) for o in objs]
        mors[k - 1] = p
        return self.lbr_mor(mors)

    def kappa(self, x: str, objs: tuple[str, ...]) -> str:
        """The canonical ((x a1)...am) -> x ((a1 a2)...am) built from alpha."""
        out = self._kappa.get((x, objs))
        if out is None:
            if len(objs) == 1:
                out = self.base.identity(self.c.t(x, objs[0]))
            else:
                step = self.c.tm_left(self.kappa(x, objs[:-1]), objs[-1])
                out = self.base.compose(self.c.alpha[(x, self.lbr(objs[:-1]), objs[-1])], step)
            self._kappa[(x, objs)] = out
        return out

    def gamma(self, prefix: tuple[str, ...], fm: str, fdom: tuple[str, ...],
              loose_inner: bool, target: str) -> str:
        """lbr(prefix + fdom) -> lbr(prefix + (target,)) applying the inner
        map fm under a left context; loose inner maps carry a leading unit
        that is inserted with rho."""
        c, base = self.c, self.base
        x = self.lbr(prefix)
        if not loose_inner:
            k = self.kappa(x, fdom)
            return base.compose(c.tm_right(x, fm), k)
        ins = self.lbr_mor([c.rho[x]] + [base.identity(o) for o in fdom])
        k = self.kappa(x, (c.unit,) + fdom)
        return base.compose(c.tm_right(x, fm), base.compose(k, ins))


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
    for (f, i, p) in skeleton.required_pre_keys():
        n, dom, cod, fl = skeleton.info(f)
        flavour = LOOSE if LOOSE in fl else TIGHT
        full = front(f) + dom
        slot = i + len(front(f))
        newdom = dom[:i - 1] + (base.dom(p),) + dom[i:]
        pre[(f, i, p)] = rewrap(flavour, n, newdom, cod,
                                base.compose(under[f], br.slot_mor(
                                    full[:slot - 1] + (base.dom(p),) + full[slot:], slot, p)))
    post = {}
    for (q, f) in skeleton.required_post_keys():
        n, dom, _, fl = skeleton.info(f)
        flavour = LOOSE if LOOSE in fl else TIGHT
        post[(q, f)] = rewrap(flavour, n, dom, base.cod(q), base.compose(q, under[f]))

    sub = {}
    for (g, i, f) in skeleton.required_sub_keys():
        case = skeleton.sub_case(g, i, f)
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


def induce_short_multi(c: SkewMonCategory, name: Optional[str] = None) -> ShortMulticategory:
    """The plain induced structure, available when the left unit map is
    invertible: the skew one read through its invertible j."""
    from .skewmon import classify_flavour
    if not classify_flavour(c).left_normal:
        raise MalformedTable(f"{c.name}: plain induction needs an invertible left unit map")
    return plain_of(induce_short_skew(c, name))


def induced_multimap_sets(c: SkewMonCategory, cap: int = 4):
    """Induced multimap families up to an arity cap.

    With cap <= 4 this returns the short structure (plain when the left unit
    map is invertible, skew otherwise). Larger caps return the raw table
    family, keyed (flavour, arity, domain, codomain), listing the underlying
    morphisms out of the left-bracketed products."""
    if cap <= 4:
        from .skewmon import classify_flavour
        if classify_flavour(c).left_normal:
            return induce_short_multi(c)
        return induce_short_skew(c)
    br = _Bracketer(c)
    base = c.base
    out: dict[tuple, tuple[str, ...]] = {}
    for n in range(0, cap + 1):
        for dom in itertools.product(base.objects, repeat=n):
            for cod in base.objects:
                if n >= 1:
                    tight = base.hom(br.lbr(dom), cod)
                    if tight:
                        out[(TIGHT, n, dom, cod)] = tight
                loose = base.hom(br.lbr((c.unit,) + dom), cod)
                if loose:
                    out[(LOOSE, n, dom, cod)] = loose
    return out


# --------------------------------------------------------------------------
# induction from a skew closed category
# --------------------------------------------------------------------------

class _Currier:
    """Iterated-hom calculus over a skew closed category."""

    def __init__(self, c: SkewClosedCategory):
        self.c = c
        self.base = c.base

    def curry(self, objs: tuple[str, ...], cod: str) -> str:
        """[a1,[a2,...[an,cod]...]] (cod itself when the list is empty)."""
        out = cod
        for o in reversed(objs):
            out = self.c.h(o, out)
        return out

    def nest(self, objs: tuple[str, ...], f: str) -> str:
        """[a1,[...,[an, f]...]]: the covariant action under hom layers."""
        out = f
        for o in reversed(objs):
            out = self.c.hm_right(o, out)
            if out is None:
                raise MalformedTable("hom action undefined")
        return out

    def sub_map(self, fm: str, fdom: tuple[str, ...], loose_inner: bool,
                b: str, tail: str) -> str:
        """The map [b, tail] -> [a1,...[am, tail]...] that precomposes a
        b-consumer with the inner map: iterate L over the inner layers, feed
        the inner map contravariantly, and for a loose inner map strip the
        resulting unit layer with I."""
        c, base = self.c, self.base
        layers = fdom if loose_inner else fdom[1:]
        cur_in, cur_tail = b, tail
        acc = base.identity(c.h(b, tail))
        for o in reversed(layers):
            acc = base.compose(c.ell[(o, cur_in, cur_tail)], acc)
            cur_in, cur_tail = c.h(o, cur_in), c.h(o, cur_tail)
        acc = base.compose(c.hm(fm, base.identity(cur_tail)), acc)
        if loose_inner:
            acc = base.compose(c.iu[cur_tail], acc)
        return acc


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
            lifted = base.compose(c.hm_right(a1, under[f]), c.ju[a1])
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
    for (f, i, p) in skeleton.required_pre_keys():
        n, dom, cod, fl = skeleton.info(f)
        flavour = LOOSE if (LOOSE in fl and TIGHT not in fl) else TIGHT
        newdom = dom[:i - 1] + (base.dom(p),) + dom[i:]
        pre[(f, i, p)] = rewrap(flavour, n, newdom, cod, pre_action(f, i, p))

    post = {}
    for (q, f) in skeleton.required_post_keys():
        n, dom, _, fl = skeleton.info(f)
        flavour = LOOSE if (LOOSE in fl and TIGHT not in fl) else TIGHT
        layers = dom[1:] if flavour == TIGHT else dom
        post[(q, f)] = rewrap(flavour, n, dom, base.cod(q),
                              base.compose(cur.nest(layers, q), under[f]))

    sub = {}
    for (g, i, f) in skeleton.required_sub_keys():
        case = skeleton.sub_case(g, i, f)
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
