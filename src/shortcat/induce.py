"""Induced multimap tables: from a skew monoidal category, the short (skew)
multicategory whose n-ary maps out of (a1,...,an) are morphisms out of the
left-bracketed product (...(a1 a2)...)an, with loose maps carrying a leading
unit factor; and from a skew closed category, the closed short skew
multicategory whose maps are morphisms into iterated homs.

Both skew inductions build their tables through shortskew.build, which
types every entry; each supplies only its formulas, the underlying morphism
of each j, pre, post and sub entry computed from the tensor (or hom)
structure morphisms. So the derived structures run through the ordinary
table validators. The plain induced structure of a left-normal skew monoidal
category is the skew one read through its invertible j
(shortskew.plain_of).
"""
from __future__ import annotations

from functools import reduce
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .errors import MalformedTable
from .fincat import FinCategory
from .shortmulti import ShortMulticategory
from .shortskew import LOOSE, TIGHT, ShortSkewMulticategory, build, map_id, plain_of
from .skewmon import SkewClosedCategory, SkewMonCategory


class _Bracketer:
    """Left-bracketed tensor calculus over a skew monoidal category.

    lbr and kappa are memoized per instance: one induction asks for the same
    products and canonical maps many times over."""

    def __init__(self, c: SkewMonCategory):
        self.c, self.base, self.tm = c, c.base, c.tensor_mor.get
        self._lbr: dict[tuple[str, ...], str] = {}
        self._kappa: dict[tuple[str, tuple[str, ...]], str] = {}

    def lbr(self, objs: tuple[str, ...]) -> str:
        out = self._lbr.get(objs)
        if out is None:
            if not objs:
                raise MalformedTable(f"{self.c.name}: empty left-bracketed product")
            out = self._lbr[objs] = reduce(self.c.t, objs)
        return out

    def lbr_mor(self, mors: list[str]) -> str:
        tm, out = self.tm, mors[0]
        for g in mors[1:]:
            f, out = out, tm((out, g))
            if out is None:
                raise MalformedTable(f"{self.c.name}: tensor of morphisms ({f},{g}) undefined")
        return out

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
                step = self.tm((self.kappa(x, objs[:-1]), self.base.identity(objs[-1])))
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
            return base.compose(self.tm((base.identity(x), fm)), k)
        ins = self.lbr_mor([c.rho[x]] + [base.identity(o) for o in fdom])
        k = self.kappa(x, (c.unit,) + fdom)
        return base.compose(self.tm((base.identity(x), fm)), base.compose(k, ins))


def _induce(name: str, base: FinCategory,
            homs: Callable[[str, tuple[str, ...]], Iterable[tuple[str, tuple[str, ...]]]],
            formula: Callable[[str, Hashable, tuple, dict], str]) -> ShortSkewMulticategory:
    """The induced structure whose tight (arities 2-4) and loose (arities
    0-2) maps (dom; cod) are the base morphisms of the pair (cod, morphisms)
    of homs(flavour, dom), which gives the inhabited codomains in
    base.objects order, each wrapped in an id of its type; a tight unary map
    is its base morphism. The entry keyed `key` of `table` with type `ty`
    (see shortskew.build) is the map of that type whose underlying morphism
    is formula(table, key, ty, under), where under takes each id to its
    underlying morphism, flavour and domain."""
    under = {p: (p, TIGHT, (a,)) for p, (a, _) in base._span.items()}
    wrap_of = {(TIGHT, 1, (a,), b, p): p for p, (a, b) in base._span.items()}

    def members(flavour: str, n: int, dom: tuple[str, ...]) -> Iterator[tuple[str, list[str]]]:
        for cod, fs in homs(flavour, dom):
            ws = []
            for f in fs:
                w = wrap_of[flavour, n, dom, cod, f] = f"{map_id(flavour, n, dom, cod)}#{f}"
                under[w] = (f, flavour, dom)
                ws.append(w)
            yield cod, ws

    def pick(table: str, key: Hashable, ty: tuple) -> Optional[str]:
        return wrap_of.get(ty + (formula(table, key, ty, under),))

    return build(name, base, members, pick)


def induced_morphism(w: str, flavour: str, dom: tuple[str, ...], cod: str) -> str:
    """The base morphism under w, a map (dom; cod) of the given flavour that
    _induce wrapped (any type but tight unary), so also a map of its
    plain_of, which keeps the ids. The id is map_id(...)#f; it is cut at
    that prefix's length, not split at '#', which an object may hold."""
    return w[len(map_id(flavour, len(dom), dom, cod)) + 1:]


def induce_short_skew(c: SkewMonCategory, name: Optional[str] = None) -> ShortSkewMulticategory:
    """The short skew multicategory of a skew monoidal category: tight maps
    out of left-bracketed products, loose maps with a leading unit factor,
    j given by the left unit map."""
    br = _Bracketer(c)
    base = c.base
    compose, identity, tm = base.compose, base.identity, br.tm
    front = {TIGHT: (), LOOSE: (c.unit,)}  # loose maps carry a leading unit factor

    def formula(table: str, key: Hashable, ty: tuple, under: dict) -> str:
        flavour, _, dom, _ = ty
        if table == "j":
            lam_slot = br.lbr_mor([c.lam[dom[0]]] + [identity(o) for o in dom[1:]])
            return compose(under[key][0], lam_slot)
        if table == "pre":
            f, i, p = key
            lead = front[flavour]
            return compose(under[f][0], br.slot_mor(lead + dom, len(lead) + i, p))
        if table == "post":
            q, f = key
            return compose(q, under[f][0])
        g, i, f = key
        (gm, x, gdom), (fm, y, fdom) = under[g], under[f]
        prefix = front[x] + gdom[:i - 1]
        ext = br.gamma(prefix, fm, fdom, y == LOOSE, gdom[i - 1]) if prefix else fm
        for sobj in gdom[i:]:
            ext = tm((ext, identity(sobj)))
        return compose(gm, ext)

    def homs(flavour: str, dom: tuple[str, ...]) -> list[tuple[str, tuple[str, ...]]]:
        source = br.lbr(front[flavour] + dom)
        return [(cod, fs) for cod in base.objects if (fs := base.hom(source, cod))]

    return _induce(name or (c.name + ".induced"), base, homs, formula)


def induce_short_multi(c: SkewMonCategory, name: Optional[str] = None) -> ShortMulticategory:
    """The plain induced structure, available when the left unit map is
    invertible: the skew one read through its invertible j."""
    from .skewmon import classify_flavour
    if not classify_flavour(c).left_normal:
        raise MalformedTable(f"{c.name}: plain induction needs an invertible left unit map")
    return plain_of(induce_short_skew(c, name))


# --------------------------------------------------------------------------
# induction from a skew closed category
# --------------------------------------------------------------------------

class _Currier:
    """Iterated-hom calculus over a skew closed category."""

    def __init__(self, c: SkewClosedCategory):
        self.c, self.base, self.hm = c, c.base, c.hom_mor.get

    def curry(self, objs: tuple[str, ...], cod: str) -> str:
        """[a1,[a2,...[an,cod]...]] (cod itself when the list is empty)."""
        out = cod
        for o in reversed(objs):
            out = self.c.h(o, out)
        return out

    def nest(self, objs: tuple[str, ...], f: str) -> str:
        """[a1,[...,[an, f]...]]: the covariant action under hom layers."""
        hm, identity, out = self.hm, self.base.identity, f
        for o in reversed(objs):
            g, out = out, hm((identity(o), out))
            if out is None:
                raise MalformedTable(f"{self.c.name}: hom action [{o},{g}] undefined")
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
        acc = base.compose(self.hm((fm, base.identity(cur_tail))), acc)
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
    compose, identity, hm = base.compose, base.identity, cur.hm

    def homs(flavour: str, dom: tuple[str, ...]) -> list[tuple[str, tuple[str, ...]]]:
        source, rest = (dom[0], dom[1:]) if flavour == TIGHT else (c.unit, dom)
        return [(cod, fs) for cod in base.objects if (fs := base.hom(source, cur.curry(rest, cod)))]

    def formula(table: str, key: Hashable, ty: tuple, under: dict) -> str:
        flavour, _, dom, cod = ty
        if table == "j":
            return compose(hm((identity(dom[0]), under[key][0])), c.ju[dom[0]])
        if table == "pre":
            f, i, p = key
            if flavour == TIGHT and i == 1:
                return compose(under[f][0], p)
            before = dom[:i - 1] if flavour == LOOSE else dom[1:i - 1]
            action = hm((p, identity(cur.curry(dom[i:], cod))))
            return compose(cur.nest(before, action), under[f][0])
        if table == "post":
            q, f = key
            return compose(cur.nest(dom[1:] if flavour == TIGHT else dom, q), under[f][0])
        g, i, f = key
        (gm, xfl, gdom), (fm, yfl, fdom) = under[g], under[f]
        if xfl == TIGHT and i == 1:
            # feed the whole consumer through the inner map's codomain layer
            return compose(cur.nest(fdom[1:] if yfl == TIGHT else fdom, gm), fm)
        outer_layers = gdom[1:i - 1] if xfl == TIGHT else gdom[:i - 1]
        action = cur.sub_map(fm, fdom, yfl == LOOSE, gdom[i - 1], cur.curry(gdom[i:], cod))
        return compose(cur.nest(outer_layers, action), gm)

    return _induce(name or (c.name + ".induced"), base, homs, formula)
