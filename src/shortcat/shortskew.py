"""Short skew multicategories: tight/loose tables, the comparison j, typed
substitution, and the validator.

Tight multimaps exist for arities 1 to 4 (arity 1 = base homs), loose ones
for arities 0 to 2. A substitution output is tight exactly when the outer
map is tight and either the position is not 1 or the inner map is tight.
The stored substitution cases are:

    tight binary  into tight binary   (outer t2, inner t2)
    tight binary  into tight ternary  (outer t3, inner t2)
    tight ternary into tight binary   (outer t2, inner t3)
    nullary       into tight binary   (outer t2, inner l0)
    nullary       into tight ternary  (outer t3, inner l0)
    nullary       into loose unary    (outer l1, inner l0)
    loose unary   into tight binary   (outer t2, inner l1)
    tight binary  into loose unary    (outer l1, inner t2)

Tight unary maps are base morphisms: substituting them routes through the
pre-action tables, substituting into them routes through post-action.
Loose unary maps are not base morphisms and have their own tables.

A plain short multicategory embeds as the case where the loose tables are
the tight ones and j is the identity; identifiers may then belong to both
flavours, and the lookups prefer the tight route (which agrees with
the loose one by j-naturality).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import MalformedTable, TypingViolation
from .fincat import FinCategory, FinFunctor, check_members, validate_category, validate_functor
from .report import ValidationReport, tally
from .shortmulti import (
    Key, MultiMorphism, MultiTables, ShortMulticategory, assoc_checks, identity_checks,
    morphism_law_checks, naturality_checks, profunctor_checks, typing_checks,
)

TIGHT = "t"
LOOSE = "l"

# (outer arity, outer flavour, inner arity, inner flavour) with stored tables
STORED_SKEW_CASES = frozenset({
    (2, TIGHT, 2, TIGHT), (3, TIGHT, 2, TIGHT), (2, TIGHT, 3, TIGHT),
    (2, TIGHT, 0, LOOSE), (3, TIGHT, 0, LOOSE),
    (1, LOOSE, 0, LOOSE), (2, TIGHT, 1, LOOSE), (1, LOOSE, 2, TIGHT),
})

_FLAVOURS = (frozenset({TIGHT}), frozenset({LOOSE}), frozenset({TIGHT, LOOSE}))

# (outer arity, outer flavours, inner arity, inner flavours) -> the stored
# case of a substitution between maps of those types: the first one in sorted
# flavour order. The cases go in descending order, so the first one is the
# last written and wins.
_CASE_OF = {(n, xs, k, ys): (n, x, k, y)
            for n, x, k, y in sorted(STORED_SKEW_CASES, reverse=True)
            for xs in _FLAVOURS if x in xs
            for ys in _FLAVOURS if y in ys}


def sub_flavour(x: str, i: int, y: str) -> str:
    """Tight exactly when the outer map is tight and (i != 1 or the inner is tight)."""
    if x == TIGHT and y == TIGHT and i == 1:
        return TIGHT
    if x == TIGHT and i != 1:
        return TIGHT
    return LOOSE


# (outer arity, outer flavours, inner arity, inner flavours, slot) -> the
# flavour a substitution between maps of those types lands in: sub_flavour
# of its stored case at that slot.
_LANDING = {(n, xs, k, ys, i): sub_flavour(x, i, y)
            for (n, xs, k, ys), (_, x, _, y) in _CASE_OF.items() for i in range(1, n + 1)}


@dataclass(frozen=True)
class ShortSkewMulticategory(MultiTables):
    name: str
    base: FinCategory
    tight: dict[int, dict[Key, tuple[str, ...]]]   # arities 2,3,4 (1 = base homs)
    loose: dict[int, dict[Key, tuple[str, ...]]]   # arities 0,1,2
    j: dict[str, str]                              # tight unary/binary id -> loose id
    pre: dict[tuple[str, int, str], str]           # (f, i, p), p a base morphism
    post: dict[tuple[str, str], str]               # (q, f), q a base morphism
    sub: dict[tuple[str, int, str], str]           # typed stored cases
    _index: dict[str, tuple[int, tuple[str, ...], str, frozenset]] = field(
        default_factory=dict, repr=False, compare=False)

    _BASE_HEAD = (TIGHT, 1)
    _CASES = tuple(((f"{x}{n}-{y}{k}",), (x, n), (y, k))
                   for n, x, k, y in sorted(STORED_SKEW_CASES))

    def __post_init__(self):
        # a stored tight arity-1 table is checked after tight arities 2-4
        loaded = self._load(((flavour, n), tables.get(n, {}))
                            for flavour, tables, arities in ((TIGHT, self.tight, (2, 3, 4, 1)),
                                                             (LOOSE, self.loose, (0, 1, 2)))
                            for n in arities)
        object.__setattr__(self, "tight", {n: loaded[TIGHT, n] for n in (2, 3, 4)})
        object.__setattr__(self, "loose", {n: loaded[LOOSE, n] for n in (0, 1, 2)})

    def is_tight(self, f: str) -> bool:
        return TIGHT in self.info(f)[3]

    def is_loose(self, f: str) -> bool:
        return LOOSE in self.info(f)[3]

    # -- what the table core needs --------------------------------------------
    @cached_property
    def table_maps(self) -> tuple[tuple[int, str], ...]:
        """(arity, multimap) over every non-base table entry, each id once,
        tight tables first."""
        span, arity = self.base._span, {}
        for flavour, arities in ((TIGHT, (2, 3, 4)), (LOOSE, (0, 1, 2))):
            for n in arities:
                for f in self.multimaps(flavour, n):
                    if f not in span:
                        arity.setdefault(f, n)
        return tuple((n, f) for f, n in arity.items())

    def _tables(self) -> Iterator[tuple[tuple, dict]]:
        return (((flavour, n), table)
                for flavour, tables in ((TIGHT, self.tight), (LOOSE, self.loose))
                for n, table in tables.items())

    def check_structure(self) -> None:
        """The shared table checks with j keyed by exactly the tight unary
        and binary maps, then that j lands loose and each sub result lands in
        the tight/loose table of its stored case."""
        name, idx, j = self.name, self._index, self.j
        self._check_rows(("j", j, 1, (self.multimaps(TIGHT, 1) + self.multimaps(TIGHT, 2),
                                      "a tight unary or binary map"), (idx, "a multimap")))
        for f, q in j.items():
            if LOOSE not in idx[q][3]:
                raise TypingViolation(f"{name}: j({f}) = {q} is not loose")
        for (g, i, f), h in self.sub.items():
            n, _, _, xs = idx[g]
            k, _, _, ys = idx[f]
            if _LANDING[n, xs, k, ys, i] not in idx[h][3]:
                raise TypingViolation(
                    f"{name}: sub ({g},{i},{f}) lands in the wrong tight/loose table")


@dataclass(frozen=True)
class ShortBraiding:
    """The swap tables of a short braiding on a short skew multicategory:
    b32 swaps slots 2,3 of tight ternary maps; b42 and b43 swap slots 2,3
    and 3,4 of tight quaternary maps."""
    name: str
    b32: dict[str, str]
    b42: dict[str, str]
    b43: dict[str, str]

    def table(self, tag: str) -> dict[str, str]:
        return {"b32": self.b32, "b42": self.b42, "b43": self.b43}[tag]


# --------------------------------------------------------------------------
# constructed structures
# --------------------------------------------------------------------------

def map_id(tag: str, n: int, dom: tuple[str, ...], cod: str) -> str:
    """The id a constructed structure gives a multimap of arity n, (dom; cod):
    the tag is the flavour, or m for a plain map."""
    return f"{tag}{n}({','.join(dom)};{cod})"


def build(name: str, base: FinCategory,
          members: Callable[[str, int, tuple[str, ...]], Iterable[tuple[str, Sequence[str]]]],
          pick: Callable[[str, Hashable, tuple[str, int, tuple[str, ...], str]], Optional[str]]
          ) -> ShortSkewMulticategory:
    """The short skew multicategory whose tight (arities 2-4) and loose
    (arities 0-2) maps out of dom are members(flavour, n, dom): a (cod,
    maps (dom; cod)) pair for each codomain with maps, in base.objects
    order, asked once per domain. It has every required j, pre, post and
    sub entry.

    Each entry is typed here and only here: j sends a tight unary or binary
    map to a loose one of its type, a pre or post result keeps the flavour
    of its map (the first in sorted flavour order, as for the stored
    cases), and a sub result takes sub_flavour of its stored case. The
    entry keyed `key` of
    `table` ("j", "pre", "post" or "sub") is pick(table, key, type), which
    names a map of type = (flavour, arity, domain, codomain), or gives None
    when it finds none; MalformedTable then."""
    tight: dict[int, dict] = {}
    loose: dict[int, dict] = {}
    for flavour, arities, tables in ((TIGHT, (2, 3, 4), tight), (LOOSE, (0, 1, 2), loose)):
        for n in arities:
            table = tables[n] = {}
            for dom in itertools.product(base.objects, repeat=n):
                for cod, fs in members(flavour, n, dom):
                    table[dom, cod] = fs
    # built once: the loop below reads its tables and fills j, pre, post, sub
    j, pre, post, sub = {}, {}, {}, {}
    m = ShortSkewMulticategory(name, base, tight, loose, j, pre, post, sub)
    idx, span = m._index, base._span
    pre_keys, post_keys, cases = m.domains

    def entries():
        for f in m.multimaps(TIGHT, 1) + m.multimaps(TIGHT, 2):
            yield j, "j", f, (LOOSE,) + idx[f][:3]
        for key in pre_keys:
            f, i, p = key
            n, dom, cod, fl = idx[f]
            yield pre, "pre", key, (min(fl), n, dom[:i - 1] + (span[p][0],) + dom[i:], cod)
        for key in post_keys:
            q, f = key
            n, dom, _, fl = idx[f]
            yield post, "post", key, (min(fl), n, dom, span[q][1])
        for case in cases:
            for key in case[3]:
                g, i, f = key
                n, gdom, gcod, xs = idx[g]
                k, fdom, _, ys = idx[f]
                yield sub, "sub", key, (_LANDING[n, xs, k, ys, i], n + k - 1,
                                        gdom[:i - 1] + fdom + gdom[i:], gcod)

    for out, table, key, ty in entries():
        h = pick(table, key, ty)
        if h is None:
            flavour, n, dom, cod = ty
            raise MalformedTable(f"{name}: no {flavour}{n} map {dom};{cod} for {table} entry {key}")
        out[key] = h
    return m


# --------------------------------------------------------------------------
# validator
# --------------------------------------------------------------------------

def _j_nat_checks(m: ShortSkewMulticategory, pre: dict, post: dict, sub: dict,
                  report: ValidationReport) -> None:
    """The five unary-level naturality conditions for j, plus the derived
    descriptions of j on binary maps and on unary maps via j(1)."""
    base, info = m.base, m._index
    span, comp, ids = base._span, base.comp, base.ids
    pget, qget, sget, jget, fail = pre.get, post.get, sub.get, m.j.get, report.fail
    binaries = m.multimaps(TIGHT, 2)
    nat = derived = 0
    for p in base.morphisms():
        a, b = span[p]
        jp = jget(p)
        for g in binaries:
            gdom = info[g][1]
            if gdom[1] == b:
                lhs, rhs = sget((g, 2, jp)), pget((g, 2, p))
                if lhs != rhs or lhs is None:
                    fail("j-nat", ("g-pos2", g, p), lhs, rhs)
                nat += 1
            if gdom[0] == b:
                lhs, rhs = sget((g, 1, jp)), jget(pget((g, 1, p)))
                if lhs != rhs or lhs is None:
                    fail("j-nat", ("g-pos1", g, p), lhs, rhs)
                nat += 1
        for q in base.mors_out_of(b):
            lhs, rhs = qget((q, jp)), jget(comp.get((q, p)))
            if lhs != rhs or lhs is None:
                fail("j-nat", ("post", q, p), lhs, rhs)
            nat += 1
        for g in binaries:
            if info[g][2] == a:
                lhs, rhs = sget((jp, 1, g)), jget(qget((p, g)))
                if lhs != rhs or lhs is None:
                    fail("j-nat", ("into-binary", p, g), lhs, rhs)
                nat += 1
        for v in m.maps_into(LOOSE, 0, a):
            lhs, rhs = sget((jp, 1, v)), qget((p, v))
            if lhs != rhs or lhs is None:
                fail("j-nat", ("into-nullary", p, v), lhs, rhs)
            nat += 1
    for g in binaries:
        lhs, rhs = jget(g), sget((g, 1, jget(ids[info[g][1][0]])))
        if lhs != rhs or lhs is None:
            fail("j-derived", ("binary", g), lhs, rhs)
        derived += 1
    for q in base.morphisms():
        lhs, rhs = jget(q), qget((q, jget(ids[span[q][0]])))
        if lhs != rhs or lhs is None:
            fail("j-derived", ("unary", q), lhs, rhs)
        derived += 1
    tally(report, {"j-nat": nat, "j-derived": derived})


def validate_short_skew(m: ShortSkewMulticategory) -> ValidationReport:
    """Validate every axiom instance."""
    m.check_structure()
    base, info = m.base, m._index
    pre, post, sub = m.lookups
    # associativity ranges over tight maps and loose nullary ones, in id order
    pools: dict[tuple[int, str], list[str]] = {}
    for g in m.multimaps(LOOSE, 0) + m.multimaps(TIGHT, 2):
        pools.setdefault((info[g][0], info[g][2]), []).append(g)
    report = ValidationReport(m.name)
    typing_checks(m, report)
    identity_checks(m.table_maps, info, base, pre, post, report)
    profunctor_checks(m.table_maps, info, base, pre, post, report)
    _j_nat_checks(m, pre, post, sub, report)
    naturality_checks(m.domains[2], info, base, pre, post, sub, report)
    assoc_checks(m.multimaps(TIGHT, 2), info, lambda n, x: pools.get((n, x), ()), sub, report)
    report.merge_prefixed(validate_category(m.base), "base-")
    return report.finish()


# --------------------------------------------------------------------------
# embedding of plain structures
# --------------------------------------------------------------------------

def embed_plain(m: ShortMulticategory) -> ShortSkewMulticategory:
    """View a short multicategory as a short skew multicategory where every
    multimap is both tight and loose and j is the identity. Both structures
    are frozen, so the view shares m's pre, post and sub dicts."""
    tight = {n: dict(m.maps.get(n, {})) for n in (2, 3, 4)}
    loose = {
        0: dict(m.maps.get(0, {})),
        1: {((a,), b): fs for (a, b), fs in m.base.homs.items()},
        2: dict(m.maps.get(2, {})),
    }
    j = {f: f for f in m.base.morphisms()}
    j.update({f: f for f in m.multimaps(2)})
    return ShortSkewMulticategory(
        name=f"{m.name}.skew", base=m.base, tight=tight, loose=loose, j=j,
        pre=m.pre, post=m.post, sub=m.sub)


def plain_of(sk: ShortSkewMulticategory) -> ShortMulticategory:
    """The inverse of embed_plain: the plain short multicategory of a short
    skew multicategory whose j is a type-preserving bijection from the tight
    unary and binary maps onto the loose ones. Its maps are the loose
    nullary and the tight arity 2-4 ones, with the pre, post and sub entries
    among them; a loose unary or binary result is replaced by its
    j-preimage."""
    loose = set(sk.multimaps(LOOSE, 1) + sk.multimaps(LOOSE, 2))
    inverse: dict[str, str] = {}
    for f in sk.multimaps(TIGHT, 1) + sk.multimaps(TIGHT, 2):
        q = sk.j.get(f)
        if q not in loose or q in inverse or sk.info(q)[:3] != sk.info(f)[:3]:
            raise MalformedTable(f"{sk.name}: j is not injective and type-preserving at {f}")
        inverse[q] = f
    if len(inverse) != len(loose):
        raise MalformedTable(f"{sk.name}: j misses {len(loose) - len(inverse)} loose maps")
    maps = {0: sk.loose[0], 2: sk.tight[2], 3: sk.tight[3], 4: sk.tight[4]}
    plain = {f for n, table in maps.items() for fs in table.values() for f in fs}
    sub = {}
    for (g, i, f), h in sk.sub.items():
        if g in plain and f in plain:
            # only a nullary map into the first slot gives a loose result
            sub[(g, i, f)] = inverse.get(h, h) if i == 1 and sk.arity(f) == 0 else h
    return ShortMulticategory(
        sk.name, sk.base, maps,
        {key: h for key, h in sk.pre.items() if key[0] in plain},
        {key: h for key, h in sk.post.items() if key[1] in plain}, sub)


# --------------------------------------------------------------------------
# morphisms of short skew multicategories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewMultiMorphism:
    """A morphism of short skew multicategories: a functor plus tight
    families (arities 2-4) and loose families (arities 0-2), commuting with
    substitution and j."""
    name: str
    source: ShortSkewMulticategory
    target: ShortSkewMulticategory
    functor: FinFunctor
    tight_maps: dict[int, dict[str, str]]   # arities 2, 3, 4
    loose_maps: dict[int, dict[str, str]]   # arities 0, 1, 2

    def safe_apply(self, f: Optional[str], flavour: Optional[str] = None) -> Optional[str]:
        if f is None or f not in self.source._index:
            return None
        src = self.source
        n = src.arity(f)
        if n == 1 and src.is_tight(f) and flavour != LOOSE:
            return self.functor.mor_map.get(f)
        if flavour == TIGHT or (flavour is None and src.is_tight(f) and n >= 2):
            return self.tight_maps.get(n, {}).get(f)
        return self.loose_maps.get(n, {}).get(f)


def validate_skew_multi_morphism(F: SkewMultiMorphism) -> ValidationReport:
    src, tgt, fun = F.source, F.target, F.functor
    base_report = validate_functor(fun)
    typing, span = [], src.base._span
    for flavour, tables, arities in ((TIGHT, F.tight_maps, (2, 3, 4)),
                                     (LOOSE, F.loose_maps, (0, 1, 2))):
        for n in arities:
            table = tables.get(n, {})
            for f in src.multimaps(flavour, n):
                # a shared loose unary id (j = identity) is a base morphism
                img = fun.mor_map.get(f) if n == 1 and f in span else table.get(f)
                if img is None:
                    raise MalformedTable(f"{F.name}: no image for {flavour}{n} multimap {f}")
                typing.append((flavour, f, img))
    check_members(F.name, [
        (f"{flavour}{n}", table, 1,
         (src.multimaps(flavour, n), f"a source multimap of type {flavour}{n}"),
         (tgt._index, "a multimap"))
        for flavour, tables in ((TIGHT, F.tight_maps), (LOOSE, F.loose_maps))
        for n, table in tables.items()])
    report = ValidationReport(F.name)
    sidx, tidx, obj = src._index, tgt._index, fun.obj_map
    for flavour, f, img in typing:
        n, dom, cod, _ = sidx[f]
        want = (n, tuple(obj[a] for a in dom), obj[cod])
        have = tidx[img]
        held = flavour in have[3]
        if have[:3] != want or not held:
            report.fail("morphism-typing", (flavour + str(n), f),
                        str(have[:3] + (held,)), str(want + (True,)))
    tally(report, {"morphism-typing": len(typing)})

    image = morphism_law_checks(F, report)
    for f in sorted(src.j):
        report.check("morphism-j", (f,), F.safe_apply(src.j.get(f), LOOSE),
                     tgt.j.get(image.get(f)))

    report.merge(base_report)
    return report.finish()


def embed_multi_morphism(F: MultiMorphism,
                         src: ShortSkewMulticategory,
                         tgt: ShortSkewMulticategory) -> SkewMultiMorphism:
    """View a plain morphism as a skew one between embedded structures."""
    loose1 = {f: F.functor.mor_map[f] for f in F.source.base.morphisms()}
    return SkewMultiMorphism(
        f"{F.name}.skew", src, tgt, F.functor,
        tight_maps={n: dict(F.maps.get(n, {})) for n in (2, 3, 4)},
        loose_maps={0: dict(F.maps.get(0, {})), 1: loose1, 2: dict(F.maps.get(2, {}))})


def identity_skew_morphism(m: ShortSkewMulticategory) -> SkewMultiMorphism:
    from .fincat import identity_functor
    return SkewMultiMorphism(
        f"id[{m.name}]", m, m, identity_functor(m.base),
        tight_maps={n: {f: f for f in m.multimaps(TIGHT, n)} for n in (2, 3, 4)},
        loose_maps={n: {f: f for f in m.multimaps(LOOSE, n)} for n in (0, 1, 2)})
