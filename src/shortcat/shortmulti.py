"""Short multicategories as explicit tables, with the full axiom validator.

A structure stores multimap sets for arities 0 to 4 (the arity-1 table is
the base category's hom-sets), unary pre/post action tables, and the
substitution tables for exactly these cases:

    binary into binary      (outer 2, inner 2, positions 1-2)
    binary into ternary     (outer 3, inner 2, positions 1-3)
    ternary into binary     (outer 2, inner 3, positions 1-2)
    nullary into binary     (outer 2, inner 0, positions 1-2)
    nullary into ternary    (outer 3, inner 0, positions 1-3)

Substituting a unary map routes through the pre-action tables, and
substituting into a unary map routes through the post-action tables, so
`safe_subst` is defined on everything a short multicategory provides.

Law checks compare identifiers and never raise on a mutated (wrongly
typed) table value; a lookup that becomes impossible counts as a failed
instance.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .errors import DanglingId, MalformedTable
from .fincat import FinCategory, FinFunctor, validate_category, validate_functor
from .report import ValidationReport

if TYPE_CHECKING:
    from .shortskew import ShortSkewMulticategory

Key = tuple[tuple[str, ...], str]  # (domain tuple, codomain)

# (outer arity, inner arity) cases with stored tables.
STORED_CASES = frozenset({(2, 2), (3, 2), (2, 3), (2, 0), (3, 0)})


class MultiTables:
    """The table core shared by plain and skew short multicategories.

    A subclass is a frozen dataclass with `name`, `base`, `pre`, `post`,
    `sub` and `_index` (id -> (arity, domain, codomain, ...)). It supplies
    `table_maps`, `required_sub_keys`, `_tables` (its multimap tables by
    arity, for the key-shape check) and `_CASE_OF`, which maps the arities
    of an outer and an inner id (with their flavours, when `_FLAVOURED`) to
    the stored substitution case they fall in. The routing rule is written
    once, in `lookups`: a base morphism, the only tight unary map, composes
    in the base, and every other id reads the pre, post and sub tables.
    `safe_pre`, `safe_post`, `safe_subst` and the validators all read those
    dicts.
    """

    # -- typed lookups ------------------------------------------------------
    def info(self, f: str) -> tuple:
        try:
            return self._index[f]
        except KeyError:
            raise DanglingId(f"{self.name}: unknown multimap {f}")

    def arity(self, f: str) -> int:
        return self.info(f)[0]

    def dom(self, f: str) -> tuple[str, ...]:
        return self.info(f)[1]

    def cod(self, f: str) -> str:
        return self.info(f)[2]

    # -- the routing rule ----------------------------------------------------
    # Built on first use; not a dataclass field, so dataclasses.replace never
    # carries it into a redirected copy.
    @cached_property
    def lookups(self) -> tuple[dict, dict, dict]:
        """The (pre, post, subst) dicts, keyed (f, i, p), (q, f) and (g, i, f),
        with an absent key wherever no value is defined. A base morphism, the
        only tight unary map, composes in the base, so a stored entry keyed
        at one is dropped; every other id reads the pre, post and sub tables.
        They give the structure's actions and substitution once it has
        passed check_structure."""
        span, comp = self.base._span, self.base.comp
        post = {k: v for k, v in self.post.items() if k[1] not in span}
        post.update(comp)
        pre = {k: v for k, v in self.pre.items() if k[0] not in span}
        pre.update(((g, 1, f), h) for (g, f), h in comp.items())
        sub = {k: v for k, v in self.sub.items() if k[0] not in span and k[2] not in span}
        sub.update(((q, 1, f), h) for (q, f), h in post.items() if f not in span)
        sub.update(pre)
        return pre, post, sub

    def safe_post(self, q: Optional[str], f: Optional[str]) -> Optional[str]:
        return self.lookups[1].get((q, f))

    def safe_pre(self, f: Optional[str], i: int, p: Optional[str]) -> Optional[str]:
        return self.lookups[0].get((f, i, p))

    def safe_subst(self, g: Optional[str], i: int, f: Optional[str]) -> Optional[str]:
        return self.lookups[2].get((g, i, f))

    # -- structural totality --------------------------------------------------
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

    def _check_tables(self) -> list[tuple]:
        """The structure checks both structures share: the base, key shapes,
        dangling ids, slot range, composability, stored cases and totality.
        Each loop reads the index and the base spans directly. Returns the
        stored case of each sub entry, in table order."""
        self.base.check_structure()
        name, idx, span = self.name, self._index, self.base._span
        objects = set(self.base.objects)
        for n, table in self._tables():
            for dom, cod in table:
                if len(dom) != n:
                    raise MalformedTable(f"{name}: arity-{n} key with {len(dom)} inputs")
                for a in dom + (cod,):
                    if a not in objects:
                        raise MalformedTable(f"{name}: unknown object {a} in multimap key")
        for (f, i, p), g in self.pre.items():
            if f not in idx or g not in idx:
                raise DanglingId(f"{name}: pre entry ({f},{i},{p}) dangles")
            n, dom = idx[f][:2]
            if not 1 <= i <= n:
                raise MalformedTable(f"{name}: pre key ({f},{i},{p}) has slot {i} outside 1..{n}")
            if p not in span or span[p][1] != dom[i - 1]:
                raise MalformedTable(f"{name}: pre key ({f},{i},{p}) not composable")
        for (q, f), g in self.post.items():
            if f not in idx or g not in idx:
                raise DanglingId(f"{name}: post entry ({q},{f}) dangles")
            if q not in span or span[q][0] != idx[f][2]:
                raise MalformedTable(f"{name}: post key ({q},{f}) not composable")
        case_of, flavoured, cases = self._CASE_OF, self._FLAVOURED, []
        for (g, i, f), h in self.sub.items():
            if g not in idx or f not in idx or h not in idx:
                raise DanglingId(f"{name}: sub entry ({g},{i},{f}) dangles")
            gi, fi = idx[g], idx[f]
            n = gi[0]
            if not 1 <= i <= n:
                raise MalformedTable(f"{name}: sub key ({g},{i},{f}) has slot {i} outside 1..{n}")
            case = case_of.get((n, gi[3], fi[0], fi[3]) if flavoured else (n, fi[0]))
            if case is None:
                raise MalformedTable(f"{name}: sub key ({g},{i},{f}) outside stored cases")
            if fi[2] != gi[1][i - 1]:
                raise MalformedTable(f"{name}: sub key ({g},{i},{f}) not composable")
            cases.append(case)
        for label, table, keys in (("pre", self.pre, self.required_pre_keys()),
                                   ("post", self.post, self.required_post_keys()),
                                   ("sub", self.sub, self.required_sub_keys())):
            for key in keys:
                if key not in table:
                    raise MalformedTable(f"{name}: {label} table not total at {key}")
        return cases


@dataclass(frozen=True)
class ShortMulticategory(MultiTables):
    name: str
    base: FinCategory
    maps: dict[int, dict[Key, tuple[str, ...]]]   # arities 0,2,3,4; arity 1 mirrors base.homs
    pre: dict[tuple[str, int, str], str]          # (f, i, p) -> f o_i p, arity(f) >= 2
    post: dict[tuple[str, str], str]              # (q, f) -> q o f, arity(f) != 1
    sub: dict[tuple[str, int, str], str]          # (g, i, f) -> g o_i f, stored cases
    _index: dict[str, tuple[int, tuple[str, ...], str]] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, tuple[int, tuple[str, ...], str]] = {}
        for f in self.base.morphisms():
            a, b = self.base.span(f)
            index[f] = (1, (a,), b)
        maps = {}
        for n, table in self.maps.items():
            if n == 1:
                # the arity-1 table is the base hom-sets; a stored copy must agree
                for (dom, cod), fs in table.items():
                    if tuple(sorted(fs)) != self.base.hom(dom[0], cod):
                        raise MalformedTable(
                            f"{self.name}: arity-1 table disagrees with base homs at {dom[0]},{cod}")
                continue
            maps[n] = {}
            for (dom, cod), fs in table.items():
                maps[n][(tuple(dom), cod)] = tuple(sorted(fs))
                for f in fs:
                    if f in index:
                        raise MalformedTable(f"{self.name}: multimap id {f} declared twice")
                    index[f] = (n, tuple(dom), cod)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_index", index)

    def mapset(self, n: int, dom: tuple[str, ...], cod: str) -> tuple[str, ...]:
        if n == 1:
            return self.base.hom(dom[0], cod)
        return self.maps.get(n, {}).get((tuple(dom), cod), ())

    # Sorted adjacency, computed on first use; not a dataclass field, so
    # dataclasses.replace never carries it into a redirected copy.
    @cached_property
    def _by_arity(self) -> dict[int, tuple[str, ...]]:
        return {n: tuple(sorted(f for f, (k, _, _) in self._index.items() if k == n))
                for n in self.maps}

    @cached_property
    def _by_cod(self) -> dict[tuple[int, str], tuple[str, ...]]:
        out: dict[tuple[int, str], list[str]] = {}
        for n in (0, 1, 2, 3, 4):
            for dom, cod in self.mapset_keys(n):
                out.setdefault((n, cod), []).extend(self.mapset(n, dom, cod))
        return {key: tuple(fs) for key, fs in out.items()}

    @cached_property
    def as_skew(self) -> ShortSkewMulticategory:
        """The plain-as-skew view (shortskew.embed_plain), built on first use
        and kept like the adjacency above. It shares this structure's lookups:
        embed_plain keeps the base, pre, post and sub they are built from."""
        from .shortskew import embed_plain
        view = embed_plain(self)
        object.__setattr__(view, "lookups", self.lookups)
        return view

    def multimaps(self, n: int) -> tuple[str, ...]:
        if n == 1:
            return self.base.morphisms()
        return self._by_arity.get(n, ())

    def maps_into(self, n: int, cod: str) -> tuple[str, ...]:
        """The arity-n multimaps with codomain cod, by domain and then id."""
        return self._by_cod.get((n, cod), ())

    def mapset_keys(self, n: int) -> list[Key]:
        if n == 1:
            return sorted(((a,), b) for (a, b) in self.base.homs)
        return sorted(self.maps.get(n, {}))

    # -- what the table core needs --------------------------------------------
    @cached_property
    def table_maps(self) -> tuple[tuple[int, str], ...]:
        """(arity, multimap) over arities 0, 2, 3 and 4, by arity and then id."""
        return tuple((n, f) for n in (0, 2, 3, 4) for f in self.multimaps(n))

    def _tables(self) -> Iterable[tuple[int, dict]]:
        return self.maps.items()

    _CASE_OF = {case: case for case in STORED_CASES}
    _FLAVOURED = False

    def required_sub_keys(self) -> Iterator[tuple[str, int, str]]:
        for (n, k) in sorted(STORED_CASES):
            yield from _sub_pairs(self, n, k)

    def check_structure(self) -> None:
        self._check_tables()


# --------------------------------------------------------------------------
# validator
# --------------------------------------------------------------------------

def tally(report: ValidationReport, family: str, n: int) -> None:
    """Count n instances of a family; a family with none gets no line."""
    if n:
        report.count(family, n)


# The check kernel, shared by the plain and the skew validator: one loop per
# family over the finite tables. A law instance compares two lookups and
# fails when they differ or either is missing; its subjects are built only
# then. `info` maps an id to (arity, domain, codomain, ...). Every loop keeps
# the enumeration order of the law definitions, so the stable failure sort
# gives the same report.

def identity_checks(maps: Iterable[tuple[int, str]], info: dict, base: FinCategory,
                    pre: dict, post: dict, report: ValidationReport) -> None:
    """Unit laws of the actions on each (arity, multimap) of `maps`."""
    ids, count = base.ids, 0
    for n, f in maps:
        dom, cod = info[f][1], info[f][2]
        lhs = post.get((ids[cod], f))
        if lhs != f:
            report.fail("identity", ("post", cod, f), lhs, f)
        for i in range(1, n + 1):
            lhs = pre.get((f, i, ids[dom[i - 1]]))
            if lhs != f:
                report.fail("identity", ("pre", f, str(i)), lhs, f)
        count += n + 1
    tally(report, "identity", count)


def profunctor_checks(maps: Iterable[tuple[int, str]], info: dict, base: FinCategory,
                      pre: dict, post: dict, report: ValidationReport) -> None:
    """Functoriality and commutation of the pre/post actions on `maps`."""
    span, comp, (_, into, out_of) = base._span, base.comp, base._adjacency
    pget, qget, fail = pre.get, post.get, report.fail
    count = 0
    for n, f in maps:
        dom, cod = info[f][1], info[f][2]
        outs = out_of.get(cod, ())
        for q in outs:
            qf = qget((q, f))
            for q2 in out_of.get(span[q][1], ()):
                lhs, rhs = qget((q2, qf)), qget((comp[(q2, q)], f))
                if lhs != rhs or lhs is None:
                    fail("profunctor", ("post-post", q2, q, f), lhs, rhs)
                count += 1
        for i in range(1, n + 1):
            for p in into.get(dom[i - 1], ()):
                fp = pget((f, i, p))
                for p2 in into.get(span[p][0], ()):
                    lhs, rhs = pget((fp, i, p2)), pget((f, i, comp[(p, p2)]))
                    if lhs != rhs or lhs is None:
                        fail("profunctor", ("pre-pre", f, str(i), p, p2), lhs, rhs)
                    count += 1
            # pre-post takes only the last p of the slot: the law's loop over
            # q sits beside the loop over p, not in it, and reports pin that.
            for q in outs:
                lhs, rhs = qget((q, pget((f, i, p)))), pget((qget((q, f)), i, p))
                if lhs != rhs or lhs is None:
                    fail("profunctor", ("pre-post", q, f, str(i), p), lhs, rhs)
                count += 1
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for p in into.get(dom[i - 1], ()):
                fp = pget((f, i, p))
                for p2 in into.get(dom[j - 1], ()):
                    lhs, rhs = pget((fp, j, p2)), pget((pget((f, j, p2)), i, p))
                    if lhs != rhs or lhs is None:
                        fail("profunctor", ("pre-commute", f, str(i), p, str(j), p2), lhs, rhs)
                    count += 1
    tally(report, "profunctor", count)


def naturality_checks(cases: Iterable[tuple], info: dict, base: FinCategory,
                      pre: dict, post: dict, sub: dict, report: ValidationReport) -> None:
    """Naturality of each stored substitution in every variable, and
    dinaturality in the substituted one. A case is (subject prefix, outer
    arity n, inner arity k, its composable (g, i, f), its outer maps, and a
    dict from an object to the inner maps of arity k into it)."""
    span, (_, into, out_of) = base._span, base._adjacency
    pget, qget, sget, fail = pre.get, post.get, sub.get, report.fail
    na = nb = nc = dinat = 0
    for tag, n, k, pairs, outers, inner in cases:
        for g, i, f in pairs:
            gdom, gcod = info[g][1], info[g][2]
            fdom = info[f][1]
            gif = sget((g, i, f))
            # naturality in the inner domain objects
            for t in range(1, k + 1):
                for p in into.get(fdom[t - 1], ()):
                    lhs, rhs = sget((g, i, pget((f, t, p)))), pget((gif, i - 1 + t, p))
                    if lhs != rhs or lhs is None:
                        fail("nat-in-a", tag + (g, str(i), f, str(t), p), lhs, rhs)
                    na += 1
            # naturality in the outer, non-substituted domain objects
            for j in range(1, n + 1):
                if j == i:
                    continue
                pos = j if j < i else j + k - 1
                for p in into.get(gdom[j - 1], ()):
                    lhs, rhs = sget((pget((g, j, p)), i, f)), pget((gif, pos, p))
                    if lhs != rhs or lhs is None:
                        fail("nat-in-b", tag + (g, str(i), f, str(j), p), lhs, rhs)
                    nb += 1
            # naturality in the codomain
            for q in out_of.get(gcod, ()):
                lhs, rhs = qget((q, gif)), sget((qget((q, g)), i, f))
                if lhs != rhs or lhs is None:
                    fail("nat-in-c", tag + (q, g, str(i), f), lhs, rhs)
                nc += 1
        # dinaturality in the substituted variable: for w : x -> e,
        # (g' o_i w) o_i f  =  g' o_i (w o f)  with g' having e at slot i.
        for gp in outers:
            gpdom = info[gp][1]
            for i in range(1, n + 1):
                for w in into.get(gpdom[i - 1], ()):
                    gw = pget((gp, i, w))
                    for f in inner.get(span[w][0], ()):
                        lhs, rhs = sget((gw, i, f)), sget((gp, i, qget((w, f))))
                        if lhs != rhs or lhs is None:
                            fail("dinat-in-b", tag + (gp, str(i), w, f), lhs, rhs)
                        dinat += 1
    tally(report, "nat-in-a", na)
    tally(report, "nat-in-b", nb)
    tally(report, "nat-in-c", nc)
    tally(report, "dinat-in-b", dinat)


def assoc_checks(binaries: Iterable[str], info: dict, maps_into: Callable[[int, str], Iterable[str]],
                 sub: dict, report: ValidationReport) -> None:
    """Associativity family: f o_i (g o_j h) = (f o_i g) o_{j+i-1} h, and the
    interchange family: (f o_1 g) o_{n+1} h = (f o_2 h) o_1 g, in the cases
    (a) through (d); f ranges over `binaries`, and maps_into(arity, object)
    gives the g and h that may go into a slot."""
    sget, fail = sub.get, report.fail

    def line(case: str, gn: int, hn: int) -> None:
        family, count = f"assoc-line-{case}", 0
        for f in binaries:
            fdom = info[f][1]
            for i in (1, 2):
                for g in maps_into(gn, fdom[i - 1]):
                    gdom = info[g][1]
                    fig = sget((f, i, g))
                    for j in range(1, gn + 1):
                        for h in maps_into(hn, gdom[j - 1]):
                            lhs, rhs = sget((f, i, sget((g, j, h)))), sget((fig, j + i - 1, h))
                            if lhs != rhs or lhs is None:
                                fail(family, (f, str(i), g, str(j), h), lhs, rhs)
                            count += 1
        tally(report, family, count)

    def notline(case: str, gn: int, hn: int) -> None:
        family, count = f"assoc-notline-{case}", 0
        for f in binaries:
            fdom = info[f][1]
            for g in maps_into(gn, fdom[0]):
                f1g = sget((f, 1, g))
                for h in maps_into(hn, fdom[1]):
                    lhs, rhs = sget((f1g, gn + 1, h)), sget((sget((f, 2, h)), 1, g))
                    if lhs != rhs or lhs is None:
                        fail(family, (f, g, h), lhs, rhs)
                    count += 1
        tally(report, family, count)

    line("a", 2, 2)
    line("b", 2, 0)
    notline("a", 2, 2)
    notline("b", 2, 0)
    notline("c", 0, 2)
    notline("d", 0, 0)


def _typing_checks(m: ShortMulticategory, report: ValidationReport) -> None:
    # The tables are walked unsorted: each key gives its own subjects, so
    # finish() sorts the failures into the same report.
    info, span, fail = m._index, m.base._span, report.fail
    for (f, i, p), g in m.pre.items():
        n, dom, cod = info[f]
        want = (n, dom[:i - 1] + (span[p][0],) + dom[i:], cod)
        have = info[g]
        if have != want:
            fail("typing", ("pre", f, str(i), p), str(have), str(want))
    for (q, f), g in m.post.items():
        n, dom, _ = info[f]
        want = (n, dom, span[q][1])
        have = info[g]
        if have != want:
            fail("typing", ("post", q, f), str(have), str(want))
    for (g, i, f), h in m.sub.items():
        n, gdom, gcod = info[g]
        k, fdom, _ = info[f]
        want = (n + k - 1, gdom[:i - 1] + fdom + gdom[i:], gcod)
        have = info[h]
        if have != want:
            fail("typing", ("sub", g, str(i), f), str(have), str(want))
    tally(report, "typing", len(m.pre) + len(m.post) + len(m.sub))


def _sub_pairs(m: ShortMulticategory, n: int, k: int) -> Iterator[tuple[str, int, str]]:
    """All composable (g, i, f) with arity(g)=n, arity(f)=k."""
    idx, by_cod = m._index, m._by_cod
    for g in m.multimaps(n):
        dom = idx[g][1]
        for i in range(1, n + 1):
            for f in by_cod.get((k, dom[i - 1]), ()):
                yield g, i, f


def validate_short_multicategory(m: ShortMulticategory) -> ValidationReport:
    """Validate every axiom instance."""
    m.check_structure()
    base, info = m.base, m._index
    pre, post, sub = m.lookups
    cases = [((), n, k, _sub_pairs(m, n, k), m.multimaps(n),
              {x: fs for (a, x), fs in m._by_cod.items() if a == k})
             for n, k in sorted(STORED_CASES)]
    report = ValidationReport(m.name)
    _typing_checks(m, report)
    identity_checks(m.table_maps, info, base, pre, post, report)
    profunctor_checks(m.table_maps, info, base, pre, post, report)
    naturality_checks(cases, info, base, pre, post, sub, report)
    assoc_checks(m.multimaps(2), info, m.maps_into, sub, report)
    report.merge_prefixed(validate_category(m.base), "base-")
    return report.finish()


# --------------------------------------------------------------------------
# morphisms of short multicategories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiMorphism:
    """A morphism of short multicategories: a functor on bases plus natural
    families for arities 0, 2, 3, 4 (arity 1 is the functor action)."""
    name: str
    source: ShortMulticategory
    target: ShortMulticategory
    functor: FinFunctor
    maps: dict[int, dict[str, str]]   # arities 0, 2, 3, 4

    def safe_apply(self, f: Optional[str]) -> Optional[str]:
        if f is None or f not in self.source._index:
            return None
        n = self.source.arity(f)
        if n == 1:
            return self.functor.mor_map.get(f)
        return self.maps.get(n, {}).get(f)


def validate_multi_morphism(F: MultiMorphism) -> ValidationReport:
    """Validate table totality, typing, naturality in every variable, and
    commutation with every stored substitution."""
    src, tgt, fun = F.source, F.target, F.functor
    base_report = validate_functor(fun)
    typing = []
    for n in (0, 2, 3, 4):
        for f in src.multimaps(n):
            img = F.maps.get(n, {}).get(f)
            if img is None:
                raise MalformedTable(f"{F.name}: no image for arity-{n} multimap {f}")
            _, dom, cod = src.info(f)
            typing.append((f, img, (n, tuple(fun.on_obj(a) for a in dom), fun.on_obj(cod))))
    report = ValidationReport(F.name)
    for f, img, want in typing:
        report.check("morphism-typing", (f,), str(tgt.info(img)), str(want))
    morphism_law_checks(F, report)
    report.merge(base_report)
    return report.finish()


def morphism_law_checks(F, report: ValidationReport) -> None:
    """The laws of a plain or skew morphism F: naturality in every variable,
    F(q o f) = F(q) o F(f) and F(f o_i p) = F(f) o_i F(p), and commutation
    with every stored substitution."""
    src, tgt, mor, apply, check = F.source, F.target, F.functor.mor_map, F.safe_apply, report.check
    for n, f in src.table_maps:
        dom, cod = src.info(f)[1:3]
        for q in src.base.mors_out_of(cod):
            check("morphism-nat", ("post", q, f), apply(src.safe_post(q, f)),
                  tgt.safe_post(mor.get(q), apply(f)))
        for i in range(1, n + 1):
            for p in src.base.mors_into(dom[i - 1]):
                check("morphism-nat", ("pre", f, str(i), p), apply(src.safe_pre(f, i, p)),
                      tgt.safe_pre(apply(f), i, mor.get(p)))
    for g, i, f in src.required_sub_keys():
        check("morphism-sub", (g, str(i), f), apply(src.safe_subst(g, i, f)),
              tgt.safe_subst(apply(g), i, apply(f)))


def identity_multi_morphism(m: ShortMulticategory) -> MultiMorphism:
    from .fincat import identity_functor
    return MultiMorphism(
        f"id[{m.name}]", m, m, identity_functor(m.base),
        {n: {f: f for f in m.multimaps(n)} for n in (0, 2, 3, 4)})
