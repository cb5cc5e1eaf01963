"""Finite categories and functors as explicit tables.

Identifiers are opaque strings; hom-sets are disjoint across (dom, cod)
pairs, so every morphism identifier determines its span. All iteration is
over sorted identifiers, which keeps searches and reports deterministic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from .errors import DanglingId, MalformedTable
from .report import ValidationReport, tally


@dataclass(frozen=True)
class FinCategory:
    name: str
    objects: tuple[str, ...]
    homs: dict[tuple[str, str], tuple[str, ...]]
    comp: dict[tuple[str, str], str]  # (g, f) -> g after f
    ids: dict[str, str]
    _span: dict[str, tuple[str, str]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(sorted(self.objects)))
        if len(set(self.objects)) != len(self.objects):
            raise MalformedTable(f"{self.name}: an object is declared twice")
        span: dict[str, tuple[str, str]] = {}
        for (a, b), fs in self.homs.items():
            if a not in self.objects or b not in self.objects:
                raise MalformedTable(f"{self.name}: hom ({a},{b}) uses undeclared object")
            for f in fs:
                if f in span:
                    raise MalformedTable(f"{self.name}: morphism id {f} appears in two hom-sets")
                span[f] = (a, b)
        object.__setattr__(self, "homs", {k: tuple(sorted(v)) for k, v in self.homs.items()})
        object.__setattr__(self, "_span", span)

    # -- lookups -----------------------------------------------------------
    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self.homs.get((a, b), ())

    def span(self, f: str) -> tuple[str, str]:
        try:
            return self._span[f]
        except KeyError:
            raise DanglingId(f"{self.name}: unknown morphism {f}")

    def dom(self, f: str) -> str:
        return self.span(f)[0]

    def cod(self, f: str) -> str:
        return self.span(f)[1]

    def identity(self, a: str) -> str:
        try:
            return self.ids[a]
        except KeyError:
            raise MalformedTable(f"{self.name}: no identity for object {a}")

    def compose(self, g: str, f: str) -> str:
        """g after f; raises if the pair is not composable or the entry is absent."""
        h, sf, sg = self.comp.get((g, f)), self._span.get(f), self._span.get(g)
        if h is not None and sf and sg and sf[1] == sg[0]:
            return h
        if self.cod(f) != self.dom(g):
            raise MalformedTable(f"{self.name}: {g} o {f} is not composable")
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise MalformedTable(f"{self.name}: missing comp entry ({g}, {f})")

    def compose_opt(self, g: str, f: str) -> Optional[str]:
        span = self._span
        if f not in span or g not in span or span[f][1] != span[g][0]:
            return None
        return self.comp.get((g, f))

    # Sorted adjacency, computed on first use. A cached_property is not a
    # dataclass field, so dataclasses.replace never copies it into a new table.
    @cached_property
    def _adjacency(self) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]],
                                  dict[str, tuple[str, ...]]]:
        mors = tuple(sorted(self._span))
        into = {a: tuple(f for f in mors if self._span[f][1] == a) for a in self.objects}
        out = {a: tuple(f for f in mors if self._span[f][0] == a) for a in self.objects}
        return mors, into, out

    def morphisms(self) -> tuple[str, ...]:
        return self._adjacency[0]

    def mors_out_of(self, a: str) -> tuple[str, ...]:
        return self._adjacency[2].get(a, ())

    def is_iso(self, f: str) -> Optional[str]:
        """Return an inverse of f if one exists in the tables."""
        a, b = self.span(f)
        for g in self.hom(b, a):
            if self.compose_opt(g, f) == self.identity(a) and self.compose_opt(f, g) == self.identity(b):
                return g
        return None

    # -- structural checks --------------------------------------------------
    def check_structure(self) -> None:
        """Raise MalformedTable unless id is keyed by exactly the objects and
        comp by exactly the composable pairs, both valued in the morphisms,
        and each identity is an endomorphism of its object."""
        check_tables(self.name, [
            ("id", self.ids, 1, (self.objects, "an object"), (self._span, "a morphism")),
            ("comp", self.comp, 1, (list(composable_pairs(self)), "a composable pair"),
             (self._span, "a morphism"))])
        span = self._span
        for a in self.objects:
            if span[self.ids[a]] != (a, a):
                raise MalformedTable(f"{self.name}: identity of {a} has span {span[self.ids[a]]}")


def _show(key) -> str:
    return f"({','.join(map(str, key))})" if isinstance(key, tuple) else key


def _dangling_value(name: str, label: str, v, key, what: str) -> DanglingId:
    return DanglingId(f"{name}: {label} component {v} at {_show(key)} is not {what}")


def table_domains(c: FinCategory) -> tuple[tuple, tuple, tuple]:
    """The objects and the morphisms of c as the keys or values of a row of
    check_tables: (objects, morphisms to key by, morphisms as values)."""
    return ((c.objects, "an object"), (c.morphisms(), "a morphism"), (c._span, "a morphism"))


def check_tables(name: str, rows) -> None:
    """Raise MalformedTable at the first key missing from any row, then
    DanglingId as check_members does. A row (label, table, k, (members, what),
    (values, what)) says the table is keyed by exactly the k-tuples of members
    in their listed order (by the members when k is 1) and valued in values.
    No domain lists a key twice, so a total row holds a stray key only when it
    has more keys than its domain; only such a row has its keys scanned."""
    for label, table, k, (members, _), _ in rows:
        for key in members if k == 1 else itertools.product(members, repeat=k):
            if key not in table:
                raise MalformedTable(f"{name}: {label} not total at {_show(key)}")
    for row in rows:
        label, table, k, (members, _), (values, what) = row
        if len(table) > len(members) ** k:
            check_members(name, [row])  # scans the keys as before
        for key, v in table.items():
            if v not in values:
                raise _dangling_value(name, label, v, key, what)


def check_members(name: str, rows) -> None:
    """Raise DanglingId at the first key of a row that is no member (when k
    is 1) or names a part outside its members, or the first value outside
    its values. The values of a row must answer `in` quickly: a dict, a set
    or a short tuple."""
    for label, table, k, (members, what), (values, value_what) in rows:
        allowed = set(members)
        for key, v in table.items():
            if k == 1 and key not in allowed:
                raise DanglingId(f"{name}: {label} key {_show(key)} is not {what}")
            for part in key if k > 1 else ():
                if part not in allowed:
                    raise DanglingId(f"{name}: {label} key {_show(key)} names {part}, "
                                     f"which is not {what}")
            if v not in values:
                raise _dangling_value(name, label, v, key, value_what)


def composable_pairs(c: FinCategory) -> Iterator[tuple[str, str]]:
    for f in c.morphisms():
        for g in c.mors_out_of(c.cod(f)):
            yield g, f


def validate_category(c: FinCategory) -> ValidationReport:
    """Exhaustive check of typing, identity and associativity laws. Once
    check_structure has passed, comp is keyed by exactly the composable
    pairs and the laws read it directly."""
    c.check_structure()
    comp, span, ids, (mors, _, out_of) = c.comp, c._span, c.ids, c._adjacency
    cget, report, assoc = comp.get, ValidationReport(c.name), 0
    fail = report.fail
    for f in mors:
        a, b = span[f]
        for subjects in ((ids[b], f), (f, ids[a])):
            if cget(subjects) != f:
                fail("identity", subjects, cget(subjects), f)
        for g in out_of[b]:
            gf, x = comp[g, f], span[g][1]
            if span[gf] != (a, x):
                fail("comp-typing", (g, f), str(span[gf]), str((a, x)))
            for h in out_of[x]:
                lhs, rhs = cget((h, gf)), cget((comp[h, g], f))
                if lhs != rhs or lhs is None:
                    fail("assoc", (h, g, f), lhs, rhs)
                assoc += 1
    tally(report, {"comp-typing": len(comp), "identity": 2 * len(mors), "assoc": assoc})
    return report.finish()


@dataclass(frozen=True)
class FinFunctor:
    name: str
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]


def validate_functor(fun: FinFunctor) -> ValidationReport:
    """Validate totality of the maps plus preservation of spans, identities
    and composition. Both ends must have passed check_structure: the laws
    read their tables directly."""
    src, tgt = fun.source, fun.target
    (objs, mors, _), (images, _, arrows) = table_domains(src), table_domains(tgt)
    check_tables(fun.name, [("obj_map", fun.obj_map, 1, objs, images),
                            ("mor_map", fun.mor_map, 1, mors, arrows)])
    F, Fm, span, cget = fun.obj_map, fun.mor_map, tgt._span, tgt.comp.get
    report = ValidationReport(fun.name)
    fail = report.fail
    for f in src.morphisms():
        a, b = src._span[f]
        if span[Fm[f]] != (F[a], F[b]):
            fail("functor-span", (f,), str(span[Fm[f]]), str((F[a], F[b])))
    for a in src.objects:
        if Fm[src.ids[a]] != tgt.ids[F[a]]:
            fail("functor-id", (a,), Fm[src.ids[a]], tgt.ids[F[a]])
    for (g, f), gf in src.comp.items():
        lhs, rhs = Fm[gf], cget((Fm[g], Fm[f]))
        if lhs != rhs or lhs is None:
            fail("functor-comp", (g, f), lhs, rhs)
    tally(report, {"functor-span": len(src._span), "functor-id": len(src.objects),
                   "functor-comp": len(src.comp)})
    return report.finish()


def identity_functor(c: FinCategory) -> FinFunctor:
    return FinFunctor(f"id[{c.name}]", c, c,
                      {a: a for a in c.objects}, {f: f for f in c.morphisms()})

