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

from .errors import DanglingId, MalformedTable, SearchBoundExceeded
from .report import ValidationReport

# The most objects an isomorphism search permutes; a larger base raises
# SearchBoundExceeded.
ISO_SEARCH_MAX_OBJECTS = 6


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

    def mors_into(self, a: str) -> tuple[str, ...]:
        return self._adjacency[1].get(a, ())

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
    """Exhaustive check of typing, identity and associativity laws."""
    c.check_structure()
    comp = c.comp
    report = ValidationReport(c.name)
    for g, f in composable_pairs(c):
        report.check("comp-typing", (g, f), str(c.span(comp[(g, f)])),
                     str((c.dom(f), c.cod(g))))

    for f in c.morphisms():
        a, b = c.span(f)
        report.check("identity", (c.identity(b), f), comp.get((c.identity(b), f)), f)
        report.check("identity", (f, c.identity(a)), comp.get((f, c.identity(a))), f)

    for g, f in composable_pairs(c):
        inner = comp.get((g, f))
        for h in c.mors_out_of(c.cod(g)):
            lhs = comp.get((h, inner)) if inner is not None else None
            mid = comp.get((h, g))
            rhs = comp.get((mid, f)) if mid is not None else None
            report.check("assoc", (h, g, f), lhs, rhs)
    return report.finish()


@dataclass(frozen=True)
class FinFunctor:
    name: str
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def on_obj(self, a: str) -> str:
        try:
            return self.obj_map[a]
        except KeyError:
            raise MalformedTable(f"{self.name}: no image for object {a}")

    def on_mor(self, f: str) -> str:
        try:
            return self.mor_map[f]
        except KeyError:
            raise MalformedTable(f"{self.name}: no image for morphism {f}")


def validate_functor(fun: FinFunctor) -> ValidationReport:
    """Validate totality of the maps plus preservation of spans, identities
    and composition."""
    src, tgt = fun.source, fun.target
    (objs, mors, _), (images, _, arrows) = table_domains(src), table_domains(tgt)
    check_tables(fun.name, [("obj_map", fun.obj_map, 1, objs, images),
                            ("mor_map", fun.mor_map, 1, mors, arrows)])
    report = ValidationReport(fun.name)
    for f in src.morphisms():
        a, b = src.span(f)
        report.check("functor-span", (f,), str(tgt.span(fun.on_mor(f))),
                     str((fun.on_obj(a), fun.on_obj(b))))
    for a in src.objects:
        report.check("functor-id", (a,), fun.on_mor(src.identity(a)),
                     tgt.ids.get(fun.on_obj(a)))
    for g, f in composable_pairs(src):
        report.check("functor-comp", (g, f), fun.mor_map.get(src.comp[(g, f)]),
                     tgt.compose_opt(fun.on_mor(g), fun.on_mor(f)))
    return report.finish()


def identity_functor(c: FinCategory) -> FinFunctor:
    return FinFunctor(f"id[{c.name}]", c, c,
                      {a: a for a in c.objects}, {f: f for f in c.morphisms()})


def _extend_mor_bijection(c: FinCategory, d: FinCategory, obj_bij: dict[str, str]) -> Optional[dict[str, str]]:
    """Backtracking search for a composition-preserving bijection on
    morphisms over a fixed object bijection."""
    pairs = []
    for (a, b), fs in sorted(c.homs.items()):
        gs = d.hom(obj_bij[a], obj_bij[b])
        if len(fs) != len(gs):
            return None
        pairs.append((fs, gs))
    # hom-set sizes must match in both directions
    for (a, b), gs in sorted(d.homs.items()):
        inv = {v: k for k, v in obj_bij.items()}
        if len(c.hom(inv[a], inv[b])) != len(gs):
            return None

    mor_map: dict[str, str] = {c.identity(a): d.identity(obj_bij[a]) for a in c.objects}

    def consistent(m: dict[str, str]) -> bool:
        for (g, f), h in c.comp.items():
            if g in m and f in m:
                img = d.compose_opt(m[g], m[f])
                if img is None:
                    return False
                if h in m and m[h] != img:
                    return False
        return True

    def assign(idx: int, m: dict[str, str]) -> Optional[dict[str, str]]:
        if idx == len(pairs):
            return dict(m)
        fs, gs = pairs[idx]
        fixed = [(f, m[f]) for f in fs if f in m]
        free = [f for f in fs if f not in m]
        taken = {v for _, v in fixed}
        if any(v not in gs for _, v in fixed):
            return None
        remaining = [g for g in gs if g not in taken]
        for perm in itertools.permutations(remaining):
            trial = dict(m)
            trial.update(zip(free, perm))
            if consistent(trial):
                res = assign(idx + 1, trial)
                if res is not None:
                    return res
        return None

    m = assign(0, mor_map)
    if m is None:
        return None
    if not consistent(m):
        return None
    return m


def find_isomorphism(c: FinCategory, d: FinCategory) -> Optional[tuple[FinFunctor, FinFunctor]]:
    """Exhaustive search for an isomorphism of categories; returns a
    mutually inverse functor pair or None."""
    if max(len(c.objects), len(d.objects)) > ISO_SEARCH_MAX_OBJECTS:
        raise SearchBoundExceeded(
            f"isomorphism search bounded at {ISO_SEARCH_MAX_OBJECTS} objects")
    if len(c.objects) != len(d.objects) or len(c.morphisms()) != len(d.morphisms()):
        return None
    for perm in itertools.permutations(d.objects):
        obj_bij = dict(zip(c.objects, perm))
        mor_map = _extend_mor_bijection(c, d, obj_bij)
        if mor_map is None:
            continue
        fwd = FinFunctor(f"iso[{c.name}->{d.name}]", c, d, obj_bij, mor_map)
        if not validate_functor(fwd).ok:
            continue
        back = FinFunctor(f"iso[{d.name}->{c.name}]", d, c,
                          {v: k for k, v in obj_bij.items()},
                          {v: k for k, v in mor_map.items()})
        if validate_functor(back).ok:
            return fwd, back
    return None
