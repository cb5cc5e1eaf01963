"""Skew monoidal, braided, and skew closed categories as tables, with the
structure and functor validators.

Structure morphisms (the associator, unit maps, braiding components, and the
closed-structure units) are stored per component; functoriality and
naturality are validated by enumeration, never assumed. A monoidal category
is a skew monoidal one whose flavour check reports all three structure
families invertible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import DanglingId, MalformedTable
from .fincat import FinCategory, FinFunctor, validate_category, validate_functor
from .report import ValidationReport


@dataclass(frozen=True)
class SkewMonCategory:
    name: str
    base: FinCategory
    tensor_obj: dict[tuple[str, str], str]
    tensor_mor: dict[tuple[str, str], str]
    unit: str
    alpha: dict[tuple[str, str, str], str]   # (ab)c -> a(bc)
    lam: dict[str, str]                      # ia -> a
    rho: dict[str, str]                      # a -> ai

    def t(self, a: str, b: str) -> str:
        try:
            return self.tensor_obj[(a, b)]
        except KeyError:
            raise MalformedTable(f"{self.name}: tensor undefined at ({a},{b})")

    def tm(self, f: str, g: str) -> Optional[str]:
        return self.tensor_mor.get((f, g))

    def tm_left(self, f: str, b: str) -> Optional[str]:
        """f tensored with the identity of b."""
        return self.tm(f, self.base.identity(b))

    def tm_right(self, a: str, g: str) -> Optional[str]:
        return self.tm(self.base.identity(a), g)

    def check_structure(self) -> None:
        self.base.check_structure()
        objs, span = self.base.objects, self.base._span
        if self.unit not in objs:
            raise MalformedTable(f"{self.name}: unit {self.unit} undeclared")
        for (a, b) in itertools.product(objs, repeat=2):
            if (a, b) not in self.tensor_obj:
                raise MalformedTable(f"{self.name}: tensor_obj not total at ({a},{b})")
            if self.tensor_obj[(a, b)] not in objs:
                raise DanglingId(f"{self.name}: tensor_obj({a},{b}) dangles")
        for f, g in itertools.product(self.base.morphisms(), repeat=2):
            if (f, g) not in self.tensor_mor:
                raise MalformedTable(f"{self.name}: tensor_mor not total at ({f},{g})")
        for (f, g), h in self.tensor_mor.items():
            if f not in span or g not in span or h not in span:
                raise DanglingId(f"{self.name}: tensor_mor entry ({f},{g}) dangles")
        for (a, b, c) in itertools.product(objs, repeat=3):
            if (a, b, c) not in self.alpha:
                raise MalformedTable(f"{self.name}: alpha not total at ({a},{b},{c})")
        for a in objs:
            if a not in self.lam or a not in self.rho:
                raise MalformedTable(f"{self.name}: unit maps not total at {a}")
        for table in (self.alpha, self.lam, self.rho):
            for v in table.values():
                if v not in span:
                    raise DanglingId(f"{self.name}: structure morphism {v} dangles")
        for table in ("tensor_obj", "alpha", "lam", "rho"):
            check_key_parts(self.name, table, getattr(self, table), objs, "an object")


def check_key_parts(name: str, table: str, entries: dict, members, what: str) -> None:
    """Raise DanglingId unless every component of every key of the table
    named `table` is in members (the objects or the morphisms of the base)."""
    for key in entries:
        parts = key if isinstance(key, tuple) else (key,)
        for part in parts:
            if part not in members:
                raise DanglingId(f"{name}: {table} key ({','.join(parts)}) names {part}, "
                                 f"which is not {what}")


def _comp_chain(base: FinCategory, *mors: Optional[str]) -> Optional[str]:
    """Compose left-to-right: _comp_chain(f, g, h) = h o g o f; None-safe."""
    mors = [m for m in mors]
    if any(m is None for m in mors):
        return None
    acc = mors[0]
    for m in mors[1:]:
        acc = base.compose_opt(m, acc)
        if acc is None:
            return None
    return acc


def validate_skew_monoidal(c: SkewMonCategory) -> ValidationReport:
    c.check_structure()
    base = c.base
    objs = base.objects
    report = ValidationReport(c.name)
    check = report.check

    # tensor functoriality
    for f, g in itertools.product(base.morphisms(), repeat=2):
        (a, b), (x, y) = base.span(f), base.span(g)
        check("tensor-typing", (f, g), str(base._span.get(c.tensor_mor[(f, g)])),
              str((c.t(a, x), c.t(b, y))))
    for a, b in itertools.product(objs, repeat=2):
        check("tensor-id", (a, b), c.tm(base.identity(a), base.identity(b)),
              base.ids.get(c.t(a, b)))
    for f, g in itertools.product(base.morphisms(), repeat=2):
        for f2 in base.mors_out_of(base.cod(f)):
            for g2 in base.mors_out_of(base.cod(g)):
                check("tensor-comp", (f2, f, g2, g),
                      c.tm(base.compose(f2, f), base.compose(g2, g)),
                      base.compose_opt(c.tm(f2, g2), c.tm(f, g)))

    # spans of the structure morphisms
    for a, b, x in itertools.product(objs, repeat=3):
        check("alpha-typing", (a, b, x), str(base._span.get(c.alpha[(a, b, x)])),
              str((c.t(c.t(a, b), x), c.t(a, c.t(b, x)))))
    for a in objs:
        check("lambda-typing", (a,), str(base._span.get(c.lam[a])), str((c.t(c.unit, a), a)))
        check("rho-typing", (a,), str(base._span.get(c.rho[a])), str((a, c.t(a, c.unit))))

    # naturality of alpha, lambda, rho
    for f, g, h in itertools.product(base.morphisms(), repeat=3):
        (a, a2), (b, b2), (x, x2) = base.span(f), base.span(g), base.span(h)
        check("nat-alpha", (f, g, h),
              _comp_chain(base, c.tm(c.tm(f, g), h), c.alpha[(a2, b2, x2)]),
              _comp_chain(base, c.alpha[(a, b, x)], c.tm(f, c.tm(g, h))))
    for f in base.morphisms():
        a, b = base.span(f)
        check("nat-lambda", (f,), _comp_chain(base, c.tm_right(c.unit, f), c.lam[b]),
              _comp_chain(base, c.lam[a], f))
        check("nat-rho", (f,), _comp_chain(base, f, c.rho[b]),
              _comp_chain(base, c.rho[a], c.tm_left(f, c.unit)))

    # the five structure axioms
    i = c.unit
    for a, b, x, d in itertools.product(objs, repeat=4):
        check("pentagon", (a, b, x, d),
              _comp_chain(base, c.alpha[(c.t(a, b), x, d)], c.alpha[(a, b, c.t(x, d))]),
              _comp_chain(base, c.tm_left(c.alpha[(a, b, x)], d),
                          c.alpha[(a, c.t(b, x), d)],
                          c.tm_right(a, c.alpha[(b, x, d)])))
    for a, b in itertools.product(objs, repeat=2):
        check("left-unit", (a, b), _comp_chain(base, c.alpha[(i, a, b)], c.lam[c.t(a, b)]),
              c.tm_left(c.lam[a], b))
        check("right-unit", (a, b), _comp_chain(base, c.rho[c.t(a, b)], c.alpha[(a, b, i)]),
              c.tm_right(a, c.rho[b]))
        check("middle-unit", (a, b),
              _comp_chain(base, c.tm_left(c.rho[a], b), c.alpha[(a, i, b)],
                          c.tm_right(a, c.lam[b])),
              base.ids.get(c.t(a, b)))
    check("unit-unit", (i,), _comp_chain(base, c.rho[i], c.lam[i]), base.ids.get(i))

    report.merge_prefixed(validate_category(base), "base-")
    return report.finish()


# --------------------------------------------------------------------------
# flavour: left normal / monoidal / closed
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Flavour:
    left_normal: bool
    monoidal: bool
    closed: bool
    rho_inverses: dict[str, str]
    hom_objects: dict[tuple[str, str], tuple[str, str]]  # (b,c) -> ([b,c], counit)


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


def classify_flavour(c: SkewMonCategory) -> Flavour:
    base = c.base
    rho_inv = {}
    for a in base.objects:
        inv = base.is_iso(c.rho[a])
        if inv is not None:
            rho_inv[a] = inv
    left_normal = all(base.is_iso(c.lam[a]) is not None for a in base.objects)
    monoidal = (left_normal and len(rho_inv) == len(base.objects)
                and all(base.is_iso(f) is not None for f in c.alpha.values()))
    homs = {}
    closed = True
    for b, cod in itertools.product(base.objects, repeat=2):
        w = right_adjoint_witness(c, b, cod)
        if w is None:
            closed = False
        else:
            homs[(b, cod)] = w
    return Flavour(left_normal, monoidal, closed, rho_inv, homs)


# --------------------------------------------------------------------------
# lax monoidal functors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxMonFunctor:
    name: str
    source: SkewMonCategory
    target: SkewMonCategory
    functor: FinFunctor
    f0: str                          # i' -> F i
    f2: dict[tuple[str, str], str]   # FaFb -> F(ab)


def validate_lax_functor(t: LaxMonFunctor) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    functor_report = validate_functor(fun)
    fi = fun.on_obj(src.unit)
    for a, b in itertools.product(src.base.objects, repeat=2):
        if (a, b) not in t.f2:
            raise MalformedTable(f"{t.name}: f2 not total at ({a},{b})")
    report = ValidationReport(t.name)
    check = report.check

    check("f0-typing", (t.f0,), str(base._span.get(t.f0)), str((tgt.unit, fi)))
    for a, b in itertools.product(src.base.objects, repeat=2):
        check("f2-typing", (a, b), str(base._span.get(t.f2[(a, b)])),
              str((tgt.t(fun.on_obj(a), fun.on_obj(b)), fun.on_obj(src.t(a, b)))))
    for f, g in itertools.product(src.base.morphisms(), repeat=2):
        (a, a2), (b, b2) = src.base.span(f), src.base.span(g)
        check("f2-nat", (f, g),
              _comp_chain(base, tgt.tm(fun.on_mor(f), fun.on_mor(g)), t.f2[(a2, b2)]),
              _comp_chain(base, t.f2[(a, b)], fun.mor_map.get(src.tm(f, g))))

    F = fun.on_obj
    for a, b, x in itertools.product(src.base.objects, repeat=3):
        check("lax-assoc", (a, b, x),
              _comp_chain(base, tgt.tm_left(t.f2[(a, b)], F(x)),
                          t.f2[(src.t(a, b), x)],
                          fun.mor_map.get(src.alpha[(a, b, x)])),
              _comp_chain(base, tgt.alpha[(F(a), F(b), F(x))],
                          tgt.tm_right(F(a), t.f2[(b, x)]),
                          t.f2[(a, src.t(b, x))]))
    for a in src.base.objects:
        check("lax-left-unit", (a,),
              _comp_chain(base, tgt.tm_left(t.f0, F(a)), t.f2[(src.unit, a)],
                          fun.mor_map.get(src.lam[a])),
              tgt.lam.get(F(a)))
        check("lax-right-unit", (a,),
              _comp_chain(base, tgt.rho[F(a)], tgt.tm_right(F(a), t.f0),
                          t.f2[(a, src.unit)]),
              fun.mor_map.get(src.rho[a]))

    report.merge(functor_report)
    return report.finish()


def identity_lax_functor(c: SkewMonCategory) -> LaxMonFunctor:
    from .fincat import identity_functor
    return LaxMonFunctor(
        f"id[{c.name}]", c, c, identity_functor(c.base),
        f0=c.base.identity(c.unit),
        f2={(a, b): c.base.identity(c.t(a, b))
            for a, b in itertools.product(c.base.objects, repeat=2)})


# --------------------------------------------------------------------------
# braidings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Braiding:
    """Natural isomorphisms s[(x,a,b)]: (xa)b -> (xb)a with recorded inverses."""
    name: str
    s: dict[tuple[str, str, str], str]
    s_inv: dict[tuple[str, str, str], str]


def check_braiding_total(c: SkewMonCategory, braid: Braiding) -> None:
    """Raise MalformedTable unless s and its inverse are defined on every
    triple of objects, and DanglingId unless every value is a base morphism.
    Whether a value has the right type is the s-typing family's question."""
    for key in itertools.product(c.base.objects, repeat=3):
        if key not in braid.s or key not in braid.s_inv:
            raise MalformedTable(f"{braid.name}: braiding not total at {key}")
    for table in (braid.s, braid.s_inv):
        for key, v in table.items():
            if v not in c.base._span:
                raise DanglingId(f"{braid.name}: braiding component {v} at {key} "
                                 f"is not a morphism")


def validate_braiding(c: SkewMonCategory, braid: Braiding) -> ValidationReport:
    check_braiding_total(c, braid)
    base = c.base
    objs = base.objects
    report = ValidationReport(braid.name)
    check = report.check

    def lhs_obj(x, a, b):
        return c.t(c.t(x, a), b)

    for (x, a, b) in itertools.product(objs, repeat=3):
        s = braid.s[(x, a, b)]
        si = braid.s_inv[(x, a, b)]
        check("s-typing", (x, a, b), str(base._span.get(s)),
              str((lhs_obj(x, a, b), lhs_obj(x, b, a))))
        check("s-inverse", (x, a, b),
              str((base.compose_opt(si, s), base.compose_opt(s, si))),
              str((base.ids.get(lhs_obj(x, a, b)), base.ids.get(lhs_obj(x, b, a)))))

    for f, g, h in itertools.product(base.morphisms(), repeat=3):
        (x, x2), (a, a2), (b, b2) = base.span(f), base.span(g), base.span(h)
        check("s-nat", (f, g, h),
              _comp_chain(base, c.tm(c.tm(f, g), h), braid.s[(x2, a2, b2)]),
              _comp_chain(base, braid.s[(x, a, b)], c.tm(c.tm(f, h), g)))

    s = braid.s
    for (x, a, b, e) in itertools.product(objs, repeat=4):
        check("braid-hexagon", (x, a, b, e),
              _comp_chain(base, s[(c.t(x, a), b, e)], c.tm_left(s[(x, a, e)], b),
                          s[(c.t(x, e), a, b)]),
              _comp_chain(base, c.tm_left(s[(x, a, b)], e), s[(c.t(x, b), a, e)],
                          c.tm_left(s[(x, b, e)], a)))
        check("braid-alpha-right", (x, a, b, e),
              _comp_chain(base, c.tm_left(s[(x, a, b)], e), s[(c.t(x, b), a, e)],
                          c.tm_left(c.alpha[(x, b, e)], a)),
              _comp_chain(base, c.alpha[(c.t(x, a), b, e)], s[(x, a, c.t(b, e))]))
        check("braid-alpha-left", (x, a, b, e),
              _comp_chain(base, s[(c.t(x, a), b, e)], c.tm_left(s[(x, a, e)], b),
                          c.alpha[(c.t(x, e), a, b)]),
              _comp_chain(base, c.tm_left(c.alpha[(x, a, b)], e),
                          s[(x, c.t(a, b), e)]))
        check("braid-alpha-inner", (x, a, b, e),
              _comp_chain(base, c.tm_left(c.alpha[(x, a, b)], e),
                          c.alpha[(x, c.t(a, b), e)],
                          c.tm_right(x, s[(a, b, e)])),
              _comp_chain(base, s[(c.t(x, a), b, e)],
                          c.tm_left(c.alpha[(x, a, e)], b),
                          c.alpha[(x, c.t(a, e), b)]))
    return report.finish()


def check_symmetry(c: SkewMonCategory, braid: Braiding) -> bool:
    return all(braid.s[(x, b, a)] == braid.s_inv[(x, a, b)]
               for (x, a, b) in braid.s)


def validate_braided_functor(t: LaxMonFunctor, s_src: Braiding, s_tgt: Braiding) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    F = fun.on_obj
    report = ValidationReport(t.name + ".braided")
    for (x, a, b) in itertools.product(src.base.objects, repeat=3):
        report.check("braided-functor", (x, a, b),
                     _comp_chain(base, s_tgt.s[(F(x), F(a), F(b))],
                                 tgt.tm_left(t.f2[(x, b)], F(a)),
                                 t.f2[(src.t(x, b), a)]),
                     _comp_chain(base, tgt.tm_left(t.f2[(x, a)], F(b)),
                                 t.f2[(src.t(x, a), b)],
                                 fun.mor_map.get(s_src.s[(x, a, b)])))
    return report.finish()


# --------------------------------------------------------------------------
# skew closed categories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewClosedCategory:
    name: str
    base: FinCategory
    hom_obj: dict[tuple[str, str], str]
    hom_mor: dict[tuple[str, str], str]   # (f: b->b', g: c->c') -> [b',c] -> [b,c']
    unit: str
    iu: dict[str, str]                    # I: [i,a] -> a
    ju: dict[str, str]                    # J: i -> [a,a]
    ell: dict[tuple[str, str, str], str]  # L^a_{b,c}: [b,c] -> [[a,b],[a,c]]

    def h(self, a: str, b: str) -> str:
        try:
            return self.hom_obj[(a, b)]
        except KeyError:
            raise MalformedTable(f"{self.name}: hom object undefined at ({a},{b})")

    def hm(self, f: str, g: str) -> Optional[str]:
        return self.hom_mor.get((f, g))

    def hm_left(self, f: str, c: str) -> Optional[str]:
        """[f, 1_c]: contravariant action in the first argument."""
        return self.hm(f, self.base.identity(c))

    def hm_right(self, b: str, g: str) -> Optional[str]:
        return self.hm(self.base.identity(b), g)

    def check_structure(self) -> None:
        self.base.check_structure()
        objs, span = self.base.objects, self.base._span
        if self.unit not in objs:
            raise MalformedTable(f"{self.name}: unit undeclared")
        for a, b in itertools.product(objs, repeat=2):
            if (a, b) not in self.hom_obj or self.hom_obj[(a, b)] not in objs:
                raise MalformedTable(f"{self.name}: hom_obj not total at ({a},{b})")
        for f, g in itertools.product(self.base.morphisms(), repeat=2):
            if (f, g) not in self.hom_mor:
                raise MalformedTable(f"{self.name}: hom_mor not total at ({f},{g})")
        for v in itertools.chain(self.hom_mor.values(), self.iu.values(),
                                 self.ju.values(), self.ell.values()):
            if v not in span:
                raise DanglingId(f"{self.name}: structure morphism {v} dangles")
        for a in objs:
            if a not in self.iu or a not in self.ju:
                raise MalformedTable(f"{self.name}: unit maps not total at {a}")
        for key in itertools.product(objs, repeat=3):
            if key not in self.ell:
                raise MalformedTable(f"{self.name}: L not total at {key}")
        for table in ("hom_obj", "iu", "ju", "ell"):
            check_key_parts(self.name, table, getattr(self, table), objs, "an object")
        check_key_parts(self.name, "hom_mor", self.hom_mor, span, "a morphism")


def validate_skew_closed(c: SkewClosedCategory) -> ValidationReport:
    """Naturality of the hom functor and of I, J, L, plus the five
    structure axioms of a left skew closed category (the J/L triangle among
    them) as axiom schemas."""
    c.check_structure()
    base = c.base
    objs = base.objects
    i = c.unit
    report = ValidationReport(c.name)
    check = report.check

    # hom functoriality: contravariant first argument, covariant second
    for f, g in itertools.product(base.morphisms(), repeat=2):
        (b, b2), (x, x2) = base.span(f), base.span(g)
        check("hom-typing", (f, g), str(base._span.get(c.hom_mor[(f, g)])),
              str((c.h(b2, x), c.h(b, x2))))
    for a, b in itertools.product(objs, repeat=2):
        check("hom-id", (a, b), c.hm(base.identity(a), base.identity(b)),
              base.ids.get(c.h(a, b)))
    # contravariance crosses the pairing: [f2 o f, g2 o g] = [f,g2] o [f2,g]
    for f, g in itertools.product(base.morphisms(), repeat=2):
        for f2 in base.mors_out_of(base.cod(f)):
            for g2 in base.mors_out_of(base.cod(g)):
                check("hom-comp", (f2, f, g2, g),
                      c.hm(base.compose(f2, f), base.compose(g2, g)),
                      base.compose_opt(c.hm(f, g2), c.hm(f2, g)))

    # spans of the structure morphisms
    for a in objs:
        check("I-typing", (a,), str(base._span.get(c.iu[a])), str((c.h(i, a), a)))
        check("J-typing", (a,), str(base._span.get(c.ju[a])), str((i, c.h(a, a))))
    for a, b, x in itertools.product(objs, repeat=3):
        check("L-typing", (a, b, x), str(base._span.get(c.ell[(a, b, x)])),
              str((c.h(b, x), c.h(c.h(a, b), c.h(a, x)))))

    # naturality of I, J (dinatural), L
    for f in base.morphisms():
        a, b = base.span(f)
        check("nat-I", (f,), _comp_chain(base, c.hm_right(i, f), c.iu[b]),
              _comp_chain(base, c.iu[a], f))
        check("dinat-J", (f,), _comp_chain(base, c.ju[a], c.hm_right(a, f)),
              _comp_chain(base, c.ju[b], c.hm_left(f, b)))
    for f in base.morphisms():
        b, b2 = base.span(f)
        for a, x in itertools.product(objs, repeat=2):
            # contravariant: [f,x] then L  =  L then [[a,f],1]
            check("nat-L-contra", (a, f, x),
                  _comp_chain(base, c.hm_left(f, x), c.ell[(a, b, x)]),
                  _comp_chain(base, c.ell[(a, b2, x)],
                              c.hm(c.hm_right(a, f), base.identity(c.h(a, x)))))
            # covariant: L then [1,[a,f]]  =  [x,f] then L
            check("nat-L-co", (a, x, f),
                  _comp_chain(base, c.ell[(a, x, b)],
                              c.hm(base.identity(c.h(a, x)), c.hm_right(a, f))),
                  _comp_chain(base, c.hm_right(x, f), c.ell[(a, x, b2)]))
            # dinatural in a: L^a then [[f,a-slot],1]  =  L^{a'} then [1,[f,x]]
            check("dinat-L", (f, a, x),
                  _comp_chain(base, c.ell[(b, a, x)],
                              c.hm(c.hm_left(f, a), base.identity(c.h(b, x)))),
                  _comp_chain(base, c.ell[(b2, a, x)],
                              c.hm(base.identity(c.h(b2, a)), c.hm_left(f, x))))

    # the five structure axioms
    for a, b, x, d in itertools.product(objs, repeat=4):
        check("L-pentagon", (a, b, x, d),
              _comp_chain(base, c.ell[(a, x, d)],
                          c.ell[(c.h(a, b), c.h(a, x), c.h(a, d))],
                          c.hm(c.ell[(a, b, x)], base.identity(c.h(c.h(a, b), c.h(a, d))))),
              _comp_chain(base, c.ell[(b, x, d)],
                          c.hm(base.identity(c.h(b, x)), c.ell[(a, b, d)])))
    for a, b in itertools.product(objs, repeat=2):
        check("L-J-collapse", (a, b),
              _comp_chain(base, c.ell[(a, a, b)],
                          c.hm(c.ju[a], base.identity(c.h(a, b))),
                          c.iu[c.h(a, b)]),
              base.ids.get(c.h(a, b)))
        check("J-L-triangle", (a, b), _comp_chain(base, c.ju[b], c.ell[(a, b, b)]),
              c.ju.get(c.h(a, b)))
        check("L-I-compat", (a, b),
              _comp_chain(base, c.ell[(i, a, b)],
                          c.hm(base.identity(c.h(i, a)), c.iu[b])),
              c.hm(c.iu[a], base.identity(b)))
    check("I-J-unit", (i,), _comp_chain(base, c.ju[i], c.iu[i]), base.ids.get(i))

    report.merge_prefixed(validate_category(base), "base-")
    return report.finish()


# --------------------------------------------------------------------------
# closed functors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewClosedFunctor:
    name: str
    source: SkewClosedCategory
    target: SkewClosedCategory
    functor: FinFunctor
    f0: str                           # i' -> F i
    fh: dict[tuple[str, str], str]    # F[a,b] -> [Fa,Fb]


def validate_skew_closed_functor(t: SkewClosedFunctor) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    F = fun.on_obj
    functor_report = validate_functor(fun)
    for a, b in itertools.product(src.base.objects, repeat=2):
        if (a, b) not in t.fh:
            raise MalformedTable(f"{t.name}: hom comparison not total at ({a},{b})")
    report = ValidationReport(t.name)
    check = report.check

    check("f0-typing", (t.f0,), str(base._span.get(t.f0)), str((tgt.unit, F(src.unit))))
    for a, b in itertools.product(src.base.objects, repeat=2):
        check("fh-typing", (a, b), str(base._span.get(t.fh[(a, b)])),
              str((F(src.h(a, b)), tgt.h(F(a), F(b)))))
    for f, g in itertools.product(src.base.morphisms(), repeat=2):
        (b, b2), (x, x2) = src.base.span(f), src.base.span(g)
        check("fh-nat", (f, g),
              _comp_chain(base, fun.mor_map.get(src.hm(f, g)), t.fh[(b, x2)]),
              _comp_chain(base, t.fh[(b2, x)], tgt.hm(fun.on_mor(f), fun.on_mor(g))))

    for a in src.base.objects:
        check("closed-I", (a,),
              _comp_chain(base, t.fh[(src.unit, a)], tgt.hm_left(t.f0, F(a)), tgt.iu[F(a)]),
              fun.mor_map.get(src.iu[a]))
        check("closed-J", (a,),
              _comp_chain(base, t.f0, fun.mor_map.get(src.ju[a]), t.fh[(a, a)]),
              tgt.ju.get(F(a)))
    for a, b, x in itertools.product(src.base.objects, repeat=3):
        check("closed-L", (a, b, x),
              _comp_chain(base, t.fh[(b, x)], tgt.ell[(F(a), F(b), F(x))],
                          tgt.hm(t.fh[(a, b)], base.identity(tgt.h(F(a), F(x))))),
              _comp_chain(base, fun.mor_map.get(src.ell[(a, b, x)]),
                          t.fh[(src.h(a, b), src.h(a, x))],
                          tgt.hm(base.identity(F(src.h(a, b))), t.fh[(a, x)])))
    report.merge(functor_report)
    return report.finish()
