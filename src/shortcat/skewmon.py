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

from .errors import MalformedTable
from .fincat import (
    FinCategory, FinFunctor, check_tables, table_domains, validate_category, validate_functor,
)
from .report import ValidationReport, tally


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

    def check_structure(self) -> None:
        self.base.check_structure()
        objs, mors, arrows = table_domains(self.base)
        if self.unit not in objs[0]:
            raise MalformedTable(f"{self.name}: unit {self.unit} undeclared")
        check_tables(self.name, [
            ("tensor_obj", self.tensor_obj, 2, objs, objs),
            ("tensor_mor", self.tensor_mor, 2, mors, arrows),
            ("alpha", self.alpha, 3, objs, arrows),
            ("lam", self.lam, 1, objs, arrows),
            ("rho", self.rho, 1, objs, arrows)])


def _comp_chain(base: FinCategory, *mors: Optional[str]) -> Optional[str]:
    """Compose left-to-right: _comp_chain(f, g, h) = h o g o f; None-safe,
    as compose_opt is None when either side is."""
    acc = mors[0]
    for m in mors[1:]:
        acc = base.compose_opt(m, acc)
    return acc


def validate_skew_monoidal(c: SkewMonCategory) -> ValidationReport:
    """Once check_structure has passed, every table is total and comp is keyed
    by exactly the composable pairs: the laws read the tables directly."""
    c.check_structure()
    base, i = c.base, c.unit
    objs, (mors, _, out_of), span, ids = base.objects, base._adjacency, base._span, base.ids
    to, tm, alpha, lam, rho = c.tensor_obj, c.tensor_mor, c.alpha, c.lam, c.rho
    comp, cget, report = base.comp, base.comp.get, ValidationReport(c.name)
    fail, n = report.fail, 0

    # tensor functoriality
    for fg in itertools.product(mors, repeat=2):
        f, g = fg
        (a, b), (x, y), h = span[f], span[g], tm[fg]
        if span[h] != (want := (to[a, x], to[b, y])):
            fail("tensor-typing", fg, str(span[h]), str(want))
        for f2 in out_of[b]:
            f2f = comp[f2, f]
            for g2 in out_of[y]:
                if (lhs := tm[f2f, comp[g2, g]]) != (rhs := cget((tm[f2, g2], h))) or lhs is None:
                    fail("tensor-comp", (f2, f, g2, g), lhs, rhs)
                n += 1

    # spans of the structure morphisms
    for abx in itertools.product(objs, repeat=3):
        a, b, x = abx
        if span[alpha[abx]] != (want := (to[to[a, b], x], to[a, to[b, x]])):
            fail("alpha-typing", abx, str(span[alpha[abx]]), str(want))
    for a in objs:
        if span[lam[a]] != (to[i, a], a):
            fail("lambda-typing", (a,), str(span[lam[a]]), str((to[i, a], a)))
        if span[rho[a]] != (a, to[a, i]):
            fail("rho-typing", (a,), str(span[rho[a]]), str((a, to[a, i])))

    # naturality of alpha, lambda, rho
    for fgh in itertools.product(mors, repeat=3):
        f, g, h = fgh
        (a, a2), (b, b2), (x, x2) = span[f], span[g], span[h]
        lhs = cget((alpha[a2, b2, x2], tm[tm[f, g], h]))
        if lhs != (rhs := cget((tm[f, tm[g, h]], alpha[a, b, x]))) or lhs is None:
            fail("nat-alpha", fgh, lhs, rhs)
    for f in mors:
        a, b = span[f]
        if (lhs := cget((lam[b], tm[ids[i], f]))) != (rhs := cget((f, lam[a]))) or lhs is None:
            fail("nat-lambda", (f,), lhs, rhs)
        if (lhs := cget((rho[b], f))) != (rhs := cget((tm[f, ids[i]], rho[a]))) or lhs is None:
            fail("nat-rho", (f,), lhs, rhs)

    # the five structure axioms
    for abxd in itertools.product(objs, repeat=4):
        a, b, x, d = abxd
        lhs = cget((alpha[a, b, to[x, d]], alpha[to[a, b], x, d]))
        rhs = cget((tm[ids[a], alpha[b, x, d]],
                    cget((alpha[a, to[b, x], d], tm[alpha[a, b, x], ids[d]]))))
        if lhs != rhs or lhs is None:
            fail("pentagon", abxd, lhs, rhs)
    for ab in itertools.product(objs, repeat=2):
        a, b = ab
        for family, lhs, rhs in (
                ("tensor-id", tm[ids[a], ids[b]], ids[to[ab]]),
                ("left-unit", cget((lam[to[ab]], alpha[i, a, b])), tm[lam[a], ids[b]]),
                ("right-unit", cget((alpha[a, b, i], rho[to[ab]])), tm[ids[a], rho[b]]),
                ("middle-unit", cget((tm[ids[a], lam[b]],
                                      cget((alpha[a, i, b], tm[rho[a], ids[b]])))), ids[to[ab]])):
            if lhs != rhs or lhs is None:
                fail(family, ab, lhs, rhs)
    if cget((lam[i], rho[i])) != ids[i]:
        fail("unit-unit", (i,), cget((lam[i], rho[i])), ids[i])
    o, m = len(objs), len(mors)
    tally(report, {"tensor-typing": m * m, "tensor-comp": n, "alpha-typing": o ** 3,
                   "lambda-typing": o, "rho-typing": o, "nat-alpha": m ** 3, "nat-lambda": m,
                   "nat-rho": m, "pentagon": o ** 4, "tensor-id": o * o, "left-unit": o * o,
                   "right-unit": o * o, "middle-unit": o * o, "unit-unit": 1})

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
    from .classify import bijection_table
    base = c.base
    for h in base.objects:
        for eps in base.hom(c.t(h, b), cod):
            if all(bijection_table(base.hom(a, h),
                                   lambda v: _comp_chain(base, c.tm_left(v, b), eps),
                                   base.hom(c.t(a, b), cod)) is not None
                   for a in base.objects):
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
    """Both ends must have passed check_structure (the CLI checks each end
    as it loads it): the laws read their tables directly."""
    src, tgt, fun = t.source, t.target, t.functor
    functor_report = validate_functor(fun)
    objs, sspan = src.base.objects, src.base._span
    check_tables(t.name, [("f2", t.f2, 2, table_domains(src.base)[0], table_domains(tgt.base)[2])])
    span, ids, cget, tm = tgt.base._span, tgt.base.ids, tgt.base.comp.get, tgt.tensor_mor
    F, Fm, f0, f2, i, to = fun.obj_map, fun.mor_map, t.f0, t.f2, src.unit, src.tensor_obj
    report = ValidationReport(t.name)
    fail = report.fail

    if span.get(f0) != (want := (tgt.unit, F[i])):
        fail("f0-typing", (f0,), str(span.get(f0)), str(want))
    for ab in itertools.product(objs, repeat=2):
        if span[f2[ab]] != (want := (tgt.tensor_obj[F[ab[0]], F[ab[1]]], F[to[ab]])):
            fail("f2-typing", ab, str(span[f2[ab]]), str(want))
    for fg in itertools.product(sspan, repeat=2):
        (a, a2), (b, b2) = sspan[fg[0]], sspan[fg[1]]
        lhs = cget((f2[a2, b2], tm[Fm[fg[0]], Fm[fg[1]]]))
        if lhs != (rhs := cget((Fm[src.tensor_mor[fg]], f2[a, b]))) or lhs is None:
            fail("f2-nat", fg, lhs, rhs)
    for abx in itertools.product(objs, repeat=3):
        a, b, x = abx
        lhs = cget((Fm[src.alpha[abx]], cget((f2[to[a, b], x], tm[f2[a, b], ids[F[x]]]))))
        rhs = cget((f2[a, to[b, x]], cget((tm[ids[F[a]], f2[b, x]], tgt.alpha[F[a], F[b], F[x]]))))
        if lhs != rhs or lhs is None:
            fail("lax-assoc", abx, lhs, rhs)
    for a in objs:
        lhs = cget((Fm[src.lam[a]], cget((f2[i, a], tm.get((f0, ids[F[a]]))))))
        if lhs != (rhs := tgt.lam[F[a]]) or lhs is None:
            fail("lax-left-unit", (a,), lhs, rhs)
        lhs = cget((f2[a, i], cget((tm.get((ids[F[a]], f0)), tgt.rho[F[a]]))))
        if lhs != (rhs := Fm[src.rho[a]]) or lhs is None:
            fail("lax-right-unit", (a,), lhs, rhs)
    o = len(objs)
    tally(report, {"f0-typing": 1, "f2-typing": o * o, "f2-nat": len(sspan) ** 2,
                   "lax-assoc": o ** 3, "lax-left-unit": o, "lax-right-unit": o})
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
    """Raise MalformedTable unless s and its inverse are defined on exactly
    the triples of objects, and DanglingId unless every value is a base
    morphism. Whether a value has the right type is the s-typing family's
    question."""
    objs, _, arrows = table_domains(c.base)
    check_tables(braid.name, [("braiding", braid.s, 3, objs, arrows),
                              ("sinv", braid.s_inv, 3, objs, arrows)])


def validate_braiding(c: SkewMonCategory, braid: Braiding) -> ValidationReport:
    """Validate the braiding on c, which must have passed check_structure
    (validate_skew_monoidal runs it): the laws read its tables directly."""
    check_braiding_total(c, braid)
    base, s, si = c.base, braid.s, braid.s_inv
    objs, mors, span, ids = base.objects, base.morphisms(), base._span, base.ids
    to, tm, alpha, cget = c.tensor_obj, c.tensor_mor, c.alpha, base.comp.get
    report = ValidationReport(braid.name)
    fail = report.fail

    for xab in itertools.product(objs, repeat=3):
        x, a, b = xab
        u, v, w = s[xab], si[xab], (to[to[x, a], b], to[to[x, b], a])
        if span[u] != w:
            fail("s-typing", xab, str(span[u]), str(w))
        if (have := (cget((v, u)), cget((u, v)))) != (want := (ids[w[0]], ids[w[1]])):
            fail("s-inverse", xab, str(have), str(want))
    for fgh in itertools.product(mors, repeat=3):
        f, g, h = fgh
        (x, x2), (a, a2), (b, b2) = span[f], span[g], span[h]
        lhs, rhs = cget((s[x2, a2, b2], tm[tm[f, g], h])), cget((tm[tm[f, h], g], s[x, a, b]))
        if lhs != rhs or lhs is None:
            fail("s-nat", fgh, lhs, rhs)
    for xabe in itertools.product(objs, repeat=4):
        x, a, b, e = xabe
        # the composites that more than one law reads
        sae = cget((tm[s[x, a, e], ids[b]], s[to[x, a], b, e]))
        sbe = cget((s[to[x, b], a, e], tm[s[x, a, b], ids[e]]))
        axe = tm[alpha[x, a, b], ids[e]]
        for family, lhs, rhs in (
                ("braid-hexagon", cget((s[to[x, e], a, b], sae)),
                 cget((tm[s[x, b, e], ids[a]], sbe))),
                ("braid-alpha-right", cget((tm[alpha[x, b, e], ids[a]], sbe)),
                 cget((s[x, a, to[b, e]], alpha[to[x, a], b, e]))),
                ("braid-alpha-left", cget((alpha[to[x, e], a, b], sae)),
                 cget((s[x, to[a, b], e], axe))),
                ("braid-alpha-inner", cget((tm[ids[x], s[a, b, e]],
                                            cget((alpha[x, to[a, b], e], axe)))),
                 cget((alpha[x, to[a, e], b],
                       cget((tm[alpha[x, a, e], ids[b]], s[to[x, a], b, e])))))):
            if lhs != rhs or lhs is None:
                fail(family, xabe, lhs, rhs)
    o = len(objs)
    tally(report, {"s-typing": o ** 3, "s-inverse": o ** 3, "s-nat": len(mors) ** 3,
                   "braid-hexagon": o ** 4, "braid-alpha-right": o ** 4,
                   "braid-alpha-left": o ** 4, "braid-alpha-inner": o ** 4})
    return report.finish()


def check_symmetry(c: SkewMonCategory, braid: Braiding) -> bool:
    return all(braid.s[(x, b, a)] == braid.s_inv[(x, a, b)]
               for (x, a, b) in braid.s)


def validate_braided_functor(t: LaxMonFunctor, s_src: Braiding, s_tgt: Braiding) -> ValidationReport:
    src, tgt, fun = t.source, t.target, t.functor
    base = tgt.base
    F = fun.obj_map
    report = ValidationReport(t.name + ".braided")
    for (x, a, b) in itertools.product(src.base.objects, repeat=3):
        report.check("braided-functor", (x, a, b),
                     _comp_chain(base, s_tgt.s[(F[x], F[a], F[b])],
                                 tgt.tm_left(t.f2[(x, b)], F[a]),
                                 t.f2[(src.t(x, b), a)]),
                     _comp_chain(base, tgt.tm_left(t.f2[(x, a)], F[b]),
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

    def check_structure(self) -> None:
        self.base.check_structure()
        objs, mors, arrows = table_domains(self.base)
        if self.unit not in objs[0]:
            raise MalformedTable(f"{self.name}: unit undeclared")
        check_tables(self.name, [
            ("hom_obj", self.hom_obj, 2, objs, objs),
            ("hom_mor", self.hom_mor, 2, mors, arrows),
            ("iu", self.iu, 1, objs, arrows),
            ("ju", self.ju, 1, objs, arrows),
            ("ell", self.ell, 3, objs, arrows)])


def validate_skew_closed(c: SkewClosedCategory) -> ValidationReport:
    """Naturality of the hom functor and of I, J, L, plus the five
    structure axioms of a left skew closed category (the J/L triangle among
    them) as axiom schemas, read from the tables once check_structure passed."""
    c.check_structure()
    base, i = c.base, c.unit
    objs, (mors, _, out_of), span, ids = base.objects, base._adjacency, base._span, base.ids
    ho, hm, iu, ju, ell = c.hom_obj, c.hom_mor, c.iu, c.ju, c.ell
    comp, cget, report = base.comp, base.comp.get, ValidationReport(c.name)
    fail, n = report.fail, 0

    # hom functoriality: contravariant first argument, covariant second;
    # contravariance crosses the pairing: [f2 o f, g2 o g] = [f,g2] o [f2,g]
    for fg in itertools.product(mors, repeat=2):
        f, g = fg
        (b, b2), (x, x2), h = span[f], span[g], hm[fg]
        if span[h] != (want := (ho[b2, x], ho[b, x2])):
            fail("hom-typing", fg, str(span[h]), str(want))
        for f2 in out_of[b2]:
            f2f = comp[f2, f]
            for g2 in out_of[x2]:
                lhs, rhs = hm[f2f, comp[g2, g]], cget((hm[f, g2], hm[f2, g]))
                if lhs != rhs or lhs is None:
                    fail("hom-comp", (f2, f, g2, g), lhs, rhs)
                n += 1

    # spans of the structure morphisms
    for a in objs:
        if span[iu[a]] != (ho[i, a], a):
            fail("I-typing", (a,), str(span[iu[a]]), str((ho[i, a], a)))
        if span[ju[a]] != (i, ho[a, a]):
            fail("J-typing", (a,), str(span[ju[a]]), str((i, ho[a, a])))
    for abx in itertools.product(objs, repeat=3):
        a, b, x = abx
        if span[ell[abx]] != (want := (ho[b, x], ho[ho[a, b], ho[a, x]])):
            fail("L-typing", abx, str(span[ell[abx]]), str(want))

    # naturality of I, J (dinatural), L
    for f in mors:
        b, b2 = span[f]
        if (lhs := cget((iu[b2], hm[ids[i], f]))) != (rhs := cget((f, iu[b]))) or lhs is None:
            fail("nat-I", (f,), lhs, rhs)
        lhs, rhs = cget((hm[ids[b], f], ju[b])), cget((hm[f, ids[b2]], ju[b2]))
        if lhs != rhs or lhs is None:
            fail("dinat-J", (f,), lhs, rhs)
        for a, x in itertools.product(objs, repeat=2):
            # contravariant: [f,x] then L  =  L then [[a,f],1]
            lhs, rhs = (cget((ell[a, b, x], hm[f, ids[x]])),
                        cget((hm[hm[ids[a], f], ids[ho[a, x]]], ell[a, b2, x])))
            if lhs != rhs or lhs is None:
                fail("nat-L-contra", (a, f, x), lhs, rhs)
            # covariant: L then [1,[a,f]]  =  [x,f] then L
            lhs = cget((hm[ids[ho[a, x]], hm[ids[a], f]], ell[a, x, b]))
            if lhs != (rhs := cget((ell[a, x, b2], hm[ids[x], f]))) or lhs is None:
                fail("nat-L-co", (a, x, f), lhs, rhs)
            # dinatural in a: L^a then [[f,a-slot],1]  =  L^{a'} then [1,[f,x]]
            lhs, rhs = (cget((hm[hm[f, ids[a]], ids[ho[b, x]]], ell[b, a, x])),
                        cget((hm[ids[ho[b2, a]], hm[f, ids[x]]], ell[b2, a, x])))
            if lhs != rhs or lhs is None:
                fail("dinat-L", (f, a, x), lhs, rhs)

    # the five structure axioms
    for abxd in itertools.product(objs, repeat=4):
        a, b, x, d = abxd
        hab, had = ho[a, b], ho[a, d]
        lhs = cget((hm[ell[a, b, x], ids[ho[hab, had]]],
                    cget((ell[hab, ho[a, x], had], ell[a, x, d]))))
        if lhs != (rhs := cget((hm[ids[ho[b, x]], ell[a, b, d]], ell[b, x, d]))) or lhs is None:
            fail("L-pentagon", abxd, lhs, rhs)
    for ab in itertools.product(objs, repeat=2):
        a, b = ab
        for family, lhs, rhs in (
                ("hom-id", hm[ids[a], ids[b]], ids[ho[ab]]),
                ("L-J-collapse", cget((iu[ho[ab]], cget((hm[ju[a], ids[ho[ab]]], ell[a, a, b])))),
                 ids[ho[ab]]),
                ("J-L-triangle", cget((ell[a, b, b], ju[b])), ju[ho[ab]]),
                ("L-I-compat", cget((hm[ids[ho[i, a]], iu[b]], ell[i, a, b])), hm[iu[a], ids[b]])):
            if lhs != rhs or lhs is None:
                fail(family, ab, lhs, rhs)
    if cget((iu[i], ju[i])) != ids[i]:
        fail("I-J-unit", (i,), cget((iu[i], ju[i])), ids[i])
    o, m = len(objs), len(mors)
    tally(report, {"hom-typing": m * m, "hom-comp": n, "I-typing": o, "J-typing": o,
                   "L-typing": o ** 3, "nat-I": m, "dinat-J": m, "nat-L-contra": m * o * o,
                   "nat-L-co": m * o * o, "dinat-L": m * o * o, "L-pentagon": o ** 4,
                   "hom-id": o * o, "L-J-collapse": o * o, "J-L-triangle": o * o,
                   "L-I-compat": o * o, "I-J-unit": 1})

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
    F = fun.obj_map
    functor_report = validate_functor(fun)
    check_tables(t.name, [("hom comparison", t.fh, 2, table_domains(src.base)[0],
                           table_domains(base)[2])])
    report = ValidationReport(t.name)
    check = report.check

    check("f0-typing", (t.f0,), str(base._span.get(t.f0)), str((tgt.unit, F[src.unit])))
    for a, b in itertools.product(src.base.objects, repeat=2):
        check("fh-typing", (a, b), str(base._span.get(t.fh[(a, b)])),
              str((F[src.h(a, b)], tgt.h(F[a], F[b]))))
    for f, g in itertools.product(src.base.morphisms(), repeat=2):
        (b, b2), (x, x2) = src.base.span(f), src.base.span(g)
        check("fh-nat", (f, g),
              _comp_chain(base, fun.mor_map.get(src.hm(f, g)), t.fh[(b, x2)]),
              _comp_chain(base, t.fh[(b2, x)], tgt.hm(fun.mor_map[f], fun.mor_map[g])))

    for a in src.base.objects:
        check("closed-I", (a,),
              _comp_chain(base, t.fh[(src.unit, a)], tgt.hm(t.f0, base.identity(F[a])),
                          tgt.iu[F[a]]),
              fun.mor_map.get(src.iu[a]))
        check("closed-J", (a,),
              _comp_chain(base, t.f0, fun.mor_map.get(src.ju[a]), t.fh[(a, a)]),
              tgt.ju.get(F[a]))
    for a, b, x in itertools.product(src.base.objects, repeat=3):
        check("closed-L", (a, b, x),
              _comp_chain(base, t.fh[(b, x)], tgt.ell[(F[a], F[b], F[x])],
                          tgt.hm(t.fh[(a, b)], base.identity(tgt.h(F[a], F[x])))),
              _comp_chain(base, fun.mor_map.get(src.ell[(a, b, x)]),
                          t.fh[(src.h(a, b), src.h(a, x))],
                          tgt.hm(base.identity(F[src.h(a, b)]), t.fh[(a, x)])))
    report.merge(functor_report)
    return report.finish()
