"""Short braidings on short skew multicategories and their transport to and
from braidings on the constructed skew monoidal category.

A short braiding is three natural isomorphism families on tight maps:
swapping slots 2,3 of ternary maps and slots 2,3 / 3,4 of quaternary ones,
subject to six axioms (a Yang-Baxter style relation, compatibility with the
five binary/ternary substitution shapes) and, for a symmetry, self-inverse
swap on ternary maps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .classify import Certificate, Inverses, inverses
from .errors import InconsistentVerdicts, MalformedTable, NoSolution
from .report import ValidationReport
from .shortskew import LOOSE, TIGHT, ShortSkewMulticategory, SkewMultiMorphism
from .skewmon import Braiding, SkewMonCategory, validate_braided_functor
from .transport import UniqueSolveSpec, solve_unique


def _swap(dom: tuple[str, ...], i: int) -> tuple[str, ...]:
    out = list(dom)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


@dataclass(frozen=True)
class ShortBraiding:
    """b32 swaps slots 2,3 of tight ternary maps; b42 and b43 swap slots
    2,3 and 3,4 of tight quaternary maps."""
    name: str
    b32: dict[str, str]
    b42: dict[str, str]
    b43: dict[str, str]

    def table(self, tag: str) -> dict[str, str]:
        return {"b32": self.b32, "b42": self.b42, "b43": self.b43}[tag]


_SPECS = (("b32", 3, 2), ("b42", 4, 2), ("b43", 4, 3))


def validate_short_braiding(m: ShortSkewMulticategory, beta: ShortBraiding) -> ValidationReport:
    base = m.base
    for tag, arity, _ in _SPECS:
        table = beta.table(tag)
        for f in m.multimaps(TIGHT, arity):
            if f not in table:
                raise MalformedTable(f"{beta.name}: {tag} not total at {f}")
    report = ValidationReport(beta.name)
    check = report.check

    for tag, arity, slot in _SPECS:
        table = beta.table(tag)
        # typing and global invertibility (bijection onto the swapped sets)
        for f in m.multimaps(TIGHT, arity):
            _, dom, cod, _ = m.info(f)
            n, idom, icod, _ = m.info(table[f])
            check(f"{tag}-typing", (f,), str((n, idom, icod, m.is_tight(table[f]))),
                  str((arity, _swap(dom, slot), cod, True)))
        for key in m.mapset_keys(TIGHT, arity):
            dom, cod = key
            source = m.mapset(TIGHT, arity, dom, cod)
            target = m.mapset(TIGHT, arity, _swap(dom, slot), cod)
            check(f"{tag}-bijective", (",".join(dom), cod),
                  str(sorted({table[f] for f in source})
                      if all(f in table for f in source) else None),
                  str(sorted(target)))
        # naturality in every slot and in the codomain
        perm = {k: k for k in range(1, arity + 1)}
        perm[slot], perm[slot + 1] = slot + 1, slot
        for f in m.multimaps(TIGHT, arity):
            _, dom, cod, _ = m.info(f)
            for q in base.mors_out_of(cod):
                check(f"{tag}-nat", ("post", q, f), table.get(m.safe_post(q, f)),
                      m.safe_post(q, table.get(f)))
            for i in range(1, arity + 1):
                for p in base.mors_into(dom[i - 1]):
                    check(f"{tag}-nat", ("pre", f, str(i), p), table.get(m.safe_pre(f, i, p)),
                          m.safe_pre(table.get(f), perm[i], p))

    def b32(f):
        return beta.b32.get(f) if f is not None else None

    def b42(f):
        return beta.b42.get(f) if f is not None else None

    def b43(f):
        return beta.b43.get(f) if f is not None else None

    # Yang-Baxter style relation on quaternary maps
    for h in m.multimaps(TIGHT, 4):
        check("braid-yang-baxter", (h,), b42(b43(b42(h))), b43(b42(b43(h))))

    # ternary maps into binary ones
    for g in m.multimaps(TIGHT, 2):
        gdom = m.dom(g)
        for f in m.multimaps(TIGHT, 3):
            if m.cod(f) == gdom[0]:
                check("braid-3-in-2-slot1", (g, f), m.safe_subst(g, 1, b32(f)),
                      b42(m.safe_subst(g, 1, f)))
            if m.cod(f) == gdom[1]:
                check("braid-3-in-2-slot2", (g, f), m.safe_subst(g, 2, b32(f)),
                      b43(m.safe_subst(g, 2, f)))
    # binary maps into ternary ones
    for g in m.multimaps(TIGHT, 3):
        gdom = m.dom(g)
        for f in m.multimaps(TIGHT, 2):
            if m.cod(f) == gdom[0]:
                check("braid-2-in-3-slot1", (g, f), b43(m.safe_subst(g, 1, f)),
                      m.safe_subst(b32(g), 1, f))
            if m.cod(f) == gdom[1]:
                check("braid-2-in-3-slot2", (g, f), b42(b43(m.safe_subst(g, 2, f))),
                      m.safe_subst(b32(g), 3, f))
            if m.cod(f) == gdom[2]:
                check("braid-2-in-3-slot3", (g, f), b43(b42(m.safe_subst(g, 3, f))),
                      m.safe_subst(b32(g), 2, f))
    return report.finish()


def check_short_symmetry(m: ShortSkewMulticategory, beta: ShortBraiding) -> bool:
    return all(beta.b32.get(beta.b32.get(f)) == f for f in m.multimaps(TIGHT, 3))


def theta3(m: ShortSkewMulticategory, cert: Certificate,
           a: str, b: str, c: str) -> Optional[str]:
    return m.safe_subst(cert.theta(cert.obj(a, b), c), 1, cert.theta(a, b))


def derive_beta2(m: ShortSkewMulticategory, cert: Certificate,
                 beta: ShortBraiding, inv: Optional[Inverses] = None) -> dict[str, str]:
    """The induced swap on loose binary maps: abstract the unit, swap with
    b32, and substitute the unit back."""
    inv = inv or inverses(m, cert)
    out = {}
    for r in m.multimaps(LOOSE, 2):
        swapped = beta.b32.get(inv.star[r])
        img = m.safe_subst(swapped, 1, cert.nullary.u)
        if img is None:
            raise NoSolution(f"{beta.name}: unit swap undefined at {r}")
        out[r] = img
    return out


# --------------------------------------------------------------------------
# transport: short braiding <-> braiding on the constructed category
# --------------------------------------------------------------------------

def s_from_short_braiding(m: ShortSkewMulticategory, cert: Certificate,
                          beta: ShortBraiding, name: Optional[str] = None) -> Braiding:
    """The braiding component at (x,a,b) is the unique map turning the
    universal ternary map of (x,a,b) into the swapped image of the one of
    (x,b,a); the inverse solves the mirrored equation."""
    v = cert.view
    base = v.base
    name = name or (beta.name + ".s")
    b32_inv = {img: f for f, img in beta.b32.items()}
    s: dict[tuple[str, str, str], str] = {}
    s_inv: dict[tuple[str, str, str], str] = {}
    for x, a, b in itertools.product(base.objects, repeat=3):
        lhs_dom = cert.obj(cert.obj(x, a), b)
        rhs_dom = cert.obj(cert.obj(x, b), a)
        target = beta.b32.get(theta3(m, cert, x, b, a))
        s[(x, a, b)] = solve_unique(UniqueSolveSpec(
            f"braiding component ({x},{a},{b})", tuple(base.hom(lhs_dom, rhs_dom)),
            lambda w, x=x, a=a, b=b, target=target: [
                (v.safe_post(w, theta3(m, cert, x, a, b)), target)]))
        back = b32_inv.get(theta3(m, cert, x, a, b))
        s_inv[(x, a, b)] = solve_unique(UniqueSolveSpec(
            f"braiding inverse ({x},{a},{b})", tuple(base.hom(rhs_dom, lhs_dom)),
            lambda w, x=x, a=a, b=b, back=back: [
                (v.safe_post(w, theta3(m, cert, x, b, a)), back)]))
    return Braiding(name, s, s_inv)


def short_braiding_from_s(m: ShortSkewMulticategory, cert: Certificate,
                          s: Braiding, name: Optional[str] = None,
                          inv: Optional[Inverses] = None) -> ShortBraiding:
    """Rebuild the three swap families from a braiding on the constructed
    category, through double abstraction against the classifiers."""
    v = cert.view
    base = v.base
    inv = inv or inverses(m, cert)
    name = name or (s.name + ".beta")

    def dprime(f: str) -> str:
        return inv.prime[inv.prime[f]]

    b32 = {}
    for f in m.multimaps(TIGHT, 3):
        a, b, c = m.dom(f)
        carrier = base.compose_opt(dprime(f), s.s[(a, b, c)])
        img = v.safe_post(carrier, theta3(m, cert, a, c, b))
        if img is None:
            raise NoSolution(f"{name}: ternary swap undefined at {f}")
        b32[f] = img
    b42 = {}
    for g in m.multimaps(TIGHT, 4):
        a, b, c, _ = m.dom(g)
        img = v.safe_subst(inv.prime[inv.prime[g]], 1, b32.get(theta3(m, cert, a, b, c)))
        if img is None:
            raise NoSolution(f"{name}: quaternary swap (slots 2,3) undefined at {g}")
        b42[g] = img
    b43 = {}
    for g in m.multimaps(TIGHT, 4):
        a, b, _, _ = m.dom(g)
        img = v.safe_subst(b32.get(inv.prime[g]), 1, cert.theta(a, b))
        if img is None:
            raise NoSolution(f"{name}: quaternary swap (slots 3,4) undefined at {g}")
        b43[g] = img
    return ShortBraiding(name, b32, b42, b43)


def short_braidings_equal(x: ShortBraiding, y: ShortBraiding) -> bool:
    return x.b32 == y.b32 and x.b42 == y.b42 and x.b43 == y.b43


def braidings_equal(x: Braiding, y: Braiding) -> bool:
    return x.s == y.s and x.s_inv == y.s_inv


def validate_braided_transport_functor(F: SkewMultiMorphism,
                                       beta_src: ShortBraiding,
                                       beta_tgt: ShortBraiding,
                                       cert_src: Certificate,
                                       cert_tgt: Certificate,
                                       src_mon: SkewMonCategory,
                                       tgt_mon: SkewMonCategory) -> ValidationReport:
    """Validate preservation of the ternary swap; independently check the two
    quaternary swaps and insist the verdicts agree (preserving the ternary
    swap forces the others); finally check the transported lax functor
    preserves the transported braidings."""
    from .transport import ks_morphism
    src = F.source
    report = ValidationReport(F.name + ".braided")
    ok32 = ok4 = True
    for f in src.multimaps(TIGHT, 3):
        ok32 &= report.check("preserve-b32", (f,), F.safe_apply(beta_src.b32.get(f), TIGHT),
                             beta_tgt.b32.get(F.safe_apply(f, TIGHT)))
    for tag in ("b42", "b43"):
        for g in src.multimaps(TIGHT, 4):
            ok4 &= report.check(f"preserve-{tag}", (g,),
                                F.safe_apply(beta_src.table(tag).get(g), TIGHT),
                                beta_tgt.table(tag).get(F.safe_apply(g, TIGHT)))
    if ok32 and not ok4:
        raise InconsistentVerdicts(
            f"{F.name}: ternary swap preserved but a quaternary one is not")

    s_src = s_from_short_braiding(src, cert_src, beta_src)
    s_tgt = s_from_short_braiding(F.target, cert_tgt, beta_tgt)
    t = ks_morphism(F, cert_src, cert_tgt, src_mon, tgt_mon)
    braided = validate_braided_functor(t, s_src, s_tgt)
    report.merge(braided)
    return report.finish()
