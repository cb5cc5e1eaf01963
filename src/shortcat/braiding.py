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
from typing import TYPE_CHECKING, Optional

from .errors import InconsistentVerdicts, NoSolution
from .fincat import check_tables
from .report import ValidationReport, tally
from .shortskew import LOOSE, TIGHT, ShortBraiding, ShortSkewMulticategory, SkewMultiMorphism

if TYPE_CHECKING:
    from .classify import Certificate
    from .skewmon import Braiding, SkewMonCategory

# validate_short_braiding reads only the swap tables; the transports below
# import the classifier and skew monoidal modules when they run.


def _swap(dom: tuple[str, ...], i: int) -> tuple[str, ...]:
    out = list(dom)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


_SPECS = (("b32", 3, 2), ("b42", 4, 2), ("b43", 4, 3))


def validate_short_braiding(m: ShortSkewMulticategory, beta: ShortBraiding) -> ValidationReport:
    """Validate the swap tables beta on m, which must have passed
    check_structure (validate_short_skew runs it): the laws read m.lookups,
    which give the actions and substitution only on such a structure, and
    which validate_short_skew has already built."""
    base, info = m.base, m._index
    check_tables(beta.name, [
        (tag, beta.table(tag), 1,
         (m.multimaps(TIGHT, arity), f"a tight multimap of arity {arity}"), (info, "a multimap"))
        for tag, arity, _ in _SPECS])
    pre, post, sub = m.lookups
    pget, qget, sget = pre.get, post.get, sub.get
    _, into, out_of = base._adjacency
    report = ValidationReport(beta.name)
    fail = report.fail

    for tag, arity, slot in _SPECS:
        table = beta.table(tag)
        tget = table.get
        # typing and global invertibility (bijection onto the swapped sets);
        # the sides are tuples and lists of ids, equal exactly when their
        # printed forms are
        family = f"{tag}-typing"
        for f in m.multimaps(TIGHT, arity):
            _, dom, cod, _ = info[f]
            n, idom, icod, flavours = info[table[f]]
            have, want = (n, idom, icod, TIGHT in flavours), (arity, _swap(dom, slot), cod, True)
            if have != want:
                fail(family, (f,), str(have), str(want))
        family, sets = f"{tag}-bijective", m.tight.get(arity, {})
        for (dom, cod), source in sets.items():
            have = sorted({table[f] for f in source})
            want = sorted(sets.get((_swap(dom, slot), cod), ()))
            if have != want:
                fail(family, (",".join(dom), cod), str(have), str(want))
        # naturality in every slot and in the codomain
        perm = {k: k for k in range(1, arity + 1)}
        perm[slot], perm[slot + 1] = slot + 1, slot
        family, count = f"{tag}-nat", 0
        for f in m.multimaps(TIGHT, arity):
            _, dom, cod, _ = info[f]
            image = tget(f)
            for q in out_of[cod]:
                lhs, rhs = tget(qget((q, f))), qget((q, image))
                if lhs != rhs or lhs is None:
                    fail(family, ("post", q, f), lhs, rhs)
                count += 1
            for i, a in enumerate(dom, 1):
                for p in into[a]:
                    lhs, rhs = tget(pget((f, i, p))), pget((image, perm[i], p))
                    if lhs != rhs or lhs is None:
                        fail(family, ("pre", f, str(i), p), lhs, rhs)
                    count += 1
        tally(report, {f"{tag}-typing": len(m.multimaps(TIGHT, arity)),
                       f"{tag}-bijective": len(sets), family: count})

    b32, b42, b43 = beta.b32.get, beta.b42.get, beta.b43.get
    # the two composite swaps of quaternary maps: b42 after b43, b43 after b42
    b42_43 = {h: b42(v) for h, v in beta.b43.items()}.get
    b43_42 = {h: b43(v) for h, v in beta.b42.items()}.get
    # Yang-Baxter style relation on quaternary maps
    for h in m.multimaps(TIGHT, 4):
        if (lhs := b42(b43_42(h))) != (rhs := b43(b42_43(h))) or lhs is None:
            fail("braid-yang-baxter", (h,), lhs, rhs)
    tally(report, {"braid-yang-baxter": len(m.multimaps(TIGHT, 4))})
    # ternary maps into binary ones at slot i, then binary maps into ternary
    # ones at slot i, which the swapped ternary map has at slot j
    for i, after in ((1, b42), (2, b43)):
        family, count = f"braid-3-in-2-slot{i}", 0
        for g in m.multimaps(TIGHT, 2):
            fs = m.maps_into(TIGHT, 3, info[g][1][i - 1])
            for f in fs:
                if (lhs := sget((g, i, b32(f)))) != (rhs := after(sget((g, i, f)))) or lhs is None:
                    fail(family, (g, f), lhs, rhs)
            count += len(fs)
        tally(report, {family: count})
    for i, j, swap in ((1, 1, b43), (2, 3, b42_43), (3, 2, b43_42)):
        family, count = f"braid-2-in-3-slot{i}", 0
        for g in m.multimaps(TIGHT, 3):
            fs, image = m.maps_into(TIGHT, 2, info[g][1][i - 1]), b32(g)
            for f in fs:
                if (lhs := swap(sget((g, i, f)))) != (rhs := sget((image, j, f))) or lhs is None:
                    fail(family, (g, f), lhs, rhs)
            count += len(fs)
        tally(report, {family: count})
    return report.finish()


def check_short_symmetry(m: ShortSkewMulticategory, beta: ShortBraiding) -> bool:
    return all(beta.b32.get(beta.b32.get(f)) == f for f in m.multimaps(TIGHT, 3))


def theta3(m: ShortSkewMulticategory, cert: Certificate,
           a: str, b: str, c: str) -> Optional[str]:
    return m.safe_subst(cert.theta(cert.obj(a, b), c), 1, cert.theta(a, b))


def derive_beta2(m: ShortSkewMulticategory, cert: Certificate,
                 beta: ShortBraiding) -> dict[str, str]:
    """The induced swap on loose binary maps: abstract the unit, swap with
    b32, and substitute the unit back."""
    from .classify import inverses
    inv = inverses(cert)
    out = {}
    for r in m.multimaps(LOOSE, 2):
        swapped = beta.b32.get(inv.star[r])
        img = m.safe_subst(swapped, 1, cert.nullary.via)
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
    (x,b,a); the inverse solves the mirrored equation. m must pass
    validation and cert be certify(m), whose scopes were all recorded."""
    from .classify import read_solution
    from .skewmon import Braiding
    name = name or (beta.name + ".s")
    b32_inv = {img: f for f, img in beta.b32.items()}

    def read(label: str, x: str, a: str, b: str, image: Optional[str]) -> str:
        # w o theta3(x,a,b) = image: w o theta(xa,b) off theta(x,a), then w
        t = cert.obj(cert.obj(x, b), a)
        return read_solution(label, cert.classifier(cert.obj(x, a), b), ("base", t),
                             read_solution(label, cert.classifier(x, a), ("ext", 2, (b,), t), image))

    s, s_inv = {}, {}
    for x, a, b in itertools.product(cert.view.base.objects, repeat=3):
        s[(x, a, b)] = read(f"braiding component ({x},{a},{b})", x, a, b,
                            beta.b32.get(theta3(m, cert, x, b, a)))
        s_inv[(x, a, b)] = read(f"braiding inverse ({x},{a},{b})", x, b, a,
                                b32_inv.get(theta3(m, cert, x, a, b)))
    return Braiding(name, s, s_inv)


def short_braiding_from_s(m: ShortSkewMulticategory, cert: Certificate,
                          s: Braiding, name: Optional[str] = None) -> ShortBraiding:
    """Rebuild the three swap families from a braiding on the constructed
    category, through double abstraction against the classifiers."""
    from .classify import inverses
    v = cert.view
    base = v.base
    inv = inverses(cert)
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
    from .skewmon import validate_braided_functor
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
