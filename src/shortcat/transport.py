"""The constructive equivalences, executed as table-level algorithms.

Every "unique morphism such that" is the map whose substitution into a
universal multimap (theta, u or an evaluation e) gives a stated multimap,
read off the witness table certify recorded for that bijection by
read_solution(label, owner, key, image), which raises NoSolution naming the
defining diagram when image is not reached; a composite universal multimap
takes two reads, by sequential associativity. All derived structures are
fully tabulated immediately so they run through the ordinary validators.

Desk-scale equivalence checking is isomorphism-of-table-structures after
canonical renaming: the catalogue is skeletal, so a general equivalence
search is not needed.
"""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Union

from .classify import (
    Certificate, Inverses, Universal, certify, find_closed_structure, find_right_closed,
    inverses, preimage, read_back, read_solution,
)
from .errors import (
    AxiomTransferFailure, InconsistentVerdicts, MalformedTable, NoIsomorphismFound,
    NoSolution, SearchBoundExceeded,
)
from .fincat import ISO_SEARCH_MAX_OBJECTS, _extend_mor_bijection
from .report import ValidationReport
from .shortmulti import MultiMorphism, ShortMulticategory
from .shortskew import (
    LOOSE, TIGHT, ShortSkewMulticategory, SkewMultiMorphism, embed_multi_morphism,
    validate_skew_multi_morphism,
)
from .skewmon import (
    LaxMonFunctor, SkewClosedCategory, SkewClosedFunctor, SkewMonCategory,
    classify_flavour, validate_skew_closed, validate_skew_monoidal,
)

Structure = Union[ShortMulticategory, ShortSkewMulticategory]


def _solve_f0(F: SkewMultiMorphism, cert_src: Certificate, cert_tgt: Certificate) -> str:
    """The unit comparison of a transported morphism: the unique map matching
    the image of the source's nullary classifier."""
    return read_solution("f0", cert_tgt.nullary, ("base", F.functor.obj_map[cert_src.nullary.obj]),
                         F.safe_apply(cert_src.nullary.via, LOOSE))


# --------------------------------------------------------------------------
# the tensor-side construction
# --------------------------------------------------------------------------

def ks_object(m: Structure, cert: Certificate,
              name: Optional[str] = None) -> SkewMonCategory:
    """The skew monoidal category carried by a left representable structure:
    tensor = classifier object, unit = nullary classifier object, with the
    structure morphisms read off the classifiers' witnesses. m must pass
    validation and cert be certify(m), whose scopes were all recorded."""
    if not cert.left_representable:
        raise MalformedTable(f"{cert.name}: construction needs left representability")
    v = cert.view
    base = v.base
    name = name or (cert.name + ".ks")
    unit = cert.nullary.obj
    u = cert.nullary.via

    tensor_obj = {(a, b): cert.obj(a, b)
                  for a, b in itertools.product(base.objects, repeat=2)}

    tensor_mor = {}
    for f, g in itertools.product(base.morphisms(), repeat=2):
        (a, b), (x, y) = base.span(f), base.span(g)
        rhs = v.safe_pre(v.safe_pre(cert.theta(b, y), 1, f), 2, g)
        tensor_mor[(f, g)] = read_solution(f"tensor of maps ({f},{g})", cert.classifier(a, x),
                                           ("base", cert.obj(b, y)), rhs)

    # h o theta(ab,c) off theta(a,b)'s extension by c, then h off theta(ab,c)
    alpha = {}
    for a, b, c in itertools.product(base.objects, repeat=3):
        t, label = cert.obj(a, cert.obj(b, c)), f"associator ({a},{b},{c})"
        rhs3 = v.safe_subst(cert.theta(a, cert.obj(b, c)), 2, cert.theta(b, c))
        alpha[(a, b, c)] = read_solution(
            label, cert.classifier(cert.obj(a, b), c), ("base", t),
            read_solution(label, cert.classifier(a, b), ("ext", 2, (c,), t), rhs3))

    lam = {}
    for a in base.objects:
        label = f"left unit map ({a})"
        lam[a] = read_solution(
            label, cert.classifier(unit, a), ("base", a),
            read_solution(label, cert.nullary, ("ext", 1, (a,), a), v.j.get(base.identity(a))))

    rho = {}
    for a in base.objects:
        r = v.safe_subst(cert.theta(a, unit), 2, u)
        if r is None or v.arity(r) != 1 or not v.is_tight(r):
            raise NoSolution(f"right unit map ({a}) is not a tight unary map")
        rho[a] = r

    return SkewMonCategory(name, base, tensor_obj, tensor_mor, unit, alpha, lam, rho)


def k_object(m: ShortMulticategory, cert: Certificate,
             name: Optional[str] = None) -> SkewMonCategory:
    """Plain case: same construction, plus the guarantee that the left unit
    map is invertible."""
    out = ks_object(m, cert, name=name or (cert.name + ".k"))
    fl = classify_flavour(out)
    if not fl.left_normal:
        raise NoSolution(f"{cert.name}: constructed left unit map is not invertible")
    return out


# --------------------------------------------------------------------------
# morphism transport
# --------------------------------------------------------------------------

def ks_morphism(F: SkewMultiMorphism, cert_src: Certificate, cert_tgt: Certificate,
                src_mon: SkewMonCategory, tgt_mon: SkewMonCategory) -> LaxMonFunctor:
    """Forward transport: f2 and f0 are the unique maps matching the images
    of the universal multimaps, read off the target's witnesses. F must pass
    validate_skew_multi_morphism and each certificate be certify of its end."""
    fun = F.functor
    f2 = {}
    for a, b in itertools.product(cert_src.view.base.objects, repeat=2):
        img = F.safe_apply(cert_src.theta(a, b), TIGHT)
        f2[(a, b)] = read_solution(
            f"f2 ({a},{b})", cert_tgt.classifier(fun.obj_map[a], fun.obj_map[b]),
            ("base", fun.obj_map[cert_src.obj(a, b)]), img)
    return LaxMonFunctor(F.name + ".lax", src_mon, tgt_mon, fun,
                         _solve_f0(F, cert_src, cert_tgt), f2)


def k_morphism(F: MultiMorphism, cert_src: Certificate, cert_tgt: Certificate,
               src_mon: SkewMonCategory, tgt_mon: SkewMonCategory) -> LaxMonFunctor:
    return ks_morphism(embed_multi_morphism(F, cert_src.view, cert_tgt.view),
                       cert_src, cert_tgt, src_mon, tgt_mon)


def _rebuilt_morphism(t: Union[LaxMonFunctor, SkewClosedFunctor], cert_src: Certificate,
                      cert_tgt: Certificate, inv: Inverses, label: str,
                      families: Callable[[dict], tuple[dict, dict]]) -> SkewMultiMorphism:
    """The structure morphism of transported data t. The image of a loose
    nullary w is (F(w*) o f0) o u; families(those images) gives the tight
    families (arities 2-4) and the loose unary and binary ones. NoSolution
    names the first undefined image: loose 0, tight 2-4, loose 1-2; then
    AxiomTransferFailure names the first instance at which the rebuilt
    morphism fails validate_skew_multi_morphism."""
    vt, F1 = cert_tgt.view, t.functor.mor_map.get
    loose0 = {w: vt.safe_post(vt.base.compose_opt(F1(inv.star[w]), t.f0), cert_tgt.nullary.via)
              for w in cert_src.view.multimaps(LOOSE, 0)}
    tight, loose = families(loose0)
    for table in (loose0, tight[2], tight[3], tight[4], loose[1], loose[2]):
        for key, val in table.items():
            if val is None:
                raise NoSolution(f"{label} undefined at {key}")
    F = SkewMultiMorphism(t.name + ".multi", cert_src.view, vt, t.functor,
                          tight, {0: loose0, **loose})
    report = validate_skew_multi_morphism(F)
    if not report.ok:
        raise AxiomTransferFailure("full commutation", report.failures[0].render())
    return F


def ks_morphism_inverse(t: LaxMonFunctor, cert_src: Certificate,
                        cert_tgt: Certificate) -> SkewMultiMorphism:
    """From lax monoidal data, rebuild the structure morphism: a tight
    binary g is (F(g') o f2) o theta, a tight h of arity 3 or 4 is the
    image of h' with the image of theta in its first slot, and a loose q of
    arity 1 or 2 the image of q* with the image of u in its first slot."""
    vs, vt, fun = cert_src.view, cert_tgt.view, t.functor
    inv = inverses(cert_src)

    def families(loose0: dict) -> tuple[dict, dict]:
        tight = {2: {g: vt.safe_post(vt.base.compose_opt(fun.mor_map.get(inv.prime[g]),
                                                         t.f2[vs.dom(g)]),
                                     cert_tgt.theta(*(fun.obj_map[a] for a in vs.dom(g))))
                     for g in vs.multimaps(TIGHT, 2)}}
        for n in (3, 4):
            tight[n] = {h: vt.safe_subst(tight[n - 1].get(inv.prime[h]), 1,
                                         tight[2][cert_src.theta(*vs.dom(h)[:2])])
                        for h in vs.multimaps(TIGHT, n)}
        u = loose0[cert_src.nullary.via]
        return tight, {n: {q: vt.safe_subst(tight[n + 1].get(inv.star[q]), 1, u)
                           for q in vs.multimaps(LOOSE, n)} for n in (1, 2)}

    return _rebuilt_morphism(t, cert_src, cert_tgt, inv, "reconstruction", families)


def k_morphism_inverse(t: LaxMonFunctor, cert_src: Certificate,
                       cert_tgt: Certificate) -> MultiMorphism:
    """Plain reconstruction: the loose families of the embedded view are the
    plain nullary/unary/binary ones."""
    if not (cert_src.plain and cert_tgt.plain):
        raise MalformedTable("plain reconstruction needs plain certificates")
    skew = ks_morphism_inverse(t, cert_src, cert_tgt)
    maps = {0: dict(skew.loose_maps[0]), 2: dict(skew.tight_maps[2]),
            3: dict(skew.tight_maps[3]), 4: dict(skew.tight_maps[4])}
    return MultiMorphism(t.name + ".multi", cert_src.structure, cert_tgt.structure,
                         t.functor, maps)


def multi_morphism_equal(F: MultiMorphism, G: MultiMorphism) -> bool:
    return (F.functor.obj_map == G.functor.obj_map
            and F.functor.mor_map == G.functor.mor_map
            and all(F.maps.get(n, {}) == G.maps.get(n, {}) for n in (0, 2, 3, 4)))


def lax_functor_equal(s: LaxMonFunctor, t: LaxMonFunctor) -> bool:
    return (s.functor.obj_map == t.functor.obj_map
            and s.functor.mor_map == t.functor.mor_map
            and s.f0 == t.f0 and s.f2 == t.f2)


# --------------------------------------------------------------------------
# representability <=> monoidal
# --------------------------------------------------------------------------

def check_representable_iff_monoidal(m: ShortMulticategory, cert: Certificate
                                     ) -> ValidationReport:
    """Both directions, on the nose: when the structure is representable the
    associator/right-unit inverses are constructed from the classifiers and
    verified two-sided; when the constructed category is monoidal the
    positional bijections are rebuilt from those inverses and compared with
    direct enumeration."""
    from .classify import check_representable
    name = cert.name + ".rep-iff-monoidal"
    report = ValidationReport(name)
    rep, _ = check_representable(m, cert)
    K = k_object(m, cert)
    fl = classify_flavour(K)
    report.count("verdict")
    if rep != fl.monoidal:
        raise InconsistentVerdicts(
            f"{cert.name}: representable={rep} but constructed category monoidal={fl.monoidal}")

    base = m.base
    if rep:
        i, u = cert.nullary.obj, cert.nullary.via
        for a, b, c in itertools.product(base.objects, repeat=3):
            lhs3 = m.safe_subst(cert.theta(cert.obj(a, b), c), 1, cert.theta(a, b))
            inv = preimage({w: m.safe_subst(m.safe_post(w, cert.theta(a, cert.obj(b, c))),
                                            2, cert.theta(b, c))
                            for w in base.hom(cert.obj(a, cert.obj(b, c)),
                                              cert.obj(cert.obj(a, b), c))}, lhs3)
            fwd = K.alpha[(a, b, c)]
            report.count("alpha-inverse")
            if (base.compose_opt(inv, fwd) != base.identity(base.dom(fwd))
                    or base.compose_opt(fwd, inv) != base.identity(base.cod(fwd))):
                report.fail("alpha-inverse", (a, b, c), inv, "two-sided inverse")
        for a in base.objects:
            inv = preimage({w: m.safe_subst(m.safe_post(w, cert.theta(a, i)), 2, u)
                            for w in base.hom(cert.obj(a, i), a)}, base.identity(a))
            fwd = K.rho[a]
            report.count("rho-inverse")
            if (base.compose_opt(inv, fwd) != base.identity(a)
                    or base.compose_opt(fwd, inv) != base.identity(cert.obj(a, i))):
                report.fail("rho-inverse", (a,), inv, "two-sided inverse")

    if fl.monoidal:
        inv = inverses(cert)
        i, u = cert.nullary.obj, cert.nullary.via
        # theta in the second slot of a binary map, via the associator inverse
        for a, b in itertools.product(base.objects, repeat=2):
            theta = cert.theta(a, b)
            for x, z in itertools.product(base.objects, repeat=2):
                for f in m.mapset(2, (x, cert.obj(a, b)), z):
                    lhs = m.safe_subst(f, 2, theta)
                    fp = inv.prime[f]
                    rhs = m.safe_subst(
                        m.safe_post(base.compose_opt(fp, K.alpha[(x, a, b)]),
                                    cert.theta(cert.obj(x, a), b)),
                        1, cert.theta(x, a))
                    report.check("theta-slot2-recipe", (f, a, b), lhs, rhs)
                # theta in the last slot of a ternary map, via the binary case
                for y in base.objects:
                    for f in m.mapset(3, (x, y, cert.obj(a, b)), z):
                        lhs = m.safe_subst(f, 3, theta)
                        rhs = m.safe_subst(m.safe_subst(inv.prime[f], 2, theta),
                                           1, cert.theta(x, y))
                        report.check("theta-slot3-recipe", (f, a, b), lhs, rhs)
                    for f in m.mapset(3, (x, cert.obj(a, b), y), z):
                        lhs = m.safe_subst(f, 2, theta)
                        rhs = m.safe_subst(
                            m.safe_subst(m.safe_pre(inv.prime[f], 1, K.alpha[(x, a, b)]),
                                         1, cert.theta(cert.obj(x, a), b)),
                            1, cert.theta(x, a))
                        report.check("theta-slot2-middle-recipe", (f, a, b), lhs, rhs)
        # the unit in later slots, via the right unit map
        for a, z in itertools.product(base.objects, repeat=2):
            for f in m.mapset(2, (a, i), z):
                lhs = m.safe_subst(f, 2, u)
                rhs = base.compose_opt(inv.prime[f], K.rho[a])
                report.check("unit-slot2-recipe", (f,), lhs, rhs)
            for b in base.objects:
                for f in m.mapset(3, (a, i, b), z):
                    lhs = m.safe_subst(f, 2, u)
                    rhs = m.safe_pre(inv.prime[f], 1, K.rho[a])
                    report.check("unit-slot2-recipe", (f,), lhs, rhs)
                for f in m.mapset(3, (a, b, i), z):
                    lhs = m.safe_subst(f, 3, u)
                    rhs = m.safe_post(m.safe_subst(inv.prime[f], 2, u),
                                      cert.theta(a, b))
                    report.check("unit-slot3-recipe", (f,), lhs, rhs)
    return report.finish()


# --------------------------------------------------------------------------
# closedness transfer
# --------------------------------------------------------------------------

def transport_closed(m: Structure, cert: Certificate) -> ValidationReport:
    """K(m) is closed exactly when m is, and each derived evaluation
    certifies the hom object the multimap-side search found, up to iso."""
    from .classify import _certify_hom
    name = cert.name + (".closed-transfer" if cert.plain else ".closed-transfer-skew")
    report = ValidationReport(name)
    v = cert.view
    base = v.base
    searched = find_closed_structure(m, cert)
    K = ks_object(m, cert)
    fl = classify_flavour(K)
    report.count("verdict")
    if (searched is not None) != fl.closed:
        raise InconsistentVerdicts(
            f"{cert.name}: multimap-side closed={searched is not None} "
            f"but tensor-side closed={fl.closed}")
    if searched is None:
        report.count("agreed-not-closed")
        return report.finish()

    for (b, c), (hobj, eps) in sorted(fl.hom_objects.items()):
        derived_e = v.safe_post(eps, cert.theta(hobj, b))
        report.count("derived-evaluation")
        if derived_e is None:
            report.fail("derived-evaluation", (b, c), None, "defined")
            continue
        hom = _certify_hom(v, b, c, hobj, derived_e)
        if hom is None:
            report.fail("derived-evaluation", (b, c), derived_e, "certifies closedness")
            continue
        target = searched[(b, c)]
        report.count("derived-vs-searched")
        if (hom.obj, hom.via) != (target.obj, target.via):
            link = preimage(target.witness.get((TIGHT, 1, (hom.obj,)), {}), hom.via)
            if link is None or base.is_iso(link) is None:
                report.fail("derived-vs-searched", (b, c),
                            f"{hom.obj}/{hom.via}", f"{target.obj}/{target.via}")
    return report.finish()


# one check for both structures; a skew caller may import it under this name
transport_closed_skew = transport_closed


# --------------------------------------------------------------------------
# the hom-side construction
# --------------------------------------------------------------------------

def kcl_object(m: ShortSkewMulticategory, cert: Certificate,
               homs: dict[tuple[str, str], Universal],
               name: Optional[str] = None) -> SkewClosedCategory:
    """The skew closed category carried by a closed structure with units: m
    must pass validation, cert be certify(m) and homs its left hom objects,
    whose scopes were all recorded."""
    v = cert.view
    base = v.base
    nu = cert.nullary
    if nu is None:
        raise MalformedTable(f"{getattr(m, 'name')}: hom-side construction needs a unit")
    name = name or (getattr(m, "name") + ".kcl")
    unit, u = nu.obj, nu.via

    hom_obj = {(b, c): homs[(b, c)].obj
               for b, c in itertools.product(base.objects, repeat=2)}

    hom_mor = {}
    for f, g in itertools.product(base.morphisms(), repeat=2):
        (b, b2), (c, c2) = base.span(f), base.span(g)
        # [f,g] = [f,1];[1,g]: the w with e o_1 w = (g o e) o_2 f
        rhs = v.safe_pre(v.safe_post(g, homs[(b2, c)].via), 2, f)
        hom_mor[(f, g)] = read_solution(f"hom action ({f},{g})", homs[(b, c2)],
                                        (TIGHT, 1, (hom_obj[(b2, c)],)), rhs)

    iu = {}
    for a in base.objects:
        r = v.safe_subst(homs[(unit, a)].via, 2, u)
        if r is None or v.arity(r) != 1 or not v.is_tight(r):
            raise NoSolution(f"unit evaluation ({a}) is not a tight unary map")
        iu[a] = r

    # w o_1 u off [a,a]'s loose nullary scope, then w off the unit
    ju = {}
    for a in base.objects:
        label = f"hom unit ({a})"
        ju[a] = read_solution(
            label, nu, ("base", hom_obj[(a, a)]),
            read_solution(label, homs[(a, a)], (LOOSE, 0, ()), v.j.get(base.identity(a))))

    # e o_1 w off [a,c]'s binary scope, then w off [[a,b],[a,c]]'s unary one
    ell = {}
    for a, b, c in itertools.product(base.objects, repeat=3):
        ab, ac, label = hom_obj[(a, b)], hom_obj[(a, c)], f"hom associator ({a},{b},{c})"
        rhs = v.safe_subst(homs[(b, c)].via, 2, homs[(a, b)].via)
        ell[(a, b, c)] = read_solution(
            label, homs[(ab, ac)], (TIGHT, 1, (hom_obj[(b, c)],)),
            read_solution(label, homs[(a, c)], (TIGHT, 2, (hom_obj[(b, c)], ab)), rhs))

    return SkewClosedCategory(name, base, hom_obj, hom_mor, unit, iu, ju, ell)


def kcl_morphism(F: SkewMultiMorphism, homs_src: dict, homs_tgt: dict,
                 cert_src: Certificate, cert_tgt: Certificate,
                 src_cl: SkewClosedCategory, tgt_cl: SkewClosedCategory) -> SkewClosedFunctor:
    """Forward hom-side transport: the hom comparison is the unique map matching
    the image of the evaluation map. F must pass validate_skew_multi_morphism
    and the homs and certificates be find_closed_structure's and certify's of its ends."""
    fun = F.functor
    fh = {}
    for a, b in itertools.product(cert_src.view.base.objects, repeat=2):
        img = F.safe_apply(homs_src[(a, b)].via, TIGHT)
        fh[(a, b)] = read_solution(f"hom comparison ({a},{b})",
                                   homs_tgt[(fun.obj_map[a], fun.obj_map[b])],
                                   (TIGHT, 1, (fun.obj_map[homs_src[(a, b)].obj],)), img)
    return SkewClosedFunctor(F.name + ".closed", src_cl, tgt_cl, fun,
                             _solve_f0(F, cert_src, cert_tgt), fh)


def kcl_morphism_inverse(t: SkewClosedFunctor, cert_src: Certificate,
                         cert_tgt: Certificate, homs_src: dict, homs_tgt: dict
                         ) -> SkewMultiMorphism:
    """Reconstruct the multimap families from closed-functor data by
    currying: every map is the evaluation applied to its abstraction, the
    image of the abstraction one arity below after the hom comparison. A
    loose map that is also tight takes its tight image, through j if
    unary."""
    vs, vt, fun = cert_src.view, cert_tgt.view, t.functor
    inv = inverses(cert_src, homs_src)

    def uncurry(f: str, below: dict) -> Optional[str]:
        b, c = vs.dom(f)[-1], vs.cod(f)
        return vt.safe_subst(homs_tgt[(fun.obj_map[b], fun.obj_map[c])].via, 1,
                             vt.safe_post(t.fh[(b, c)], below.get(inv.sharp[f])))

    def families(loose0: dict) -> tuple[dict, dict]:
        tight, loose, below = {}, {}, fun.mor_map
        for n in (2, 3, 4):
            below = tight[n] = {h: uncurry(h, below) for h in vs.multimaps(TIGHT, n)}
        below = loose0
        for n, shared in ((1, lambda q: vt.j.get(fun.mor_map.get(q))), (2, tight[2].get)):
            below = loose[n] = {q: shared(q) if vs.is_tight(q) else uncurry(q, below)
                                for q in vs.multimaps(LOOSE, n)}
        return tight, loose

    return _rebuilt_morphism(t, cert_src, cert_tgt, inv, "closed reconstruction", families)


# --------------------------------------------------------------------------
# biclosed substitution oracle
# --------------------------------------------------------------------------

def biclosed_subst_check(m: ShortMulticategory) -> ValidationReport:
    """On a biclosed structure, stored binary-into-binary substitution must
    match the currying route: g o_1 f from the left homs, g o_2 f from the
    right homs."""
    name = m.name + ".biclosed"
    report = ValidationReport(name)
    cert = certify(m)
    left = find_closed_structure(m, cert)
    right = find_right_closed(m, cert)
    if left is None or right is None:
        raise MalformedTable(f"{m.name}: biclosed check needs both closednesses")
    left_sharp, right_sharp = inverses(cert, left).sharp, read_back(right.values())

    for g in m.multimaps(2):
        b1, b2 = m.dom(g)
        c = m.cod(g)
        for f in m.multimaps(2):
            if m.cod(f) == b1:
                lhs = m.safe_subst(g, 1, f)
                curried = m.safe_post(left_sharp[g], f)
                rhs = m.safe_subst(left[(b2, c)].via, 1, curried)
                report.check("left-curry", (g, f), lhs, rhs)
            if m.cod(f) == b2:
                lhs = m.safe_subst(g, 2, f)
                curried = m.safe_post(right_sharp[g], f)
                rhs = m.safe_subst(right[(b1, c)].via, 2, curried)
                report.check("right-curry", (g, f), lhs, rhs)
    return report.finish()


# --------------------------------------------------------------------------
# structure comparison and roundtrips
# --------------------------------------------------------------------------

def skew_monoidal_equal(x: SkewMonCategory, y: SkewMonCategory) -> bool:
    return (x.base.objects == y.base.objects and x.base.homs == y.base.homs
            and x.base.comp == y.base.comp and x.unit == y.unit
            and x.tensor_obj == y.tensor_obj and x.tensor_mor == y.tensor_mor
            and x.alpha == y.alpha and x.lam == y.lam and x.rho == y.rho)


def compare_skew_monoidal(x: SkewMonCategory, y: SkewMonCategory) -> Optional[str]:
    """'equal', 'isomorphic', or None."""
    if skew_monoidal_equal(x, y):
        return "equal"
    if max(len(x.base.objects), len(y.base.objects)) > ISO_SEARCH_MAX_OBJECTS:
        raise SearchBoundExceeded("comparison bounded")
    if len(x.base.objects) != len(y.base.objects):
        return None
    # search object/morphism isomorphisms compatible with all structure
    for perm in itertools.permutations(y.base.objects):
        obj = dict(zip(x.base.objects, perm))
        if obj.get(x.unit) != y.unit:
            continue
        if any(obj[x.t(a, b)] != y.t(obj[a], obj[b])
               for a in x.base.objects for b in x.base.objects):
            continue
        mor = _extend_mor_bijection(x.base, y.base, obj)
        if mor is None:
            continue
        ok = all(mor[x.tensor_mor[(f, g)]] == y.tensor_mor[(mor[f], mor[g])]
                 for f in x.base.morphisms() for g in x.base.morphisms())
        ok = ok and all(mor[x.alpha[k]] == y.alpha[tuple(obj[o] for o in k)] for k in x.alpha)
        ok = ok and all(mor[x.lam[a]] == y.lam[obj[a]] for a in x.lam)
        ok = ok and all(mor[x.rho[a]] == y.rho[obj[a]] for a in x.rho)
        if ok:
            return "isomorphic"
    return None


def skew_closed_equal(x: SkewClosedCategory, y: SkewClosedCategory) -> bool:
    return (x.base.objects == y.base.objects and x.base.homs == y.base.homs
            and x.base.comp == y.base.comp and x.unit == y.unit
            and x.hom_obj == y.hom_obj and x.hom_mor == y.hom_mor
            and x.iu == y.iu and x.ju == y.ju and x.ell == y.ell)


def roundtrip_check(x: Union[SkewMonCategory, SkewClosedCategory]) -> ValidationReport:
    """Induce the multimap tables, certify, rebuild with the matching
    construction, and compare with the original. AxiomFailure unless x
    passes validation."""
    if not isinstance(x, SkewClosedCategory):
        validate_skew_monoidal(x).require_pass(x.name, "roundtrip")
        return skew_monoidal_roundtrip(x)[0]
    from .induce import induce_closed_skew
    from .shortskew import validate_short_skew

    report = ValidationReport(x.name + ".roundtrip")
    validate_skew_closed(x).require_pass(x.name, "roundtrip")
    sk = induce_closed_skew(x)
    if not validate_short_skew(sk).ok:
        raise MalformedTable(f"{x.name}: induced structure fails validation")
    cert = certify(sk)
    homs = find_closed_structure(sk, cert)
    if homs is None:
        raise NoIsomorphismFound(f"{x.name}: induced structure lost closedness")
    rebuilt = kcl_object(sk, cert, homs)
    report.count("kcl-roundtrip")
    if not skew_closed_equal(x, rebuilt):
        report.fail("kcl-roundtrip", (x.name,), rebuilt.name, "table equality")
    return report.finish()


def skew_monoidal_roundtrip(x: SkewMonCategory
                            ) -> tuple[ValidationReport, ShortSkewMulticategory, Certificate]:
    """The skew monoidal roundtrip of x, which must pass validation: its
    report, plus the induced short skew multicategory and its certificate,
    for callers that go on to transport a braiding over the same induction.
    roundtrip_check validates x first; the CLI validates both halves of a
    braiding file first."""
    from .induce import induce_short_skew
    from .shortmulti import validate_short_multicategory
    from .shortskew import plain_of, validate_short_skew

    report = ValidationReport(x.name + ".roundtrip")
    sk = induce_short_skew(x)
    if not validate_short_skew(sk).ok:
        raise MalformedTable(f"{x.name}: induced skew structure fails validation")
    cert = certify(sk)
    rebuilt = ks_object(sk, cert)
    verdict = compare_skew_monoidal(x, rebuilt)
    report.count("ks-roundtrip")
    if verdict is None:
        raise NoIsomorphismFound(f"{x.name}: rebuilt category does not match")
    if verdict != "equal":
        report.count("ks-roundtrip-renamed")

    if classify_flavour(x).left_normal:
        plain = plain_of(sk)
        if not validate_short_multicategory(plain).ok:
            raise MalformedTable(f"{x.name}: induced plain structure fails validation")
        pcert = certify(plain)
        rebuilt_plain = k_object(plain, pcert)
        verdict = compare_skew_monoidal(x, rebuilt_plain)
        report.count("k-roundtrip")
        if verdict is None:
            raise NoIsomorphismFound(f"{x.name}: plain rebuilt category does not match")
    return report.finish(), sk, cert
