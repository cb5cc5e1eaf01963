"""Enumeration-based search and certification of universal structures:
map classifiers, left universality, representability, closedness.

Everything here works on the tight/loose view: a plain short multicategory
is certified through its embedding (all maps both tight and loose, j the
identity), under which the tight/loose bijection scopes reduce to the plain
ones. Bijections are always verified element by element between finite
ordered sets; the recorded witness tables double as inverse tables.

Search order is canonical: candidate objects in sorted order, then
candidate multimaps; the first certified hit is the classifier used
downstream, which is immaterial up to unique isomorphism.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .errors import InconsistentVerdicts, MalformedTable, UniversalityBroken
from .report import ValidationReport
from .shortmulti import ShortMulticategory
from .shortskew import LOOSE, TIGHT, ShortSkewMulticategory

Structure = Union[ShortMulticategory, ShortSkewMulticategory]


def skew_view(m: Structure) -> ShortSkewMulticategory:
    """m itself, or for a plain structure its one cached embedding."""
    if isinstance(m, ShortMulticategory):
        return m.as_skew
    return m


def bijection_table(domain: list[str], apply_fn: Callable[[str], Optional[str]],
                    target: list[str]) -> Optional[dict[str, str]]:
    """The graph of apply_fn if it is a bijection domain -> target, else None."""
    table: dict[str, str] = {}
    seen: set[str] = set()
    target_set = set(target)
    for v in domain:
        img = apply_fn(v)
        if img is None or img not in target_set or img in seen:
            return None
        table[v] = img
        seen.add(img)
    if len(seen) != len(target):
        return None
    return table


@dataclass
class BinaryClassifier:
    pair: tuple[str, str]
    obj: str
    theta: str
    witness: dict[tuple, dict[str, str]] = field(default_factory=dict)
    left_universal: Optional[bool] = None


@dataclass
class NullaryClassifier:
    obj: str
    u: str
    witness: dict[tuple, dict[str, str]] = field(default_factory=dict)
    left_universal: Optional[bool] = None


@dataclass
class HomObject:
    pair: tuple[str, str]
    obj: str
    e: str
    witness: dict[tuple, dict[str, str]] = field(default_factory=dict)


@dataclass
class DerivedClassifier:
    kind: str                  # ternary | quaternary | unit-unary
    key: tuple[str, ...]
    obj: str
    theta: str
    instances: int


@dataclass
class Certificate:
    name: str
    structure: Structure
    view: ShortSkewMulticategory
    plain: bool
    binary: dict[tuple[str, str], Optional[BinaryClassifier]]
    binary_candidates: dict[tuple[str, str], list[tuple[str, str]]]
    nullary: Optional[NullaryClassifier]
    nullary_candidates: list[tuple[str, str]]
    homs: Optional[dict[tuple[str, str], Optional[HomObject]]] = None
    right_homs: Optional[dict[tuple[str, str], Optional[HomObject]]] = None
    derived: list[DerivedClassifier] = field(default_factory=list)
    representable: Optional[bool] = None

    @property
    def weakly_representable(self) -> bool:
        return (self.nullary is not None
                and all(c is not None for c in self.binary.values()))

    @property
    def left_representable(self) -> bool:
        return (self.weakly_representable
                and self.nullary.left_universal is True
                and all(c.left_universal is True for c in self.binary.values()))

    @property
    def closed(self) -> bool:
        return (self.homs is not None
                and all(h is not None for h in self.homs.values()))

    def classifier(self, a: str, b: str) -> BinaryClassifier:
        c = self.binary.get((a, b))
        if c is None:
            raise MalformedTable(f"{self.name}: no binary classifier for ({a},{b})")
        return c

    def theta(self, a: str, b: str) -> str:
        return self.classifier(a, b).theta

    def obj(self, a: str, b: str) -> str:
        return self.classifier(a, b).obj

    def hom(self, b: str, c: str) -> HomObject:
        h = (self.homs or {}).get((b, c))
        if h is None:
            raise MalformedTable(f"{self.name}: no hom object for ({b},{c})")
        return h


# --------------------------------------------------------------------------
# classifier searches
# --------------------------------------------------------------------------

def _certify_binary(v: ShortSkewMulticategory, a: str, b: str,
                    cand: str, theta: str) -> Optional[BinaryClassifier]:
    witness: dict[tuple, dict[str, str]] = {}
    for d in v.base.objects:
        table = bijection_table(
            list(v.base.hom(cand, d)),
            lambda w: v.safe_subst(w, 1, theta),
            list(v.mapset(TIGHT, 2, (a, b), d)))
        if table is None:
            return None
        witness[("base", d)] = table
    return BinaryClassifier((a, b), cand, theta, witness)


def find_binary_classifier(m: Structure, a: str, b: str) -> Optional[BinaryClassifier]:
    v = skew_view(m)
    for cand in v.base.objects:
        for theta in v.mapset(TIGHT, 2, (a, b), cand):
            cl = _certify_binary(v, a, b, cand, theta)
            if cl is not None:
                return cl
    return None


def all_binary_classifiers(m: Structure, a: str, b: str) -> list[tuple[str, str]]:
    v = skew_view(m)
    found = []
    for cand in v.base.objects:
        for theta in v.mapset(TIGHT, 2, (a, b), cand):
            if _certify_binary(v, a, b, cand, theta) is not None:
                found.append((cand, theta))
    return found


def _certify_nullary(v: ShortSkewMulticategory, cand: str, u: str) -> Optional[NullaryClassifier]:
    witness: dict[tuple, dict[str, str]] = {}
    for d in v.base.objects:
        table = bijection_table(
            list(v.base.hom(cand, d)),
            lambda w: v.safe_subst(w, 1, u),
            list(v.mapset(LOOSE, 0, (), d)))
        if table is None:
            return None
        witness[("base", d)] = table
    return NullaryClassifier(cand, u, witness)


def find_nullary_classifier(m: Structure) -> Optional[NullaryClassifier]:
    v = skew_view(m)
    for cand in v.base.objects:
        for u in v.mapset(LOOSE, 0, (), cand):
            cl = _certify_nullary(v, cand, u)
            if cl is not None:
                return cl
    return None


def all_nullary_classifiers(m: Structure) -> list[tuple[str, str]]:
    v = skew_view(m)
    return [(cand, u) for cand in v.base.objects
            for u in v.mapset(LOOSE, 0, (), cand)
            if _certify_nullary(v, cand, u) is not None]


def check_left_universal(m: Structure,
                         cl: Union[BinaryClassifier, NullaryClassifier]
                         ) -> tuple[bool, list[str]]:
    """Extend the witness tables of a certified classifier to the longer
    position-1 bijections; returns the verdict and failing scopes."""
    v = skew_view(m)
    failures: list[str] = []
    if isinstance(cl, BinaryClassifier):
        a, b = cl.pair
        for n in (2, 3):
            for xs in itertools.product(v.base.objects, repeat=n - 1):
                for d in v.base.objects:
                    table = bijection_table(
                        list(v.mapset(TIGHT, n, (cl.obj,) + xs, d)),
                        lambda g: v.safe_subst(g, 1, cl.theta),
                        list(v.mapset(TIGHT, n + 1, (a, b) + xs, d)))
                    if table is None:
                        failures.append(f"t{n}:{','.join(xs)};{d}")
                    else:
                        cl.witness[("ext", n, xs, d)] = table
    else:
        for n in (1, 2):
            for xs in itertools.product(v.base.objects, repeat=n):
                for d in v.base.objects:
                    table = bijection_table(
                        list(v.mapset(TIGHT, n + 1, (cl.obj,) + xs, d)),
                        lambda g: v.safe_subst(g, 1, cl.u),
                        list(v.mapset(LOOSE, n, xs, d)))
                    if table is None:
                        failures.append(f"l{n}:{','.join(xs)};{d}")
                    else:
                        cl.witness[("ext", n, xs, d)] = table
    cl.left_universal = not failures
    return (not failures, failures)


def certify(m: Structure) -> Certificate:
    """Run all classifier searches and left-universality extensions."""
    v = skew_view(m)
    plain = isinstance(m, ShortMulticategory)
    binary: dict[tuple[str, str], Optional[BinaryClassifier]] = {}
    candidates: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for a, b in itertools.product(v.base.objects, repeat=2):
        binary[(a, b)] = find_binary_classifier(m, a, b)
        candidates[(a, b)] = all_binary_classifiers(m, a, b)
    nullary = find_nullary_classifier(m)
    cert = Certificate(
        name=getattr(m, "name"), structure=m, view=v, plain=plain,
        binary=binary, binary_candidates=candidates,
        nullary=nullary, nullary_candidates=all_nullary_classifiers(m))
    if cert.weakly_representable:
        for cl in binary.values():
            check_left_universal(m, cl)
        check_left_universal(m, nullary)
    return cert


def classifier_uniqueness_isos(m: Structure, cert: Certificate) -> dict[tuple, str]:
    """For every pair of certified classifier candidates over the same input,
    the unique invertible unary map connecting them; raises if one is
    missing or not invertible."""
    v = cert.view
    out: dict[tuple, str] = {}
    for (a, b), cands in cert.binary_candidates.items():
        for (o1, t1), (o2, t2) in itertools.combinations(cands, 2):
            links = [w for w in v.base.hom(o1, o2) if v.safe_subst(w, 1, t1) == t2]
            if len(links) != 1 or v.base.is_iso(links[0]) is None:
                raise UniversalityBroken(
                    f"{cert.name}: classifier candidates for ({a},{b}) not uniquely isomorphic")
            out[(a, b, o1, o2)] = links[0]
    for (o1, u1), (o2, u2) in itertools.combinations(cert.nullary_candidates, 2):
        links = [w for w in v.base.hom(o1, o2) if v.safe_subst(w, 1, u1) == u2]
        if len(links) != 1 or v.base.is_iso(links[0]) is None:
            raise UniversalityBroken(f"{cert.name}: nullary candidates not uniquely isomorphic")
        out[("nullary", o1, o2)] = links[0]
    return out


# --------------------------------------------------------------------------
# derived classifiers
# --------------------------------------------------------------------------

def derived_classifiers(m: Structure, cert: Certificate) -> list[DerivedClassifier]:
    """Materialize the composite ternary/quaternary classifiers and the
    unit-unary one, re-certifying each composite bijection directly and
    against the composite of the stepwise witnesses."""
    if not cert.left_representable:
        raise MalformedTable(f"{cert.name}: derived classifiers need left representability")
    v = cert.view
    out: list[DerivedClassifier] = []

    def note(kind, key, obj, theta, n):
        out.append(DerivedClassifier(kind, key, obj, theta, n))

    for a, b, c in itertools.product(v.base.objects, repeat=3):
        ab = cert.obj(a, b)
        theta3 = v.safe_subst(cert.theta(ab, c), 1, cert.theta(a, b))
        obj3 = cert.obj(ab, c)
        if theta3 is None:
            raise UniversalityBroken(f"{cert.name}: ternary composite undefined at ({a},{b},{c})")
        count = 0
        for d in v.base.objects:
            table = bijection_table(
                list(v.base.hom(obj3, d)),
                lambda w: v.safe_subst(w, 1, theta3),
                list(v.mapset(TIGHT, 3, (a, b, c), d)))
            if table is None:
                raise UniversalityBroken(
                    f"{cert.name}: composite ternary classifier fails at ({a},{b},{c});{d}")
            for w, img in table.items():
                stepwise = v.safe_subst(v.safe_subst(w, 1, cert.theta(ab, c)), 1, cert.theta(a, b))
                if stepwise != img:
                    raise UniversalityBroken(
                        f"{cert.name}: ternary composite disagrees with stepwise at {w}")
                count += 1
        note("ternary", (a, b, c), obj3, theta3, count)

    for a, b, c, d in itertools.product(v.base.objects, repeat=4):
        ab = cert.obj(a, b)
        abc = cert.obj(ab, c)
        inner = v.safe_subst(cert.theta(abc, d), 1, cert.theta(ab, c))
        theta4 = v.safe_subst(inner, 1, cert.theta(a, b))
        obj4 = cert.obj(abc, d)
        if theta4 is None:
            raise UniversalityBroken(f"{cert.name}: quaternary composite undefined")
        count = 0
        for e in v.base.objects:
            table = bijection_table(
                list(v.base.hom(obj4, e)),
                lambda w: v.safe_subst(w, 1, theta4),
                list(v.mapset(TIGHT, 4, (a, b, c, d), e)))
            if table is None:
                raise UniversalityBroken(
                    f"{cert.name}: composite quaternary classifier fails at ({a},{b},{c},{d});{e}")
            count += len(table)
        note("quaternary", (a, b, c, d), obj4, theta4, count)

    i = cert.nullary.obj
    for a in v.base.objects:
        theta_ia = v.safe_subst(cert.theta(i, a), 1, cert.nullary.u)
        obj_ia = cert.obj(i, a)
        if theta_ia is None:
            raise UniversalityBroken(f"{cert.name}: unit-unary composite undefined at {a}")
        count = 0
        for d in v.base.objects:
            table = bijection_table(
                list(v.base.hom(obj_ia, d)),
                lambda w: v.safe_subst(w, 1, theta_ia),
                list(v.mapset(LOOSE, 1, (a,), d)))
            if table is None:
                raise UniversalityBroken(f"{cert.name}: unit-unary classifier fails at {a};{d}")
            for w, img in table.items():
                stepwise = v.safe_subst(v.safe_subst(w, 1, cert.theta(i, a)), 1, cert.nullary.u)
                if stepwise != img:
                    raise UniversalityBroken(
                        f"{cert.name}: unit-unary composite disagrees with stepwise at {w}")
                count += 1
        note("unit-unary", (a,), obj_ia, theta_ia, count)
    cert.derived = out
    return out


# --------------------------------------------------------------------------
# representability (plain structures)
# --------------------------------------------------------------------------

def check_representable(m: ShortMulticategory, cert: Certificate) -> tuple[bool, list[str]]:
    """Positional bijections at every slot, arities 1 to 3."""
    if not isinstance(m, ShortMulticategory):
        raise MalformedTable("representability is defined for plain short multicategories")
    if not cert.weakly_representable:
        cert.representable = False
        return False, ["missing classifiers"]
    failures: list[str] = []
    objs = m.base.objects
    i = cert.nullary.obj
    u = cert.nullary.u
    for n in (1, 2, 3):
        for lx in range(0, n):
            ly = n - 1 - lx
            j = lx + 1
            for xs in itertools.product(objs, repeat=lx):
                for ys in itertools.product(objs, repeat=ly):
                    for z in objs:
                        if bijection_table(
                                list(m.mapset(n, xs + (i,) + ys, z)),
                                lambda g: m.safe_subst(g, j, u),
                                list(m.mapset(n - 1, xs + ys, z))) is None:
                            failures.append(f"u@{n}.{j}:{xs}{ys};{z}")
    for a, b in itertools.product(objs, repeat=2):
        ab = cert.obj(a, b)
        theta = cert.theta(a, b)
        for n in (1, 2, 3):
            for lx in range(0, n):
                ly = n - 1 - lx
                j = lx + 1
                for xs in itertools.product(objs, repeat=lx):
                    for ys in itertools.product(objs, repeat=ly):
                        for z in objs:
                            if bijection_table(
                                    list(m.mapset(n, xs + (ab,) + ys, z)),
                                    lambda g: m.safe_subst(g, j, theta),
                                    list(m.mapset(n + 1, xs + (a, b) + ys, z))) is None:
                                failures.append(f"theta({a},{b})@{n}.{j}:{xs}{ys};{z}")
    cert.representable = not failures
    return (not failures, failures)


# --------------------------------------------------------------------------
# closedness
# --------------------------------------------------------------------------

def _certify_hom(v: ShortSkewMulticategory, b: str, c: str,
                 cand: str, e: str, include_nullary: bool = True) -> Optional[HomObject]:
    witness: dict[tuple, dict[str, str]] = {}
    for n in (1, 2, 3):
        for xs in itertools.product(v.base.objects, repeat=n):
            table = bijection_table(
                list(v.mapset(TIGHT, n, xs, cand)),
                lambda g: v.safe_subst(e, 1, g),
                list(v.mapset(TIGHT, n + 1, xs + (b,), c)))
            if table is None:
                return None
            if table:
                witness[(TIGHT, n, xs)] = table
    loose_arities = (0, 1) if include_nullary else (1,)
    for n in loose_arities:
        for xs in itertools.product(v.base.objects, repeat=n):
            table = bijection_table(
                list(v.mapset(LOOSE, n, xs, cand)),
                lambda g: v.safe_subst(e, 1, g),
                list(v.mapset(LOOSE, n + 1, xs + (b,), c)))
            if table is None:
                return None
            if table:
                witness[(LOOSE, n, xs)] = table
    return HomObject((b, c), cand, e, witness)


def find_hom_object(m: Structure, b: str, c: str,
                    include_nullary: bool = True) -> Optional[HomObject]:
    v = skew_view(m)
    for cand in v.base.objects:
        for e in v.mapset(TIGHT, 2, (cand, b), c):
            h = _certify_hom(v, b, c, cand, e, include_nullary=include_nullary)
            if h is not None:
                return h
    return None


def find_closed_structure(m: Structure,
                          cert: Optional[Certificate] = None
                          ) -> Optional[dict[tuple[str, str], HomObject]]:
    """Exhaustive hom-object search for every pair; None when some pair
    admits none. Records the inventory on the certificate when given."""
    v = skew_view(m)
    homs: dict[tuple[str, str], Optional[HomObject]] = {}
    for b, c in itertools.product(v.base.objects, repeat=2):
        homs[(b, c)] = find_hom_object(m, b, c)
    if cert is not None:
        cert.homs = homs
    if any(h is None for h in homs.values()):
        return None
    return homs


def find_right_hom_object(m: ShortMulticategory, b: str, c: str) -> Optional[HomObject]:
    """Right-closed analogue on plain structures: e(b, r[b,c]) -> c with
    substitution in position 2 inducing the bijections, arities 0 to 3."""
    objs = m.base.objects
    for cand in objs:
        for e in m.mapset(2, (b, cand), c):
            witness: dict[tuple, dict[str, str]] = {}
            ok = True
            for n in (0, 1, 2, 3):
                for xs in itertools.product(objs, repeat=n):
                    table = bijection_table(
                        list(m.mapset(n, xs, cand)),
                        lambda g: m.safe_subst(e, 2, g),
                        list(m.mapset(n + 1, (b,) + xs, c)))
                    if table is None:
                        ok = False
                        break
                    if table:
                        witness[(n, xs)] = table
                if not ok:
                    break
            if ok:
                return HomObject((b, c), cand, e, witness)
    return None


def find_right_closed(m: ShortMulticategory,
                      cert: Optional[Certificate] = None
                      ) -> Optional[dict[tuple[str, str], HomObject]]:
    homs: dict[tuple[str, str], Optional[HomObject]] = {}
    for b, c in itertools.product(m.base.objects, repeat=2):
        homs[(b, c)] = find_right_hom_object(m, b, c)
    if cert is not None:
        cert.right_homs = homs
    if any(h is None for h in homs.values()):
        return None
    return homs


# --------------------------------------------------------------------------
# inverse tables: (-)', (-)*, (-)#
# --------------------------------------------------------------------------

@dataclass
class Inverses:
    prime: dict[str, str]   # f with arity >= 2 -> the map with f' o_1 theta = f
    star: dict[str, str]    # loose f (arities 0-2) -> tight f* with f* o_1 u = f
    sharp: dict[str, str]   # f with last input b, cod c -> f# into [b,c]


def inverses(m: Structure, cert: Certificate,
             homs: Optional[dict[tuple[str, str], HomObject]] = None) -> Inverses:
    """Build explicit inverse tables from the recorded witnesses and verify
    the defining equations on every element."""
    if not cert.left_representable:
        raise MalformedTable(f"{cert.name}: inverse tables need left representability")
    v = cert.view
    prime: dict[str, str] = {}
    for n in (2, 3, 4):
        for f in v.multimaps(TIGHT, n):
            dom = v.dom(f)
            cl = cert.classifier(dom[0], dom[1])
            key = ("base", v.cod(f)) if n == 2 else ("ext", n - 1, dom[2:], v.cod(f))
            table = cl.witness.get(key, {})
            hits = [w for w, img in table.items() if img == f]
            if len(hits) != 1:
                raise UniversalityBroken(f"{cert.name}: prime inverse missing for {f}")
            prime[f] = hits[0]
            if v.safe_subst(hits[0], 1, cl.theta) != f:
                raise UniversalityBroken(f"{cert.name}: prime roundtrip failed at {f}")
    star: dict[str, str] = {}
    nu = cert.nullary
    for n in (0, 1, 2):
        for f in v.multimaps(LOOSE, n):
            dom, cod = v.dom(f), v.cod(f)
            key = ("base", cod) if n == 0 else ("ext", n, dom, cod)
            table = nu.witness.get(key, {})
            hits = [w for w, img in table.items() if img == f]
            if len(hits) != 1:
                raise UniversalityBroken(f"{cert.name}: star inverse missing for {f}")
            star[f] = hits[0]
            if v.safe_subst(hits[0], 1, nu.u) != f:
                raise UniversalityBroken(f"{cert.name}: star roundtrip failed at {f}")
    sharp: dict[str, str] = {}
    if homs is not None:
        for flavour, lo, hi in ((TIGHT, 2, 4), (LOOSE, 1, 2)):
            for n in range(lo, hi + 1):
                for f in v.multimaps(flavour, n):
                    if flavour == LOOSE and v.is_tight(f) and n >= 2:
                        continue  # handled through the tight tables
                    dom, cod = v.dom(f), v.cod(f)
                    h = homs[(dom[-1], cod)]
                    key = (flavour, n - 1, dom[:-1])
                    table = h.witness.get(key, {})
                    hits = [w for w, img in table.items() if img == f]
                    if len(hits) != 1:
                        raise UniversalityBroken(f"{cert.name}: sharp inverse missing for {f}")
                    sharp[f] = hits[0]
    return Inverses(prime, star, sharp)


def hom_action(m: Structure, homs: dict[tuple[str, str], HomObject],
               b: str, q: str) -> str:
    """The map [b, q]: [b,c] -> [b,c'] induced by q: c -> c', the unique
    solution of e o_1 [b,q] = q o e."""
    v = skew_view(m)
    c, c2 = v.base.span(q)
    h, h2 = homs[(b, c)], homs[(b, c2)]
    rhs = v.safe_post(q, h.e)
    hits = [w for w in v.base.hom(h.obj, h2.obj)
            if v.safe_subst(h2.e, 1, w) == rhs]
    if len(hits) != 1:
        raise UniversalityBroken(f"hom action not uniquely determined for [{b},{q}]")
    return hits[0]


# --------------------------------------------------------------------------
# left representability <=> nullary classifier + left adjoints
# --------------------------------------------------------------------------

def sharp_laws(m: Structure) -> ValidationReport:
    """The three substitution laws of the currying operation, checked over
    every instance of a closed left representable structure:

        f# o v        = (f o_1 v)#
        (g o_1 f)#    = g# o_1 f
        (f# o q)#     = [1,f#] o q#
    """
    v = skew_view(m)
    name = getattr(m, "name")
    report = ValidationReport(name + ".sharp-laws")
    cert = certify(m)
    homs = find_closed_structure(m, cert)
    if homs is None or not cert.left_representable:
        raise MalformedTable(f"{name}: the law suite needs a closed left "
                             f"representable structure")
    inv = inverses(m, cert, homs)
    base = v.base

    for f in v.multimaps(TIGHT, 2):
        a = v.dom(f)[0]
        for key in v.mapset_keys(LOOSE, 0):
            if key[1] != a:
                continue
            for w in v.mapset(LOOSE, 0, *key):
                lhs = v.safe_subst(inv.sharp.get(f), 1, w)
                rhs = inv.sharp.get(v.safe_subst(f, 1, w))
                report.count("sharp-nullary")
                if lhs is None or lhs != rhs:
                    report.fail("sharp-nullary", (f, w), lhs, rhs)

    for n in (2, 3):
        for g in v.multimaps(TIGHT, n):
            x = v.dom(g)[0]
            for f in v.multimaps(TIGHT, 2):
                if v.cod(f) != x:
                    continue
                lhs = inv.sharp.get(v.safe_subst(g, 1, f))
                rhs = v.safe_subst(inv.sharp.get(g), 1, f)
                report.count("sharp-subst")
                if lhs is None or lhs != rhs:
                    report.fail("sharp-subst", (g, f), lhs, rhs)

    for f in v.multimaps(TIGHT, 2):
        a = v.dom(f)[0]
        fs = inv.sharp.get(f)
        for q in base.mors_into(a):
            composed = base.compose_opt(fs, q)
            lhs = inv.sharp.get(v.safe_j(composed))
            action = hom_action(m, homs, base.dom(q), fs)
            rhs = v.safe_post(action, inv.sharp.get(v.safe_j(q)))
            report.count("sharp-precompose")
            if lhs is None or lhs != rhs:
                report.fail("sharp-precompose", (f, q), lhs, rhs)
    return report.finish()


def verify_left_iff_adjoint(m: Structure) -> ValidationReport:
    """Two independent verdicts on a closed structure: (i) left
    representability by certification, (ii) a nullary classifier plus a
    left adjoint witness for every hom functor; they must agree.

    The closedness precondition is scoped to positive arities so that
    structures whose nullary tables were stripped still produce a (negative)
    pair of verdicts."""
    v = skew_view(m)
    report = ValidationReport(getattr(m, "name") + ".left-iff-adjoint")
    homs = {}
    for b, c in itertools.product(v.base.objects, repeat=2):
        homs[(b, c)] = find_hom_object(m, b, c, include_nullary=False)
    if any(h is None for h in homs.values()):
        raise MalformedTable(f"{getattr(m, 'name')}: verify_left_iff_adjoint needs closedness")

    cert = certify(m)
    verdict_lr = cert.left_representable
    report.count("left-representable-route")

    has_nullary = find_nullary_classifier(m) is not None
    adjoints_ok = True
    for a, b in itertools.product(v.base.objects, repeat=2):
        found = False
        for t in v.base.objects:
            for eta in v.base.hom(a, homs[(b, t)].obj):
                ok = True
                for c in v.base.objects:
                    table = bijection_table(
                        list(v.base.hom(t, c)),
                        lambda w: v.base.compose_opt(hom_action(m, homs, b, w), eta),
                        list(v.base.hom(a, homs[(b, c)].obj)))
                    if table is None:
                        ok = False
                        break
                if ok:
                    found = True
                    break
            if found:
                break
        report.count("adjoint-search")
        if not found:
            adjoints_ok = False
            report.fail("adjoint-search", (a, b), None, "left adjoint witness")
    verdict_adj = has_nullary and adjoints_ok
    if verdict_lr != verdict_adj:
        raise InconsistentVerdicts(
            f"{getattr(m, 'name')}: left-representable={verdict_lr} but "
            f"nullary+adjoints={verdict_adj}")
    if not verdict_lr:
        report.fail("verdict", ("left-representable",), str(verdict_lr), "True")
    return report.finish()


def verify_units_left_universal(m: Structure) -> ValidationReport:
    """On a closed structure with a nullary classifier, re-derive left
    universality of the unit through the inductive currying chain and
    cross-check against direct enumeration."""
    v = skew_view(m)
    name = getattr(m, "name")
    report = ValidationReport(name + ".units-left-universal")
    homs = find_closed_structure(m)
    if homs is None:
        raise MalformedTable(f"{name}: verify_units_left_universal needs closedness")
    nu = find_nullary_classifier(m)
    if nu is None:
        raise MalformedTable(f"{name}: verify_units_left_universal needs a nullary classifier")
    i, u = nu.obj, nu.u

    def sharp_of(f: str, flavour: str) -> Optional[str]:
        dom, cod = v.dom(f), v.cod(f)
        h = homs[(dom[-1], cod)]
        n = len(dom)
        table = h.witness.get((flavour, n - 1, dom[:-1]), {})
        hits = [w for w, img in table.items() if img == f]
        return hits[0] if len(hits) == 1 else None

    objs = v.base.objects
    direct_ok, chain_ok = True, True
    for n in (2, 3):
        for xs in itertools.product(objs, repeat=n - 1):
            for y in objs:
                dom = (i,) + xs
                direct = bijection_table(
                    list(v.mapset(TIGHT, n, dom, y)),
                    lambda g: v.safe_subst(g, 1, u),
                    list(v.mapset(LOOSE, n - 1, xs, y)))
                report.count("direct-enumeration")
                if direct is None:
                    direct_ok = False
                    report.fail("direct-enumeration", (str(n),) + xs + (y,), None, "bijection")
                    continue

                def chain(g):
                    gs = sharp_of(g, TIGHT)
                    dropped = v.safe_subst(gs, 1, u)
                    if dropped is None:
                        return None
                    e = homs[(v.dom(g)[-1], v.cod(g))].e
                    return v.safe_subst(e, 1, dropped)

                chained = bijection_table(
                    list(v.mapset(TIGHT, n, dom, y)), chain,
                    list(v.mapset(LOOSE, n - 1, xs, y)))
                report.count("chain-derivation")
                if chained is None or chained != direct:
                    chain_ok = False
                    report.fail("chain-derivation", (str(n),) + xs + (y,), None, "agreement")
    if direct_ok != chain_ok and (direct_ok or chain_ok):
        raise InconsistentVerdicts(f"{name}: unit left-universality routes disagree")
    return report.finish()
