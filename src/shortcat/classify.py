"""Enumeration-based search and certification of universal structures:
map classifiers, left universality, representability, closedness.

Every universal property certified here is one rule: substitution into a
fixed map is a bijection, scope by scope. A classifier, a left-universal
extension, a hom object (left or right), a derived composite and a
representability slot differ only in the scopes they list, each a
(key, domain, substitution, target) tuple, and all of them go through
bijection_scan. The tables it records are the witnesses, and they double as
inverse tables: preimage reads one backwards.

Everything here works on the tight/loose view: a plain short multicategory
is certified through its embedding (all maps both tight and loose, j the
identity), under which the tight/loose bijection scopes reduce to the plain
ones.

Search order is canonical: candidate objects in sorted order, then
candidate multimaps; the first certified hit is the classifier used
downstream, which is immaterial up to unique isomorphism.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, Union

from .errors import InconsistentVerdicts, MalformedTable, UniversalityBroken
from .report import ValidationReport
from .shortmulti import ShortMulticategory
from .shortskew import LOOSE, TIGHT, ShortSkewMulticategory

Structure = Union[ShortMulticategory, ShortSkewMulticategory]

# One scope of a universal property: its key, the maps substituted into,
# the substitution, and the maps it must reach, each exactly once.
Scope = tuple[Hashable, Sequence[str], Callable[[str], Optional[str]], Sequence[str]]


def skew_view(m: Structure) -> ShortSkewMulticategory:
    """m itself, or for a plain structure its one cached embedding."""
    if isinstance(m, ShortMulticategory):
        return m.as_skew
    return m


def bijection_table(domain: Sequence[str], apply_fn: Callable[[str], Optional[str]],
                    target: Sequence[str]) -> Optional[dict[str, str]]:
    """The graph of apply_fn if it is a bijection domain -> target, else None;
    sequences of different lengths are refused before any image is taken."""
    if len(domain) != len(target):
        return None
    table: dict[str, str] = {}
    unmet = set(target)
    for v in domain:
        img = apply_fn(v)
        if img is None or img not in unmet:
            return None
        unmet.remove(img)
        table[v] = img
    return table


def _into(sub: Callable, i: int, theta: str) -> Callable[[str], Optional[str]]:
    """w -> w o_i theta, read through sub, the get of a subst lookup dict."""
    return lambda w: sub((w, i, theta))


def bijection_scan(scopes: Iterable[Scope], witness: Optional[dict] = None,
                   stop: bool = True) -> list:
    """Check every scope's substitution for a bijection from its domain onto
    its target, recording each graph in witness (when given) under the
    scope's key. Returns the keys of the scopes that fail; with stop, the
    scan ends at the first, so scopes after it are never built."""
    failed = []
    for key, domain, apply_fn, target in scopes:
        table = bijection_table(domain, apply_fn, target)
        if table is None:
            failed.append(key)
            if stop:
                break
        elif witness is not None:
            witness[key] = table
    return failed


def preimage(table: dict[str, str], image: Optional[str]) -> Optional[str]:
    """The one key of table sent to image, or None when there is not exactly one."""
    hits = [w for w, img in table.items() if img == image]
    return hits[0] if len(hits) == 1 else None


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

def classifiers(m: Structure, inputs: tuple[str, ...] = ()
                ) -> Iterator[Union[BinaryClassifier, NullaryClassifier]]:
    """Every certified classifier of a pair of inputs (tight binary) or of no
    input (loose nullary), in search order: substitution into the candidate
    map is a bijection from the unary maps out of its object onto the maps of
    the inputs, at every codomain."""
    v = skew_view(m)
    maps, sub = v._mapsets.get, v.lookups[2].get
    flavour, n = (TIGHT, 2) if inputs else (LOOSE, 0)
    targets = [(d, maps((flavour, n, inputs, d), ())) for d in v.base.objects]
    for cand, thetas in targets:
        for theta in thetas:
            witness: dict[tuple, dict[str, str]] = {}
            image = _into(sub, 1, theta)
            if bijection_scan(((("base", d), maps((TIGHT, 1, (cand,), d), ()), image, target)
                               for d, target in targets), witness):
                continue
            if inputs:
                yield BinaryClassifier(inputs, cand, theta, witness)
            else:
                yield NullaryClassifier(cand, theta, witness)


def find_binary_classifier(m: Structure, a: str, b: str) -> Optional[BinaryClassifier]:
    return next(classifiers(m, (a, b)), None)


def find_nullary_classifier(m: Structure) -> Optional[NullaryClassifier]:
    return next(classifiers(m), None)


def check_left_universal(m: Structure,
                         cl: Union[BinaryClassifier, NullaryClassifier]
                         ) -> tuple[bool, list[str]]:
    """Extend the witness tables of a certified classifier to the longer
    position-1 bijections, one or two more inputs after the classified ones;
    returns the verdict and failing scopes."""
    v = skew_view(m)
    objs, maps, sub = v.base.objects, v._mapsets.get, v.lookups[2].get
    if isinstance(cl, BinaryClassifier):
        tag, inputs, flavour, image = "t", cl.pair, TIGHT, _into(sub, 1, cl.theta)
    else:
        tag, inputs, flavour, image = "l", (), LOOSE, _into(sub, 1, cl.u)
    # a scope's arity n counts the classified map's object as one input
    n0 = 1 if inputs else 0
    failed = bijection_scan(
        ((("ext", k + n0, xs, d), maps((TIGHT, k + 1, (cl.obj,) + xs, d), ()),
          image, maps((flavour, len(inputs) + k, inputs + xs, d), ()))
         for k in (1, 2) for xs in itertools.product(objs, repeat=k) for d in objs),
        cl.witness, stop=False)
    failures = [f"{tag}{n}:{','.join(xs)};{d}" for _, n, xs, d in failed]
    cl.left_universal = not failures
    return (not failures, failures)


def certify(m: Structure) -> Certificate:
    """Run every classifier search once, keeping its first hit and all its
    hits, and the left-universality extensions."""
    v = skew_view(m)
    binary: dict[tuple[str, str], Optional[BinaryClassifier]] = {}
    candidates: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for pair in itertools.product(v.base.objects, repeat=2):
        hits = list(classifiers(m, pair))
        binary[pair] = hits[0] if hits else None
        candidates[pair] = [(cl.obj, cl.theta) for cl in hits]
    nullary = list(classifiers(m))
    cert = Certificate(
        name=getattr(m, "name"), structure=m, view=v, plain=isinstance(m, ShortMulticategory),
        binary=binary, binary_candidates=candidates,
        nullary=nullary[0] if nullary else None,
        nullary_candidates=[(cl.obj, cl.u) for cl in nullary])
    if cert.weakly_representable:
        for cl in binary.values():
            check_left_universal(m, cl)
        check_left_universal(m, cert.nullary)
    return cert


def classifier_uniqueness_isos(m: Structure, cert: Certificate) -> dict[tuple, str]:
    """For every pair of certified classifier candidates over the same input,
    the unique invertible unary map connecting them; raises if one is
    missing or not invertible."""
    v = cert.view
    groups = [((a, b), cands, f"classifier candidates for ({a},{b})")
              for (a, b), cands in cert.binary_candidates.items()]
    groups.append((("nullary",), cert.nullary_candidates, "nullary candidates"))
    out: dict[tuple, str] = {}
    for key, cands, what in groups:
        for (o1, t1), (o2, t2) in itertools.combinations(cands, 2):
            link = preimage({w: v.safe_subst(w, 1, t1) for w in v.base.hom(o1, o2)}, t2)
            if link is None or v.base.is_iso(link) is None:
                raise UniversalityBroken(f"{cert.name}: {what} not uniquely isomorphic")
            out[key + (o1, o2)] = link
    return out


# --------------------------------------------------------------------------
# derived classifiers
# --------------------------------------------------------------------------

def derived_classifiers(m: Structure, cert: Certificate) -> list[DerivedClassifier]:
    """Materialize the composite ternary/quaternary classifiers and the
    unit-unary one, re-certifying each composite bijection directly and
    against the composite of the stepwise witnesses.

    Each composite classifies its inputs one step at a time: theta(a,b) (or
    the unit u for unit-unary), then the binary classifier of the object so
    far with the next input. Its map is the last step with the earlier ones
    substituted in position 1."""
    if not cert.left_representable:
        raise MalformedTable(f"{cert.name}: derived classifiers need left representability")
    v = cert.view
    objs, maps, sub = v.base.objects, v._mapsets.get, v.lookups[2].get

    def along(w: Optional[str], steps: list[str]) -> Optional[str]:
        for t in reversed(steps):
            w = sub((w, 1, t))
        return w

    keys = ([("ternary", key) for key in itertools.product(objs, repeat=3)]
            + [("quaternary", key) for key in itertools.product(objs, repeat=4)]
            + [("unit-unary", (a,)) for a in objs])
    out: list[DerivedClassifier] = []
    for kind, key in keys:
        if kind == "unit-unary":
            flavour, obj, steps, rest = LOOSE, cert.nullary.obj, [cert.nullary.u], key
            at, what = key[0], "unit-unary classifier"
        else:
            flavour, obj, steps, rest = TIGHT, cert.obj(*key[:2]), [cert.theta(*key[:2])], key[2:]
            at, what = f"({','.join(key)})", f"composite {kind} classifier"
        for x in rest:
            steps.append(cert.theta(obj, x))
            obj = cert.obj(obj, x)
        theta = along(steps[-1], steps[:-1])
        if theta is None:
            raise UniversalityBroken(f"{cert.name}: {kind} composite undefined at {at}")
        witness: dict[str, dict[str, str]] = {}
        image = _into(sub, 1, theta)
        failed = bijection_scan(((d, maps((TIGHT, 1, (obj,), d), ()), image,
                                  maps((flavour, len(key), key, d), ())) for d in objs), witness)
        # the codomains certified before a failing one are compared first
        for table in witness.values():
            for w, img in table.items():
                if along(w, steps) != img:
                    raise UniversalityBroken(
                        f"{cert.name}: {kind} composite disagrees with stepwise at {w}")
        if failed:
            raise UniversalityBroken(
                f"{cert.name}: {what} fails at {at};{failed[0]}")
        out.append(DerivedClassifier(kind, key, obj, theta, sum(map(len, witness.values()))))
    cert.derived = out
    return out


# --------------------------------------------------------------------------
# representability (plain structures)
# --------------------------------------------------------------------------

def check_representable(m: ShortMulticategory, cert: Certificate) -> tuple[bool, list[str]]:
    """Positional bijections at every slot, arities 1 to 3: substituting the
    nullary classifier u, or a binary classifier theta(a,b), at slot j."""
    if not isinstance(m, ShortMulticategory):
        raise MalformedTable("representability is defined for plain short multicategories")
    if not cert.weakly_representable:
        cert.representable = False
        return False, ["missing classifiers"]
    objs, maps, sub = m.base.objects, m.as_skew._mapsets.get, m.lookups[2].get
    classified = [("u", cert.nullary.obj, cert.nullary.u, ())]
    classified += [(f"theta({a},{b})", cert.obj(a, b), cert.theta(a, b), (a, b))
                   for a, b in itertools.product(objs, repeat=2)]

    def scopes() -> Iterator[Scope]:
        for label, obj, theta, inputs in classified:
            for n in (1, 2, 3):
                k = n - 1 + len(inputs)
                flavour = TIGHT if k else LOOSE  # the one nullary table is loose
                for lx in range(n):
                    image = _into(sub, lx + 1, theta)
                    for xs in itertools.product(objs, repeat=lx):
                        for ys in itertools.product(objs, repeat=n - 1 - lx):
                            dom, target = xs + (obj,) + ys, xs + inputs + ys
                            for z in objs:
                                yield ((label, n, xs, ys, z), maps((TIGHT, n, dom, z), ()),
                                       image, maps((flavour, k, target, z), ()))
    failed = bijection_scan(scopes(), stop=False)
    failures = [f"{label}@{n}.{len(xs) + 1}:{xs}{ys};{z}" for label, n, xs, ys, z in failed]
    cert.representable = not failures
    return (not failures, failures)


# --------------------------------------------------------------------------
# closedness
# --------------------------------------------------------------------------

def _hom_object(pair: tuple[str, str], cand: str, e: str,
                scopes: Iterable[Scope]) -> Optional[HomObject]:
    """The hom object (cand, e) when every scope is a bijection; its witness
    keeps the non-empty tables."""
    witness: dict[tuple, dict[str, str]] = {}
    if bijection_scan(scopes, witness):
        return None
    return HomObject(pair, cand, e, {key: table for key, table in witness.items() if table})


def _certify_hom(v: ShortSkewMulticategory, b: str, c: str,
                 cand: str, e: str, include_nullary: bool = True) -> Optional[HomObject]:
    """Substitution into position 1 of e: (cand, b) -> c, tight arities 1 to 3
    and loose arities 0 (when include_nullary) and 1."""
    arities = ((TIGHT, (1, 2, 3)), (LOOSE, (0, 1) if include_nullary else (1,)))
    maps, sub = v._mapsets.get, v.lookups[2].get

    def image(g: str) -> Optional[str]:
        return sub((e, 1, g))
    return _hom_object((b, c), cand, e, (
        ((flavour, n, xs), maps((flavour, n, xs, cand), ()), image,
         maps((flavour, n + 1, xs + (b,), c), ()))
        for flavour, ns in arities for n in ns
        for xs in itertools.product(v.base.objects, repeat=n)))


def find_hom_object(m: Structure, b: str, c: str,
                    include_nullary: bool = True) -> Optional[HomObject]:
    v = skew_view(m)
    for cand in v.base.objects:
        for e in v._mapsets.get((TIGHT, 2, (cand, b), c), ()):
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
            h = _hom_object((b, c), cand, e, (
                ((n, xs), m.mapset(n, xs, cand), lambda g: m.safe_subst(e, 2, g),
                 m.mapset(n + 1, (b,) + xs, c))
                for n in (0, 1, 2, 3) for xs in itertools.product(objs, repeat=n)))
            if h is not None:
                return h
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
            w = preimage(cl.witness.get(key, {}), f)
            if w is None:
                raise UniversalityBroken(f"{cert.name}: prime inverse missing for {f}")
            prime[f] = w
            if v.safe_subst(w, 1, cl.theta) != f:
                raise UniversalityBroken(f"{cert.name}: prime roundtrip failed at {f}")
    star: dict[str, str] = {}
    nu = cert.nullary
    for n in (0, 1, 2):
        for f in v.multimaps(LOOSE, n):
            dom, cod = v.dom(f), v.cod(f)
            key = ("base", cod) if n == 0 else ("ext", n, dom, cod)
            w = preimage(nu.witness.get(key, {}), f)
            if w is None:
                raise UniversalityBroken(f"{cert.name}: star inverse missing for {f}")
            star[f] = w
            if v.safe_subst(w, 1, nu.u) != f:
                raise UniversalityBroken(f"{cert.name}: star roundtrip failed at {f}")
    sharp: dict[str, str] = {}
    if homs is not None:
        for flavour, lo, hi in ((TIGHT, 2, 4), (LOOSE, 1, 2)):
            for n in range(lo, hi + 1):
                for f in v.multimaps(flavour, n):
                    if flavour == LOOSE and v.is_tight(f) and n >= 2:
                        continue  # handled through the tight tables
                    dom, cod = v.dom(f), v.cod(f)
                    table = homs[(dom[-1], cod)].witness.get((flavour, n - 1, dom[:-1]), {})
                    w = preimage(table, f)
                    if w is None:
                        raise UniversalityBroken(f"{cert.name}: sharp inverse missing for {f}")
                    sharp[f] = w
    return Inverses(prime, star, sharp)


def hom_action(m: Structure, homs: dict[tuple[str, str], HomObject],
               b: str, q: str) -> str:
    """The map [b, q]: [b,c] -> [b,c'] induced by q: c -> c', the unique
    solution of e o_1 [b,q] = q o e."""
    v = skew_view(m)
    c, c2 = v.base.span(q)
    h, h2 = homs[(b, c)], homs[(b, c2)]
    link = preimage({w: v.safe_subst(h2.e, 1, w) for w in v.base.hom(h.obj, h2.obj)},
                    v.safe_post(q, h.e))
    if link is None:
        raise UniversalityBroken(f"hom action not uniquely determined for [{b},{q}]")
    return link


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
                report.check("sharp-nullary", (f, w), v.safe_subst(inv.sharp.get(f), 1, w),
                             inv.sharp.get(v.safe_subst(f, 1, w)))

    for n in (2, 3):
        for g in v.multimaps(TIGHT, n):
            x = v.dom(g)[0]
            for f in v.multimaps(TIGHT, 2):
                if v.cod(f) != x:
                    continue
                report.check("sharp-subst", (g, f), inv.sharp.get(v.safe_subst(g, 1, f)),
                             v.safe_subst(inv.sharp.get(g), 1, f))

    for f in v.multimaps(TIGHT, 2):
        a = v.dom(f)[0]
        fs = inv.sharp.get(f)
        for q in base.mors_into(a):
            composed = base.compose_opt(fs, q)
            lhs = inv.sharp.get(v.j.get(composed))
            action = hom_action(m, homs, base.dom(q), fs)
            report.check("sharp-precompose", (f, q), lhs,
                         v.safe_post(action, inv.sharp.get(v.j.get(q))))
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

    objs = v.base.objects
    adjoints_ok = True
    for a, b in itertools.product(objs, repeat=2):
        # a unit eta: a -> [b,t] such that [b,-] o eta is a bijection
        # hom(t,c) -> hom(a,[b,c]) at every c
        found = any(not bijection_scan(
            (c, v.base.hom(t, c), lambda w: v.base.compose_opt(hom_action(m, homs, b, w), eta),
             v.base.hom(a, homs[(b, c)].obj)) for c in objs)
            for t in objs for eta in v.base.hom(a, homs[(b, t)].obj))
        report.count("adjoint-search")
        if not found:
            adjoints_ok = False
            report.fail("adjoint-search", (a, b), None, "left adjoint witness")
    verdict_adj = cert.nullary is not None and adjoints_ok
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
    objs, maps, sub = v.base.objects, v._mapsets.get, v.lookups[2].get
    drop = _into(sub, 1, u)

    def chain(g: str) -> Optional[str]:
        # g#, with u substituted, then fed back through the evaluation map
        dom = v.dom(g)
        h = homs[(dom[-1], v.cod(g))]
        dropped = drop(preimage(h.witness.get((TIGHT, len(dom) - 1, dom[:-1]), {}), g))
        return None if dropped is None else sub((h.e, 1, dropped))

    direct_ok, chain_ok = True, True
    for n in (2, 3):
        for xs in itertools.product(objs, repeat=n - 1):
            for y in objs:
                domain, target = maps((TIGHT, n, (i,) + xs, y), ()), maps((LOOSE, n - 1, xs, y), ())
                direct = bijection_table(domain, drop, target)
                report.count("direct-enumeration")
                if direct is None:
                    direct_ok = False
                    report.fail("direct-enumeration", (str(n),) + xs + (y,), None, "bijection")
                    continue
                chained = bijection_table(domain, chain, target)
                report.count("chain-derivation")
                if chained is None or chained != direct:
                    chain_ok = False
                    report.fail("chain-derivation", (str(n),) + xs + (y,), None, "agreement")
    if direct_ok != chain_ok and (direct_ok or chain_ok):
        raise InconsistentVerdicts(f"{name}: unit left-universality routes disagree")
    return report.finish()
