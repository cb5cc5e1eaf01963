"""Enumeration-based search and certification of universal structures:
map classifiers, left universality, representability, closedness.

Every universal property certified here is one rule: substitution into a
fixed map is a bijection, scope by scope. A classifier, a left-universal
extension, a hom object (left or right), a derived composite and a
representability slot differ only in the scopes they list, each a
(key, domain, substitution, target) tuple, and all of them go through
bijection_scan. The tables it records are the witnesses, kept with each
certified classifier, candidate and hom object on one Universal record, and
they double as inverse tables: read_back reads them backwards, read_solution
one entry.

A scope with no map on either side is a bijection, so only the scopes where
the domain or the target holds a map are built and scanned, in the order of
the full enumeration; a scope with maps on one side only is scanned and
refused. The scans read the codomains that hold maps off the view's
_by_dom index; _certify_hom, whose codomain is fixed, looks up both tables
at each input tuple. Where a witness keeps every scope (a classifier's base
and ext tables), an empty scope gets its empty table, in its place, without
a scan; elsewhere it is skipped.

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

from .errors import InconsistentVerdicts, MalformedTable, NoSolution, UniversalityBroken
from .report import ValidationReport
from .shortmulti import ShortMulticategory, validate_short_multicategory
from .shortskew import LOOSE, TIGHT, ShortSkewMulticategory, sub_flavour, validate_short_skew

Structure = Union[ShortMulticategory, ShortSkewMulticategory]

# One scope of a universal property: its key, the maps substituted into,
# the substitution, and the maps it must reach, each exactly once.
Scope = tuple[Hashable, Sequence[str], Callable[[str], Optional[str]], Sequence[str]]
# The maps of one head: its table, keyed (domain, codomain), and its _by_dom
# index, the codomains at which each domain holds a map.
Head = tuple[dict, dict]
# The scopes of one substitution at every codomain: a key, the maps of a
# head out of a domain substituted into, the substitution, and the maps of a
# head out of a domain it must reach.
Family = tuple[tuple, Head, tuple[str, ...], Callable[[str], Optional[str]], Head, tuple[str, ...]]


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


def _head(v: ShortSkewMulticategory, head: tuple) -> Head:
    return v._by_head.get(head, {}), v._by_dom.get(head, {})


def _scopes(families: Iterable[Family], objs: Sequence[str],
            empty: Optional[dict] = None) -> Iterator[Scope]:
    """The scopes key + (d,) of each family, d an object in order: from the
    maps of the source head out of its domain into d onto those of the
    target head out of its domain into d. A scope with no map on either
    side is a bijection, so it is never built; with empty, a witness, it
    gets its empty table there instead, in its place."""
    for key, (stable, sindex), sdom, apply_fn, (ttable, tindex), tdom in families:
        if empty is not None:
            cods = objs
        else:
            scods, tcods = sindex.get(sdom, ()), tindex.get(tdom, ())
            if scods == tcods or not tcods:
                cods = scods
            elif not scods:
                cods = tcods
            else:
                cods = [d for d in objs if d in scods or d in tcods]
        for d in cods:
            domain, maps = stable.get((sdom, d), ()), ttable.get((tdom, d), ())
            if domain or maps:
                yield key + (d,), domain, apply_fn, maps
            else:
                empty[key + (d,)] = {}


def preimage(table: dict[str, str], image: Optional[str]) -> Optional[str]:
    """The one key of table sent to image, or None when there is not exactly one."""
    hits = [w for w, img in table.items() if img == image]
    return hits[0] if len(hits) == 1 else None


@dataclass
class Universal:
    """A certified universal map via, substitution into which is a bijection
    at every scope. key is what it is universal for: the inputs (a, b) or ()
    that a classifier via into obj classifies, or the pair (b, c) of a hom
    object obj with evaluation via. witness holds each scope's bijection."""
    key: tuple[str, ...]
    obj: str
    via: str
    witness: dict[tuple, dict[str, str]]
    left_universal: Optional[bool] = None


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
    binary: dict[tuple[str, str], Optional[Universal]]
    binary_candidates: dict[tuple[str, str], list[Universal]]  # binary[pair] first
    nullary: Optional[Universal]
    nullary_candidates: list[Universal]  # nullary first
    homs: Optional[dict[tuple[str, str], Optional[Universal]]] = None
    right_homs: Optional[dict[tuple[str, str], Optional[Universal]]] = None
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

    def classifier(self, a: str, b: str) -> Universal:
        c = self.binary.get((a, b))
        if c is None:
            raise MalformedTable(f"{self.name}: no binary classifier for ({a},{b})")
        return c

    def theta(self, a: str, b: str) -> str:
        return self.classifier(a, b).via

    def obj(self, a: str, b: str) -> str:
        return self.classifier(a, b).obj

    def hom(self, b: str, c: str) -> Universal:
        h = (self.homs or {}).get((b, c))
        if h is None:
            raise MalformedTable(f"{self.name}: no hom object for ({b},{c})")
        return h


# --------------------------------------------------------------------------
# classifier searches
# --------------------------------------------------------------------------

def classifiers(m: Structure, inputs: tuple[str, ...] = ()) -> Iterator[Universal]:
    """Every certified classifier of a pair of inputs (tight binary) or of no
    input (loose nullary), in search order: substitution into the candidate
    map is a bijection from the unary maps out of its object onto the maps of
    the inputs, at every codomain."""
    v = skew_view(m)
    objs, sub = v.base.objects, v.lookups[2].get
    unary, target = _head(v, (TIGHT, 1)), _head(v, (TIGHT, 2) if inputs else (LOOSE, 0))
    table, index = target
    for cand in index.get(inputs, ()):
        for theta in table[inputs, cand]:
            witness: dict[tuple, dict[str, str]] = {}
            image = _into(sub, 1, theta)
            if not bijection_scan(_scopes([(("base",), unary, (cand,), image, target, inputs)],
                                          objs, witness), witness):
                yield Universal(inputs, cand, theta, witness)


def find_binary_classifier(m: Structure, a: str, b: str) -> Optional[Universal]:
    return next(classifiers(m, (a, b)), None)


def find_nullary_classifier(m: Structure) -> Optional[Universal]:
    return next(classifiers(m), None)


def check_left_universal(m: Structure, cl: Universal) -> tuple[bool, list[str]]:
    """Extend the witness tables of a certified classifier to the longer
    position-1 bijections, one or two more inputs after the classified ones;
    returns the verdict and failing scopes."""
    v = skew_view(m)
    objs, sub = v.base.objects, v.lookups[2].get
    inputs, image = cl.key, _into(sub, 1, cl.via)
    # tight binary or loose nullary; a scope's arity n counts the classified
    # map's object as one input
    tag, flavour, n0 = ("t", TIGHT, 1) if inputs else ("l", LOOSE, 0)
    heads = [(k, _head(v, (TIGHT, k + 1)), _head(v, (flavour, len(inputs) + k))) for k in (1, 2)]
    failed = bijection_scan(_scopes(
        ((("ext", k + n0, xs), source, (cl.obj,) + xs, image, target, inputs + xs)
         for k, source, target in heads for xs in itertools.product(objs, repeat=k)),
        objs, cl.witness), cl.witness, stop=False)
    failures = [f"{tag}{n}:{','.join(xs)};{d}" for _, n, xs, d in failed]
    cl.left_universal = not failures
    return (not failures, failures)


def certify(m: Structure) -> Certificate:
    """Run every classifier search once, keeping every hit's record, the
    first as the classifier, and the classifiers' left-universality
    extensions."""
    v = skew_view(m)
    candidates = {pair: list(classifiers(m, pair))
                  for pair in itertools.product(v.base.objects, repeat=2)}
    nullary = list(classifiers(m))
    cert = Certificate(
        name=getattr(m, "name"), structure=m, view=v, plain=isinstance(m, ShortMulticategory),
        binary={pair: hits[0] if hits else None for pair, hits in candidates.items()},
        binary_candidates=candidates,
        nullary=nullary[0] if nullary else None, nullary_candidates=nullary)
    if cert.weakly_representable:
        for cl in (*cert.binary.values(), cert.nullary):
            check_left_universal(m, cl)
    return cert


def classifier_uniqueness_isos(cert: Certificate) -> dict[tuple, str]:
    """For every pair c1, c2 of certified candidates over the same input, the
    unique invertible unary map connecting them: the w with w o_1 c1.via =
    c2.via in c1's base witness at c2.obj; raises if none or not invertible."""
    groups = [((a, b), cands, f"classifier candidates for ({a},{b})")
              for (a, b), cands in cert.binary_candidates.items()]
    groups.append((("nullary",), cert.nullary_candidates, "nullary candidates"))
    out: dict[tuple, str] = {}
    for key, cands, what in groups:
        for c1, c2 in itertools.combinations(cands, 2):
            link = preimage(c1.witness[("base", c2.obj)], c2.via)
            if link is None or cert.view.base.is_iso(link) is None:
                raise UniversalityBroken(f"{cert.name}: {what} not uniquely isomorphic")
            out[key + (c1.obj, c2.obj)] = link
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
    objs, sub, unary = v.base.objects, v.lookups[2].get, _head(v, (TIGHT, 1))

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
            flavour, obj, steps, rest = LOOSE, cert.nullary.obj, [cert.nullary.via], key
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
        witness: dict[tuple, dict[str, str]] = {}
        failed = bijection_scan(_scopes([((), unary, (obj,), _into(sub, 1, theta),
                                          _head(v, (flavour, len(key))), key)], objs), witness)
        # the codomains certified before a failing one are compared first
        for table in witness.values():
            for w, img in table.items():
                if along(w, steps) != img:
                    raise UniversalityBroken(
                        f"{cert.name}: {kind} composite disagrees with stepwise at {w}")
        if failed:
            raise UniversalityBroken(
                f"{cert.name}: {what} fails at {at};{failed[0][0]}")
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
    objs, v, sub = m.base.objects, m.as_skew, m.lookups[2].get
    classified = [("u", cert.nullary.obj, cert.nullary.via, ())]
    classified += [(f"theta({a},{b})", cert.obj(a, b), cert.theta(a, b), (a, b))
                   for a, b in itertools.product(objs, repeat=2)]

    def families() -> Iterator[Family]:
        for label, obj, theta, inputs in classified:
            for n in (1, 2, 3):
                k = n - 1 + len(inputs)
                # the one nullary table is loose
                source, target = _head(v, (TIGHT, n)), _head(v, (TIGHT if k else LOOSE, k))
                for lx in range(n):
                    image = _into(sub, lx + 1, theta)
                    for xs in itertools.product(objs, repeat=lx):
                        for ys in itertools.product(objs, repeat=n - 1 - lx):
                            yield ((label, n, xs, ys), source, xs + (obj,) + ys,
                                   image, target, xs + inputs + ys)
    failed = bijection_scan(_scopes(families(), objs), stop=False)
    failures = [f"{label}@{n}.{len(xs) + 1}:{xs}{ys};{z}" for label, n, xs, ys, z in failed]
    cert.representable = not failures
    return (not failures, failures)


# --------------------------------------------------------------------------
# closedness
# --------------------------------------------------------------------------

# A side of closedness: the slot of the evaluation map e that takes the
# candidate hom object (b takes the other), and the (flavour, arity) of the
# maps substituted into that slot, one scope per inputs xs.
HomSide = tuple[int, tuple[tuple[str, int], ...]]
# e: (cand, b) -> c; tight arities 1 to 3, loose 0 and 1, or loose 1 only
LEFT: HomSide = (1, ((TIGHT, 1), (TIGHT, 2), (TIGHT, 3), (LOOSE, 0), (LOOSE, 1)))
LEFT_POSITIVE: HomSide = (1, ((TIGHT, 1), (TIGHT, 2), (TIGHT, 3), (LOOSE, 1)))
# e: (b, cand) -> c, on the view of a plain structure; loose 0, tight 1 to 3
RIGHT: HomSide = (2, ((LOOSE, 0), (TIGHT, 1), (TIGHT, 2), (TIGHT, 3)))


def _certify_hom(v: ShortSkewMulticategory, b: str, c: str,
                 cand: str, e: str, side: HomSide = LEFT) -> Optional[Universal]:
    """The hom object (cand, e) when substitution into e's slot is a
    bijection at every scope of the side: from the maps xs -> cand onto the
    maps into c whose inputs are e's with xs in cand's place, of the flavour
    that substitution into a tight map gives. Only the inputs xs where
    either side holds a map are scanned, and the witness keeps their tables,
    keyed (flavour, n, xs) on the left and (n, xs) on the right, where the
    plain structure's arity fixes the flavour."""
    slot, flavours = side
    tables, objs, sub = v._by_head, v.base.objects, v.lookups[2].get
    before, after = v.dom(e)[:slot - 1], v.dom(e)[slot:]

    def image(g: str) -> Optional[str]:
        return sub((e, slot, g))

    def scopes() -> Iterator[Scope]:
        for flavour, n in flavours:
            landing = sub_flavour(TIGHT, slot, flavour)
            source, target = tables.get((flavour, n), {}), tables.get((landing, n + 1), {})
            for xs in itertools.product(objs, repeat=n):
                domain, maps = source.get((xs, cand), ()), target.get((before + xs + after, c), ())
                if domain or maps:
                    yield (flavour, n, xs) if slot == 1 else (n, xs), domain, image, maps
    witness: dict[tuple, dict[str, str]] = {}
    if bijection_scan(scopes(), witness):
        return None
    return Universal((b, c), cand, e, witness)


def find_hom_object(m: Structure, b: str, c: str,
                    side: HomSide = LEFT) -> Optional[Universal]:
    v = skew_view(m)
    for cand in v.base.objects:
        dom = (cand, b) if side[0] == 1 else (b, cand)
        for e in v.mapset(TIGHT, 2, dom, c):
            h = _certify_hom(v, b, c, cand, e, side)
            if h is not None:
                return h
    return None


def find_closed_structure(m: Structure, cert: Optional[Certificate] = None,
                          side: HomSide = LEFT
                          ) -> Optional[dict[tuple[str, str], Universal]]:
    """Exhaustive hom-object search on one side for every pair; None when
    some pair admits none. Records the inventory on the certificate when
    given, as its right_homs for the right side."""
    objs = skew_view(m).base.objects
    homs = {(b, c): find_hom_object(m, b, c, side) for b, c in itertools.product(objs, repeat=2)}
    if cert is not None:
        setattr(cert, "right_homs" if side is RIGHT else "homs", homs)
    return None if any(h is None for h in homs.values()) else homs


# --------------------------------------------------------------------------
# inverse tables: (-)', (-)*, (-)#
# --------------------------------------------------------------------------

@dataclass
class Inverses:
    prime: dict[str, str]   # f with arity >= 2 -> the map with f' o_1 theta = f
    star: dict[str, str]    # loose f (arities 0-2) -> tight f* with f* o_1 u = f
    sharp: dict[str, str]   # f with last input b, cod c -> f# into [b,c]


def read_back(owners: Iterable[Universal]) -> dict[str, str]:
    """The witness tables of owners read backwards: each map a substitution
    reached -> the map whose substitution reached it. The first scope to
    reach a map names it; tight scopes are recorded before loose ones, so a
    map both tight and loose takes its tight abstraction."""
    back: dict[str, str] = {}
    for owner in owners:
        for table in owner.witness.values():
            for w, img in table.items():
                back.setdefault(img, w)
    return back


def read_solution(label: str, owner: Universal, key: Hashable, image: Optional[str]) -> str:
    """The map whose substitution reaches image in owner's witness table under
    key, or NoSolution naming the defining equation label if none does."""
    w = preimage(owner.witness.get(key, {}), image)
    if w is None:
        raise NoSolution(f"no solution for {label}")
    return w


def inverses(cert: Certificate,
             homs: Optional[dict[tuple[str, str], Universal]] = None) -> Inverses:
    """The inverse tables, read off the recorded witnesses. Every scope of a
    certified classifier or hom object is a bijection onto all the maps of
    its type, so each map in a table's range is reached exactly once."""
    if not cert.left_representable:
        raise MalformedTable(f"{cert.name}: inverse tables need left representability")
    return Inverses(read_back(cert.binary.values()), read_back([cert.nullary]),
                    read_back((homs or {}).values()))


def hom_action(m: Structure, homs: dict[tuple[str, str], Universal],
               b: str, q: str) -> str:
    """The map [b, q]: [b,c] -> [b,c'] induced by q: c -> c', the unique
    solution of e o_1 [b,q] = q o e."""
    v = skew_view(m)
    c, c2 = v.base.span(q)
    h, h2 = homs[(b, c)], homs[(b, c2)]
    link = preimage(h2.witness.get((TIGHT, 1, (h.obj,)), {}), v.safe_post(q, h.via))
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
    inv = inverses(cert, homs)
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
        for q in base._adjacency[1][a]:
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
    homs = find_closed_structure(m, side=LEFT_POSITIVE)
    if homs is None:
        raise MalformedTable(f"{getattr(m, 'name')}: verify_left_iff_adjoint needs closedness")

    cert = certify(m)
    verdict_lr = cert.left_representable
    report.count("left-representable-route")

    objs = v.base.objects
    adjoints_ok = True
    try:
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
    except (InconsistentVerdicts, UniversalityBroken):
        validate = validate_short_multicategory if cert.plain else validate_short_skew
        validate(m).require_pass(getattr(m, "name"), "verify_left_iff_adjoint")
        raise
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
    i, u = nu.obj, nu.via
    objs, maps, sub = v.base.objects, v.mapset, v.lookups[2].get
    drop = _into(sub, 1, u)
    sharp = read_back(homs.values())

    def chain(g: str) -> Optional[str]:
        # g#, with u substituted, then fed back through the evaluation map
        dropped = drop(sharp.get(g))
        e = homs[(v.dom(g)[-1], v.cod(g))].via
        return None if dropped is None else sub((e, 1, dropped))

    direct_ok, chain_ok = True, True
    for n in (2, 3):
        for xs in itertools.product(objs, repeat=n - 1):
            for y in objs:
                domain, target = maps(TIGHT, n, (i,) + xs, y), maps(LOOSE, n - 1, xs, y)
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
