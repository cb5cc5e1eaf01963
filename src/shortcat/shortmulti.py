"""Short multicategories as explicit tables, with the full axiom validator.

A structure stores multimap sets for arities 0 to 4 (the arity-1 table is
the base category's hom-sets), unary pre/post action tables, and the
substitution tables for exactly these cases:

    binary into binary      (outer 2, inner 2, positions 1-2)
    binary into ternary     (outer 3, inner 2, positions 1-3)
    ternary into binary     (outer 2, inner 3, positions 1-2)
    nullary into binary     (outer 2, inner 0, positions 1-2)
    nullary into ternary    (outer 3, inner 0, positions 1-3)

Substituting a unary map routes through the pre-action tables, and
substituting into a unary map routes through the post-action tables, so
`safe_subst` is defined on everything a short multicategory provides.

Law checks compare identifiers and never raise on a mutated (wrongly
typed) table value; a lookup that becomes impossible counts as a failed
instance.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .errors import DanglingId, MalformedTable
from .fincat import (
    FinCategory, FinFunctor, check_members, check_tables, validate_category, validate_functor,
)
from .report import ValidationReport, tally

if TYPE_CHECKING:
    from .shortskew import ShortSkewMulticategory

Key = tuple[tuple[str, ...], str]  # (domain tuple, codomain)

# (outer arity, inner arity) cases with stored tables.
STORED_CASES = frozenset({(2, 2), (3, 2), (2, 3), (2, 0), (3, 0)})


class MultiTables:
    """The table core shared by plain and skew short multicategories.

    A subclass is a frozen dataclass with `name`, `base`, `pre`, `post`,
    `sub` and `_index` (id -> (arity, domain, codomain, ...)). It supplies
    `table_maps`, `_BASE_HEAD`, `_CASES` and `_tables()`. A *head* is an
    arity, after the flavour in a skew structure, and a type is a head
    followed by a domain and a codomain: `_tables()` gives the (head, table)
    pair of each multimap table, `_BASE_HEAD` is the head of the base
    hom-sets and `_CASES` the (subject prefix, outer head, inner head) of
    each stored substitution case. The table loader, `_load`, and the
    multimap index are written once, over heads. The pre, post and sub tables are keyed by exactly the keys of
    `domains`, which is also what the structure check, the builders, the
    naturality cases and the morphism laws walk. The routing rule is written
    once, in `lookups`: a base morphism, the only tight unary map, composes
    in the base, and every other id reads the pre, post and sub tables.
    `safe_pre`, `safe_post`, `safe_subst` and the validators all read those
    dicts.
    """

    # -- the table loader -----------------------------------------------------
    def _load(self, tables: Iterable[tuple[tuple, dict]]) -> dict[tuple, dict]:
        """Load the (head, table) pairs and write `_index`: each table a new
        dict that keeps the caller's key if its domain is a tuple and the
        caller's multimap set if it is a sorted tuple, else a sorted tuple
        copy, and a stored copy of the base hom-sets, at _BASE_HEAD, the
        base's own. An id's type is (arity, domain, codomain), followed in a
        skew structure by the frozenset of the flavours whose tables list
        it, and the ids of one table key share one type tuple. An id listed
        again under another type, or in the same flavour, is refused.
        Returns the tables by head, without the base hom-sets."""
        name, base, skew = self.name, self.base, len(self._BASE_HEAD) > 1
        index: dict[str, tuple] = {}
        flavour = frozenset(self._BASE_HEAD[:-1])
        for (a, b), fs in base.homs.items():
            index.update(dict.fromkeys(fs, (1, (a,), b, flavour) if skew else (1, (a,), b)))
        loaded = {}
        for head, table in tables:
            if head == self._BASE_HEAD:
                for (dom, cod), fs in table.items():
                    if tuple(sorted(fs)) != base.hom(dom[0], cod):
                        raise MalformedTable(
                            f"{name}: arity-1 table disagrees with base homs at {dom[0]},{cod}")
                continue
            n, flavour, out = head[-1], frozenset(head[:-1]), loaded.setdefault(head, {})
            for key, fs in table.items():
                dom, cod = key
                if type(dom) is not tuple:
                    dom = tuple(dom)
                    key = dom, cod
                if type(fs) is not tuple or len(fs) > 1 and fs != tuple(sorted(fs)):
                    fs = tuple(sorted(fs))
                out[key] = fs
                ty, joined = (n, dom, cod), None
                first = ty + (flavour,) if skew else ty
                for f in fs:
                    have = index.get(f)
                    if have is None:
                        index[f] = first
                    elif have[:3] != ty:
                        raise MalformedTable(f"{name}: id {f} declared with two different types")
                    elif not skew or flavour <= have[3]:
                        label = "".join(map(str, head)) + " " if skew else ""
                        raise MalformedTable(f"{name}: {label}multimap id {f} declared twice")
                    else:
                        joined = joined or {}
                        index[f] = joined.setdefault(have[3], ty + (have[3] | flavour,))
        object.__setattr__(self, "_index", index)
        return loaded

    # -- typed lookups ------------------------------------------------------
    def info(self, f: str) -> tuple:
        try:
            return self._index[f]
        except KeyError:
            raise DanglingId(f"{self.name}: unknown multimap {f}")

    def arity(self, f: str) -> int:
        return self.info(f)[0]

    def dom(self, f: str) -> tuple[str, ...]:
        return self.info(f)[1]

    def cod(self, f: str) -> str:
        return self.info(f)[2]

    # -- the multimap index ----------------------------------------------------
    # Built on first use; not dataclass fields, so dataclasses.replace never
    # carries them into a redirected copy. Validation reads only _by_arity
    # and _by_cod; the classifier scans read _by_dom.
    @cached_property
    def _by_head(self) -> dict[tuple, dict[Key, tuple[str, ...]]]:
        """Every multimap table by head, the base hom-sets under _BASE_HEAD."""
        homs = {((a,), b): fs for (a, b), fs in self.base.homs.items()}
        return {self._BASE_HEAD: homs, **dict(self._tables())}

    @cached_property
    def _by_arity(self) -> dict[tuple, tuple[str, ...]]:
        return {head: tuple(sorted(f for fs in table.values() for f in fs))
                for head, table in self._by_head.items()}

    @cached_property
    def _by_cod(self) -> dict[tuple, tuple[str, ...]]:
        out: dict[tuple, list[str]] = {}
        for head, table in self._by_head.items():
            for dom, cod in sorted(table):
                out.setdefault(head + (cod,), []).extend(table[dom, cod])
        return {key: tuple(fs) for key, fs in out.items()}

    @cached_property
    def _by_dom(self) -> dict[tuple, dict[tuple[str, ...], tuple[str, ...]]]:
        """By head and then domain, the codomains at which the head's table
        holds a map from that domain, in base-object order (sorted order).
        Equal codomain tuples are shared, so a domain costs about one dict
        slot and the index stays smaller than the tables it points into."""
        out: dict[tuple, dict[tuple[str, ...], tuple[str, ...]]] = {}
        for head, table in self._by_head.items():
            held: dict[tuple[str, ...], list[str]] = {}
            for (dom, cod), fs in table.items():
                if fs:
                    held.setdefault(dom, []).append(cod)
            shared: dict[tuple[str, ...], tuple[str, ...]] = {}
            index = out[head] = {}
            for dom, cods in held.items():
                cods = tuple(sorted(cods))
                index[dom] = shared.setdefault(cods, cods)
        return out

    def mapset(self, *ty) -> tuple[str, ...]:
        """The multimaps of a type: its head, then (domain, codomain)."""
        return self._by_head.get(ty[:-2], {}).get(ty[-2:], ())

    def multimaps(self, *head) -> tuple[str, ...]:
        return self._by_arity.get(head, ())

    def maps_into(self, *key) -> tuple[str, ...]:
        """The multimaps of a head (key without its last item) with codomain
        the last item, by domain and then id."""
        return self._by_cod.get(key, ())

    def mapset_keys(self, *head) -> list[Key]:
        return sorted(self._by_head.get(head, {}))

    # -- the routing rule ----------------------------------------------------
    # Built on first use; not a dataclass field, so dataclasses.replace never
    # carries it into a redirected copy.
    @cached_property
    def lookups(self) -> tuple[dict, dict, dict]:
        """The (pre, post, subst) dicts, keyed (f, i, p), (q, f) and (g, i, f),
        with an absent key wherever no value is defined. A base morphism, the
        only tight unary map, composes in the base; check_structure refuses a
        stored entry keyed at one. They give the structure's actions and
        substitution once it has passed check_structure."""
        span, comp = self.base._span, self.base.comp
        post = {**self.post, **comp}
        pre = dict(self.pre)
        pre.update(((g, 1, f), h) for (g, f), h in comp.items())
        sub = dict(self.sub)
        # post's base-composition entries reach sub through pre
        sub.update(((q, 1, f), h) for (q, f), h in post.items() if f not in span)
        sub.update(pre)
        return pre, post, sub

    def safe_post(self, q: Optional[str], f: Optional[str]) -> Optional[str]:
        return self.lookups[1].get((q, f))

    def safe_pre(self, f: Optional[str], i: int, p: Optional[str]) -> Optional[str]:
        return self.lookups[0].get((f, i, p))

    def safe_subst(self, g: Optional[str], i: int, f: Optional[str]) -> Optional[str]:
        return self.lookups[2].get((g, i, f))

    # -- the table domains ----------------------------------------------------
    # Built on first use, like lookups.
    @cached_property
    def domains(self) -> tuple[list, list, list]:
        """(pre keys, post keys, stored cases): the only enumeration of the
        pre, post and sub table domains. A pre key is (f, i, p), f a map of
        table_maps and p a base morphism into its slot i; a post key is
        (q, f), q a base morphism out of f. A stored case is (subject prefix,
        outer arity n, inner arity k, its sub keys, its outer maps, a dict
        from an object to the inner maps into it); its sub keys are the
        (g, i, f) with g an outer map and f an inner one into slot i. A base
        morphism substitutes and is substituted into through pre and post,
        so it is in no sub key and in no inner dict."""
        idx, (_, into, out_of) = self._index, self.base._adjacency
        routed = self.base._span
        pre = [(f, i, p) for n, f in self.table_maps
               for i, a in enumerate(idx[f][1], 1) for p in into.get(a, ())]
        post = [(q, f) for _, f in self.table_maps for q in out_of.get(idx[f][2], ())]
        cases = []
        for tag, outer_head, inner_head in self._CASES:
            outers = self.multimaps(*outer_head)
            inner = {key[-1]: [f for f in fs if f not in routed]
                     for key, fs in self._by_cod.items() if key[:-1] == inner_head}
            keys = [(g, i, f) for g in outers if g not in routed
                    for i, a in enumerate(idx[g][1], 1) for f in inner.get(a, ())]
            cases.append((tag, outer_head[-1], inner_head[-1], keys, outers, inner))
        return pre, post, cases

    def _check_rows(self, *rows: tuple) -> None:
        """The structure checks both structures share: the base, the key
        shape of every multimap table, then check_tables on the pre, post
        and sub tables, each keyed by exactly its required keys and valued
        in the multimaps, and on `rows`."""
        self.base.check_structure()
        name, objects = self.name, set(self.base.objects)
        for (*_, n), table in self._tables():
            for dom, cod in table:
                if len(dom) != n:
                    raise MalformedTable(f"{name}: arity-{n} key with {len(dom)} inputs")
                for a in dom + (cod,):
                    if a not in objects:
                        raise MalformedTable(f"{name}: unknown object {a} in multimap key")
        maps, (pre, post, cases) = (self._index, "a multimap"), self.domains
        check_tables(name, [
            ("pre", self.pre, 1, (pre, "a slot of a non-base map with a morphism into it"), maps),
            ("post", self.post, 1, (post, "a morphism out of a non-base map with that map"), maps),
            ("sub", self.sub, 1, ([key for case in cases for key in case[3]],
                                  "a slot of an outer map with an inner map into it, "
                                  "in a stored case"), maps),
            *rows])


@dataclass(frozen=True)
class ShortMulticategory(MultiTables):
    name: str
    base: FinCategory
    maps: dict[int, dict[Key, tuple[str, ...]]]   # arities 0,2,3,4; arity 1 mirrors base.homs
    pre: dict[tuple[str, int, str], str]          # (f, i, p) -> f o_i p, arity(f) >= 2
    post: dict[tuple[str, str], str]              # (q, f) -> q o f, arity(f) != 1
    sub: dict[tuple[str, int, str], str]          # (g, i, f) -> g o_i f, stored cases
    _index: dict[str, tuple[int, tuple[str, ...], str]] = field(
        default_factory=dict, repr=False, compare=False)

    _BASE_HEAD = (1,)
    _CASES = tuple(((), (n,), (k,)) for n, k in sorted(STORED_CASES))

    def __post_init__(self):
        loaded = self._load(((n,), table) for n, table in self.maps.items())
        object.__setattr__(self, "maps", {n: table for (n,), table in loaded.items()})

    @cached_property
    def as_skew(self) -> ShortSkewMulticategory:
        """The plain-as-skew view (shortskew.embed_plain), built on first use
        and kept like the multimap index. It shares this structure's lookups:
        embed_plain keeps the base, pre, post and sub they are built from."""
        from .shortskew import embed_plain
        view = embed_plain(self)
        object.__setattr__(view, "lookups", self.lookups)
        return view

    # -- what the table core needs --------------------------------------------
    @cached_property
    def table_maps(self) -> tuple[tuple[int, str], ...]:
        """(arity, multimap) over arities 0, 2, 3 and 4, by arity and then id."""
        return tuple((n, f) for n in (0, 2, 3, 4) for f in self.multimaps(n))

    def _tables(self) -> Iterator[tuple[tuple, dict]]:
        return (((n,), table) for n, table in self.maps.items())

    def check_structure(self) -> None:
        self._check_rows()


# --------------------------------------------------------------------------
# validator
# --------------------------------------------------------------------------

# The check kernel, shared by the plain and the skew validator: one loop per
# family over the finite tables. A law instance compares two lookups and
# fails when they differ or either is missing; its subjects are built only
# then. `info` maps an id to (arity, domain, codomain, ...). Every loop keeps
# the enumeration order of the law definitions, so the stable failure sort
# gives the same report.

def typing_checks(m: MultiTables, report: ValidationReport) -> None:
    """Each pre, post and sub result has the type its key gives it. A type
    is an _index entry: (arity, domain, codomain), followed in a skew
    structure by the map's flavours, of which a pre or post result must hold
    those of its map. A sub result's flavour is not tested: the landing check
    of check_structure has refused a wrong one, so a failure line shows it
    as True."""
    # The tables are walked unsorted: each key gives its own subjects, so
    # finish() sorts the failures into the same report. Each entry compares
    # the parts of its type; only a mismatch builds the wanted type and tells
    # a skew flavour mismatch that still holds from a failure.
    info, span, fail = m._index, m.base._span, report.fail

    def mismatch(subjects: tuple, have: tuple, want: tuple, of: Optional[tuple]) -> None:
        # of: the type whose flavours the result must hold, or None
        if len(have) == 3:
            fail("typing", subjects, str(have), str(want))
            return
        held = of is None or of[3] <= have[3]
        if have[:3] != want or not held:
            fail("typing", subjects, str(have[:3] + (held,)), str(want + (True,)))

    for (f, i, p), g in m.pre.items():
        t, have = info[f], info[g]
        dom = t[1][:i - 1] + (span[p][0],) + t[1][i:]
        # the last part: the codomain again in a plain type, the flavours in a skew one
        if have[1] != dom or have[0] != t[0] or have[2] != t[2] or have[-1] != t[-1]:
            mismatch(("pre", f, str(i), p), have, (t[0], dom, t[2]), t)
    for (q, f), g in m.post.items():
        t, have = info[f], info[g]
        cod = span[q][1]
        if have[2] != cod or have[1] != t[1] or have[0] != t[0] or have[3:] != t[3:]:
            mismatch(("post", q, f), have, (t[0], t[1], cod), t)
    for (g, i, f), h in m.sub.items():
        tg, tf, have = info[g], info[f], info[h]
        dom = tg[1][:i - 1] + tf[1] + tg[1][i:]
        if have[1] != dom or have[0] != tg[0] + tf[0] - 1 or have[2] != tg[2]:
            mismatch(("sub", g, str(i), f), have, (tg[0] + tf[0] - 1, dom, tg[2]), None)
    tally(report, {"typing": len(m.pre) + len(m.post) + len(m.sub)})


def identity_checks(maps: Iterable[tuple[int, str]], info: dict, base: FinCategory,
                    pre: dict, post: dict, report: ValidationReport) -> None:
    """Unit laws of the actions on each (arity, multimap) of `maps`."""
    ids, count = base.ids, 0
    for n, f in maps:
        dom, cod = info[f][1], info[f][2]
        lhs = post.get((ids[cod], f))
        if lhs != f:
            report.fail("identity", ("post", cod, f), lhs, f)
        for i in range(1, n + 1):
            lhs = pre.get((f, i, ids[dom[i - 1]]))
            if lhs != f:
                report.fail("identity", ("pre", f, str(i)), lhs, f)
        count += n + 1
    tally(report, {"identity": count})


def profunctor_checks(maps: Iterable[tuple[int, str]], info: dict, base: FinCategory,
                      pre: dict, post: dict, report: ValidationReport) -> None:
    """Functoriality and commutation of the pre/post actions on `maps`."""
    span, comp, (_, into, out_of) = base._span, base.comp, base._adjacency
    pget, qget, fail = pre.get, post.get, report.fail
    count = 0
    for n, f in maps:
        dom, cod = info[f][1], info[f][2]
        posts = [(q, qget((q, f))) for q in out_of.get(cod, ())]
        for q, qf in posts:
            for q2 in out_of.get(span[q][1], ()):
                lhs, rhs = qget((q2, qf)), qget((comp[(q2, q)], f))
                if lhs != rhs or lhs is None:
                    fail("profunctor", ("post-post", q2, q, f), lhs, rhs)
                count += 1
        for i in range(1, n + 1):
            for p in into.get(dom[i - 1], ()):
                fp = pget((f, i, p))
                for p2 in into.get(span[p][0], ()):
                    lhs, rhs = pget((fp, i, p2)), pget((f, i, comp[(p, p2)]))
                    if lhs != rhs or lhs is None:
                        fail("profunctor", ("pre-pre", f, str(i), p, p2), lhs, rhs)
                    count += 1
            # pre-post takes only the last p of the slot: the law's loop over
            # q sits beside the loop over p, not in it, and reports pin that.
            for q, qf in posts:
                lhs, rhs = qget((q, fp)), pget((qf, i, p))
                if lhs != rhs or lhs is None:
                    fail("profunctor", ("pre-post", q, f, str(i), p), lhs, rhs)
                count += 1
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for p in into.get(dom[i - 1], ()):
                fp = pget((f, i, p))
                for p2 in into.get(dom[j - 1], ()):
                    lhs, rhs = pget((fp, j, p2)), pget((pget((f, j, p2)), i, p))
                    if lhs != rhs or lhs is None:
                        fail("profunctor", ("pre-commute", f, str(i), p, str(j), p2), lhs, rhs)
                    count += 1
    tally(report, {"profunctor": count})


def naturality_checks(cases: Iterable[tuple], info: dict, base: FinCategory,
                      pre: dict, post: dict, sub: dict, report: ValidationReport) -> None:
    """Naturality of each stored substitution in every variable, and
    dinaturality in the substituted one. A case is (subject prefix, outer
    arity n, inner arity k, its composable (g, i, f), its outer maps, and a
    dict from an object to the inner maps of arity k into it)."""
    span, (_, into, out_of) = base._span, base._adjacency
    pget, qget, sget, fail = pre.get, post.get, sub.get, report.fail
    na = nb = nc = dinat = 0
    # Each map's pre row, per slot t the (p, x o_t p), and each outer map's
    # post column, the (q, q o g), read once per call for all their keys.
    rows: dict[str, list] = {}
    cols: dict[str, list] = {}
    for tag, n, k, pairs, outers, inner in cases:
        for x in itertools.chain(outers, *inner.values()):
            if x not in rows:
                rows[x] = [[(p, pget((x, t, p))) for p in into.get(a, ())]
                           for t, a in enumerate(info[x][1], 1)]
        for g in outers:
            if g not in cols:
                cols[g] = [(q, qget((q, g))) for q in out_of.get(info[g][2], ())]
        for g, i, f in pairs:
            gif = sget((g, i, f))
            # naturality in the inner domain objects
            for t, slot in enumerate(rows[f], i):
                for p, fp in slot:
                    lhs, rhs = sget((g, i, fp)), pget((gif, t, p))
                    if lhs != rhs or lhs is None:
                        fail("nat-in-a", tag + (g, str(i), f, str(t - i + 1), p), lhs, rhs)
                    na += 1
            # naturality in the outer, non-substituted domain objects
            for j, slot in enumerate(rows[g], 1):
                if j == i:
                    continue
                pos = j if j < i else j + k - 1
                for p, gp in slot:
                    lhs, rhs = sget((gp, i, f)), pget((gif, pos, p))
                    if lhs != rhs or lhs is None:
                        fail("nat-in-b", tag + (g, str(i), f, str(j), p), lhs, rhs)
                    nb += 1
            # naturality in the codomain
            for q, qg in cols[g]:
                lhs, rhs = qget((q, gif)), sget((qg, i, f))
                if lhs != rhs or lhs is None:
                    fail("nat-in-c", tag + (q, g, str(i), f), lhs, rhs)
                nc += 1
        # dinaturality in the substituted variable: for w : x -> e,
        # (g' o_i w) o_i f  =  g' o_i (w o f)  with g' having e at slot i.
        for gp in outers:
            for i, slot in enumerate(rows[gp], 1):
                for w, gw in slot:
                    for f in inner.get(span[w][0], ()):
                        lhs, rhs = sget((gw, i, f)), sget((gp, i, qget((w, f))))
                        if lhs != rhs or lhs is None:
                            fail("dinat-in-b", tag + (gp, str(i), w, f), lhs, rhs)
                        dinat += 1
    tally(report, {"nat-in-a": na, "nat-in-b": nb, "nat-in-c": nc, "dinat-in-b": dinat})


def assoc_checks(binaries: Iterable[str], info: dict, maps_into: Callable[[int, str], Iterable[str]],
                 sub: dict, report: ValidationReport) -> None:
    """Associativity family: f o_i (g o_j h) = (f o_i g) o_{j+i-1} h, and the
    interchange family: (f o_1 g) o_{n+1} h = (f o_2 h) o_1 g, in the cases
    (a) through (d); f ranges over `binaries`, and maps_into(arity, object)
    gives the g and h that may go into a slot."""
    sget, fail = sub.get, report.fail

    def line(case: str, gn: int, hn: int) -> None:
        family, count = f"assoc-line-{case}", 0
        for f in binaries:
            fdom = info[f][1]
            for i in (1, 2):
                for g in maps_into(gn, fdom[i - 1]):
                    gdom = info[g][1]
                    fig = sget((f, i, g))
                    for j in range(1, gn + 1):
                        for h in maps_into(hn, gdom[j - 1]):
                            lhs, rhs = sget((f, i, sget((g, j, h)))), sget((fig, j + i - 1, h))
                            if lhs != rhs or lhs is None:
                                fail(family, (f, str(i), g, str(j), h), lhs, rhs)
                            count += 1
        tally(report, {family: count})

    def notline(case: str, gn: int, hn: int) -> None:
        family, count = f"assoc-notline-{case}", 0
        for f in binaries:
            fdom = info[f][1]
            for g in maps_into(gn, fdom[0]):
                f1g = sget((f, 1, g))
                for h in maps_into(hn, fdom[1]):
                    lhs, rhs = sget((f1g, gn + 1, h)), sget((sget((f, 2, h)), 1, g))
                    if lhs != rhs or lhs is None:
                        fail(family, (f, g, h), lhs, rhs)
                    count += 1
        tally(report, {family: count})

    line("a", 2, 2)
    line("b", 2, 0)
    notline("a", 2, 2)
    notline("b", 2, 0)
    notline("c", 0, 2)
    notline("d", 0, 0)


def validate_short_multicategory(m: ShortMulticategory) -> ValidationReport:
    """Validate every axiom instance."""
    m.check_structure()
    base, info = m.base, m._index
    pre, post, sub = m.lookups
    report = ValidationReport(m.name)
    typing_checks(m, report)
    identity_checks(m.table_maps, info, base, pre, post, report)
    profunctor_checks(m.table_maps, info, base, pre, post, report)
    naturality_checks(m.domains[2], info, base, pre, post, sub, report)
    assoc_checks(m.multimaps(2), info, m.maps_into, sub, report)
    report.merge_prefixed(validate_category(m.base), "base-")
    return report.finish()


# --------------------------------------------------------------------------
# morphisms of short multicategories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiMorphism:
    """A morphism of short multicategories: a functor on bases plus natural
    families for arities 0, 2, 3, 4 (arity 1 is the functor action)."""
    name: str
    source: ShortMulticategory
    target: ShortMulticategory
    functor: FinFunctor
    maps: dict[int, dict[str, str]]   # arities 0, 2, 3, 4

    def safe_apply(self, f: Optional[str]) -> Optional[str]:
        if f is None or f not in self.source._index:
            return None
        n = self.source.arity(f)
        if n == 1:
            return self.functor.mor_map.get(f)
        return self.maps.get(n, {}).get(f)


def validate_multi_morphism(F: MultiMorphism) -> ValidationReport:
    """Validate that each image table is keyed by exactly its source maps,
    typing, naturality in every variable and commutation with substitution."""
    src, tgt, fun = F.source, F.target, F.functor
    base_report = validate_functor(fun)
    typing = []
    for n in (0, 2, 3, 4):
        table = F.maps.get(n, {})
        for f in src.multimaps(n):
            img = table.get(f)
            if img is None:
                raise MalformedTable(f"{F.name}: no image for arity-{n} multimap {f}")
            typing.append((f, img))
    check_members(F.name, [
        (f"m{n}", table, 1, (src.multimaps(n), f"a source multimap of arity {n}"),
         (tgt._index, "a multimap")) for n, table in F.maps.items()])
    report = ValidationReport(F.name)
    sidx, tidx, obj = src._index, tgt._index, fun.obj_map
    for f, img in typing:
        n, dom, cod = sidx[f]
        want = (n, tuple(obj[a] for a in dom), obj[cod])
        if tidx[img] != want:
            report.fail("morphism-typing", (f,), str(tidx[img]), str(want))
    tally(report, {"morphism-typing": len(typing)})
    morphism_law_checks(F, report)
    report.merge(base_report)
    return report.finish()


def morphism_law_checks(F, report: ValidationReport) -> dict:
    """The laws of a plain or skew morphism F: naturality in every variable,
    F(q o f) = F(q) o F(f) and F(f o_i p) = F(f) o_i F(p), and commutation
    with every stored substitution. They read the lookups of both ends and
    the image of each source id, which is returned for the skew j law."""
    src, fail = F.source, report.fail
    image = {f: F.safe_apply(f) for f in src._index}
    img = image.get
    (spre, spost, ssub), (tpre, tpost, tsub) = src.lookups, F.target.lookups
    pre_keys, post_keys, cases = src.domains
    for q, f in post_keys:
        lhs, rhs = img(spost.get((q, f))), tpost.get((image[q], image[f]))
        if lhs != rhs or lhs is None:
            fail("morphism-nat", ("post", q, f), lhs, rhs)
    for f, i, p in pre_keys:
        lhs, rhs = img(spre.get((f, i, p))), tpre.get((image[f], i, image[p]))
        if lhs != rhs or lhs is None:
            fail("morphism-nat", ("pre", f, str(i), p), lhs, rhs)
    subs = 0
    for case in cases:
        for g, i, f in case[3]:
            lhs, rhs = img(ssub.get((g, i, f))), tsub.get((image[g], i, image[f]))
            if lhs != rhs or lhs is None:
                fail("morphism-sub", (g, str(i), f), lhs, rhs)
        subs += len(case[3])
    tally(report, {"morphism-nat": len(pre_keys) + len(post_keys), "morphism-sub": subs})
    return image


def identity_multi_morphism(m: ShortMulticategory) -> MultiMorphism:
    from .fincat import identity_functor
    return MultiMorphism(
        f"id[{m.name}]", m, m, identity_functor(m.base),
        {n: {f: f for f in m.multimaps(n)} for n in (0, 2, 3, 4)})
