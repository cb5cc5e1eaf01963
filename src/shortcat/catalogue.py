"""Desk-scale fixture generators.

Positive entries: the terminal structures, commutative monoids as discrete
strict monoidal categories (Z/2, Z/3, Klein four) and their multimap-table
forms, the two skew tensors on the poset 2 = {0 <= 1}, the Heyting
structure (meet, implication) on the same poset, and the delooping BZ/2 of
the group Z/2 as a monoidal category. Negative entries are single-entry
mutants with an annotated expected failure.

Every thin entry is given as (base, tensor or hom, unit). On a thin base
each structure map is the unique morphism of its type, so
thin_skew_monoidal and thin_skew_closed derive them all. The short
structure of a thin skew monoidal category has a map dom -> cod exactly
when base.hom(lbr(dom), cod) is nonempty, so its multimap sets have at most
one element, and all actions and substitutions are forced and tabulated by
picking the unique inhabitant of the expected type.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cache, partial, reduce
from typing import Callable, Hashable, Iterator, Optional

from .errors import MalformedTable
from .fileformat import validate
from .fincat import FinCategory, FinFunctor
from .shortmulti import MultiMorphism, ShortMulticategory
from .shortskew import (
    LOOSE, TIGHT, ShortBraiding, ShortSkewMulticategory, build, embed_plain, map_id,
)
from .skewmon import Braiding, SkewClosedCategory, SkewMonCategory


# --------------------------------------------------------------------------
# base categories
# --------------------------------------------------------------------------

def discrete_base(name: str, objects: list[str]) -> FinCategory:
    return FinCategory(
        name=name,
        objects=tuple(objects),
        homs={(a, a): (f"1_{a}",) for a in objects},
        comp={(f"1_{a}", f"1_{a}"): f"1_{a}" for a in objects},
        ids={a: f"1_{a}" for a in objects},
    )


def poset2_base(name: str = "poset2") -> FinCategory:
    return FinCategory(
        name=name,
        objects=("0", "1"),
        homs={("0", "0"): ("1_0",), ("1", "1"): ("1_1",), ("0", "1"): ("le",)},
        comp={("1_0", "1_0"): "1_0", ("1_1", "1_1"): "1_1",
              ("le", "1_0"): "le", ("1_1", "le"): "le"},
        ids={"0": "1_0", "1": "1_1"},
    )


def terminal_category() -> FinCategory:
    return discrete_base("terminal", ["o"])


def bz2_category() -> SkewMonCategory:
    """The delooping of Z/2: one object, the group Z/2 as its hom-set, and the
    group product as the tensor of morphisms. Its hom-set has two parallel
    morphisms, where every other base here is discrete or thin."""
    base = FinCategory(
        name="z2group", objects=("o",),
        homs={("o", "o"): ("e", "g")},
        comp={("e", "e"): "e", ("e", "g"): "g",
              ("g", "e"): "g", ("g", "g"): "e"},
        ids={"o": "e"},
    )
    return SkewMonCategory(
        "bz2", base,
        tensor_obj={("o", "o"): "o"},
        tensor_mor={(f, g): base.compose(f, g)
                    for f in base.morphisms() for g in base.morphisms()},
        unit="o",
        alpha={("o", "o", "o"): "e"}, lam={"o": "e"}, rho={"o": "e"})


# --------------------------------------------------------------------------
# thin table structures
# --------------------------------------------------------------------------

def table_short_multi(name: str, base: FinCategory,
                      inhabited: Callable[[int, tuple[str, ...], str], bool]) -> ShortMulticategory:
    """Build a thin short multicategory from an inhabitation predicate.

    The predicate must agree with base homs at arity 1 and be closed under
    the substitution typings, or construction fails loudly. The structure is
    made once, keeping the map sets built here, and its pre, post and sub
    dicts are filled afterwards, as shortskew.build does.
    """
    objs = base.objects
    maps: dict[int, dict] = {n: {} for n in (0, 2, 3, 4)}
    for n in (0, 2, 3, 4):
        for dom in itertools.product(objs, repeat=n):
            for cod in objs:
                if inhabited(n, dom, cod):
                    maps[n][(dom, cod)] = (map_id("m", n, dom, cod),)

    def the(n: int, dom: tuple[str, ...], cod: str) -> str:
        if n == 1:
            fs = base.hom(dom[0], cod)
        else:
            fs = maps[n].get((dom, cod), ())
        if len(fs) != 1:
            raise MalformedTable(f"{name}: expected a unique multimap of type "
                                 f"{n}{dom};{cod}, found {len(fs)}")
        return fs[0]

    pre, post, sub = {}, {}, {}
    m = ShortMulticategory(name, base, maps, pre, post, sub)
    idx, span = m._index, base._span
    # not cached on m: a catalogue structure is mostly serialized, not checked
    pre_keys, post_keys, cases = ShortMulticategory.domains.func(m)
    for f, i, p in pre_keys:
        n, dom, cod = idx[f]
        pre[f, i, p] = the(n, dom[:i - 1] + (span[p][0],) + dom[i:], cod)
    for q, f in post_keys:
        n, dom, _ = idx[f]
        post[q, f] = the(n, dom, span[q][1])
    for case in cases:
        for g, i, f in case[3]:
            ng, gdom, gcod = idx[g]
            nf, fdom, _ = idx[f]
            sub[g, i, f] = the(ng + nf - 1, gdom[:i - 1] + fdom + gdom[i:], gcod)
    return m


def table_short_skew(name: str, base: FinCategory,
                     tight_inhabited: Callable[[int, tuple[str, ...], str], bool],
                     loose_inhabited: Callable[[int, tuple[str, ...], str], bool]
                     ) -> ShortSkewMulticategory:
    """Build a thin short skew multicategory from inhabitation predicates.

    Requires tight sets to map into loose ones (j must exist) and both
    predicates to be closed under the typed substitutions.
    """
    inhabited = {TIGHT: tight_inhabited, LOOSE: loose_inhabited}
    # inhabited type -> its one map; the entries reuse these id objects, so
    # a lookup in the finished tables matches on identity
    typed: dict[tuple, tuple[str, ...]] = {}

    def members(flavour: str, n: int, dom: tuple[str, ...]) -> Iterator[tuple[str, tuple[str]]]:
        for cod in base.objects:
            if inhabited[flavour](n, dom, cod):
                fs = typed[flavour, n, dom, cod] = (map_id(flavour, n, dom, cod),)
                yield cod, fs

    def the(table: str, key: Hashable, ty: tuple[str, int, tuple[str, ...], str]) -> Optional[str]:
        flavour, n, dom, cod = ty
        fs = base.hom(dom[0], cod) if (flavour, n) == (TIGHT, 1) else typed.get(ty, ())
        return fs[0] if len(fs) == 1 else None

    return build(name, base, members, the)


def _the_morphism(name: str, base: FinCategory, table: str, a: str, b: str) -> str:
    """The unique morphism a -> b of a thin base, as the entry of a structure
    map table; MalformedTable naming the structure and the pair if none."""
    fs = base.hom(a, b)
    if len(fs) != 1:
        raise MalformedTable(f"{name}: {table}: expected a unique morphism {a} -> {b}, "
                             f"found {len(fs)}")
    return fs[0]


def thin_skew_monoidal(name: str, base: FinCategory, tensor: Callable[[str, str], str],
                       unit: str) -> SkewMonCategory:
    """The skew monoidal category on a thin base with the given tensor of
    objects and unit: the tensor of morphisms, alpha, lambda and rho are
    each the unique morphism of their type."""
    objs, mors = base.objects, base.morphisms()
    the = partial(_the_morphism, name, base)
    return SkewMonCategory(
        name, base,
        tensor_obj={(a, b): tensor(a, b) for a in objs for b in objs},
        tensor_mor={(f, g): the("tensor_mor", tensor(base.dom(f), base.dom(g)),
                                tensor(base.cod(f), base.cod(g)))
                    for f in mors for g in mors},
        unit=unit,
        alpha={(a, b, c): the("alpha", tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
               for a, b, c in itertools.product(objs, repeat=3)},
        lam={a: the("lam", tensor(unit, a), a) for a in objs},
        rho={a: the("rho", a, tensor(a, unit)) for a in objs})


def thin_skew_closed(name: str, base: FinCategory, hom: Callable[[str, str], str],
                     unit: str) -> SkewClosedCategory:
    """The skew closed category on a thin base with the given internal hom of
    objects and unit: the hom of morphisms, I, J and L are each the unique
    morphism of their type."""
    objs, mors = base.objects, base.morphisms()
    the = partial(_the_morphism, name, base)
    return SkewClosedCategory(
        name, base,
        hom_obj={(a, b): hom(a, b) for a in objs for b in objs},
        # f: b -> b' and g: c -> c' give [b', c] -> [b, c']
        hom_mor={(f, g): the("hom_mor", hom(base.cod(f), base.dom(g)),
                             hom(base.dom(f), base.cod(g)))
                 for f in mors for g in mors},
        unit=unit,
        iu={a: the("iu", hom(unit, a), a) for a in objs},
        ju={a: the("ju", unit, hom(a, a)) for a in objs},
        ell={(a, b, c): the("ell", hom(b, c), hom(hom(a, b), hom(a, c)))
             for a, b, c in itertools.product(objs, repeat=3)})


def thin_inhabited(sm: SkewMonCategory, loose: bool = False
                   ) -> Callable[[int, tuple[str, ...], str], bool]:
    """The multimap predicate of a thin skew monoidal category: dom -> cod is
    inhabited when base.hom(lbr(dom), cod) is nonempty, where lbr brackets
    to the left, with the unit in front of a loose or an empty domain; each
    domain is bracketed once."""
    @cache
    def lbr(dom: tuple[str, ...]) -> str:
        xs = (sm.unit,) + dom if loose or not dom else dom
        return reduce(sm.t, xs[1:], xs[0])
    return lambda n, dom, cod: bool(sm.base.hom(lbr(dom), cod))


def thin_short_multi(name: str, sm: SkewMonCategory) -> ShortMulticategory:
    """The short multicategory of a thin skew monoidal category."""
    return table_short_multi(name, sm.base, thin_inhabited(sm))


def _thin_short_skew(name: str, sm: SkewMonCategory) -> ShortSkewMulticategory:
    """The short skew multicategory of a thin skew monoidal category."""
    return table_short_skew(name, sm.base, thin_inhabited(sm), thin_inhabited(sm, loose=True))


# --------------------------------------------------------------------------
# commutative monoids: Z/2, Z/3, Klein four
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Monoid:
    name: str
    elements: tuple[str, ...]
    unit: str
    table: dict[tuple[str, str], str]

    def op(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def fold(self, xs: tuple[str, ...]) -> str:
        return reduce(self.op, xs, self.unit)


def z2_monoid() -> Monoid:
    t = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    return Monoid("z2", ("0", "1"), "0", t)


def z3_monoid() -> Monoid:
    els = ("0", "1", "2")
    t = {(a, b): str((int(a) + int(b)) % 3) for a in els for b in els}
    return Monoid("z3", els, "0", t)


def klein_monoid() -> Monoid:
    els = ("00", "01", "10", "11")
    def add(a, b):
        return str(int(a[0]) ^ int(b[0])) + str(int(a[1]) ^ int(b[1]))
    return Monoid("klein", els, "00", {(a, b): add(a, b) for a in els for b in els})


def monoid_skew_monoidal(mon: Monoid) -> SkewMonCategory:
    """The strict monoidal category of a commutative monoid on a discrete base."""
    return thin_skew_monoidal(mon.name + ".mon", discrete_base(mon.name, list(mon.elements)),
                              mon.op, mon.unit)


def monoid_symmetry(mon: Monoid) -> Braiding:
    """Identity braiding: commutativity makes (xa)b and (xb)a the same object."""
    objs = mon.elements
    s = {(x, a, b): f"1_{mon.fold((x, a, b))}"
         for x in objs for a in objs for b in objs}
    return Braiding(mon.name + ".sym", dict(s), dict(s))


# --------------------------------------------------------------------------
# poset-2 structures
# --------------------------------------------------------------------------
# The objects "0" < "1" compare as strings the way they do in the poset, so
# min is the meet and b <= c decides the implication.

def poset2_skew_second() -> SkewMonCategory:
    """a (x) b := b with unit 1; left normal, rho not invertible."""
    return thin_skew_monoidal("poset2-second", poset2_base("poset2-second"),
                              lambda a, b: b, "1")


def poset2_skew_first() -> SkewMonCategory:
    """a (x) b := a with unit 0; rho invertible, lambda not."""
    return thin_skew_monoidal("poset2-first", poset2_base("poset2-first"),
                              lambda a, b: a, "0")


def heyting2_skew_monoidal() -> SkewMonCategory:
    """Meet-semilattice structure on poset 2: monoidal and closed."""
    return thin_skew_monoidal("heyting2", poset2_base("heyting2"), min, "1")


def heyting2_short_multi() -> ShortMulticategory:
    return thin_short_multi("heyting2", heyting2_skew_monoidal())


def poset2_second_short_multi() -> ShortMulticategory:
    """Multimap tables of the (x) := second-argument tensor: inhabited when
    the last input is below the output (empty tuples need the unit 1)."""
    return thin_short_multi("poset2-second", poset2_skew_second())


def poset2_first_short_skew() -> ShortSkewMulticategory:
    """Tight tables of the (x) := first-argument tensor with unit 0: tight
    inhabited when the first input is below the output, loose always."""
    return _thin_short_skew("poset2-first", poset2_skew_first())


def heyting2_skew_closed() -> SkewClosedCategory:
    return thin_skew_closed("heyting2.cl", poset2_base("heyting2"),
                            lambda b, c: "1" if b <= c else "0", "1")


def terminal_short_multi() -> ShortMulticategory:
    return thin_short_multi("terminal", terminal_skew_monoidal())


def terminal_skew_monoidal() -> SkewMonCategory:
    return thin_skew_monoidal("terminal.mon", terminal_category(), lambda a, b: "o", "o")


def terminal_skew_closed() -> SkewClosedCategory:
    return thin_skew_closed("terminal.cl", terminal_category(), lambda a, b: "o", "o")


# --------------------------------------------------------------------------
# catalogue morphisms
# --------------------------------------------------------------------------

def _thin_morphism(name: str, src: ShortMulticategory, tgt: ShortMulticategory,
                   obj_map: dict[str, str]) -> MultiMorphism:
    """The morphism determined by an object map, between structures whose
    image hom-sets and multimap sets are singletons: thin ones under a
    monotone map, or discrete monoid ones under a monoid homomorphism."""
    mor_map = {}
    for f in src.base.morphisms():
        a, b = src.base.span(f)
        (img,) = tgt.base.hom(obj_map[a], obj_map[b])
        mor_map[f] = img
    fun = FinFunctor(name + ".base", src.base, tgt.base, obj_map, mor_map)
    maps: dict[int, dict[str, str]] = {}
    for n in (0, 2, 3, 4):
        maps[n] = {}
        for f in src.multimaps(n):
            _, dom, cod = src.info(f)
            (img,) = tgt.mapset(n, tuple(obj_map[a] for a in dom), obj_map[cod])
            maps[n][f] = img
    return MultiMorphism(name, src, tgt, fun, maps)


def catalogue_short_multis() -> dict[str, ShortMulticategory]:
    return _short_multis(catalogue_skew_monoidals())


def _short_multis(mons: dict[str, SkewMonCategory]) -> dict[str, ShortMulticategory]:
    """The catalogue short multicategories, of the catalogue skew monoidal
    categories mons."""
    return {name: thin_short_multi(name, mons[key])
            for name, key in (("terminal", "terminal.mon"), ("z2", "z2.mon"), ("z3", "z3.mon"),
                              ("klein", "klein.mon"), ("heyting2", "heyting2.mon"),
                              ("poset2-second", "poset2-second"))}


def catalogue_short_skews() -> dict[str, ShortSkewMulticategory]:
    mons = catalogue_skew_monoidals()
    out = {name + ".skew": embed_plain(m) for name, m in _short_multis(mons).items()}
    out["poset2-first"] = _thin_short_skew("poset2-first", mons["poset2-first"])
    return out


def catalogue_skew_monoidals() -> dict[str, SkewMonCategory]:
    return {
        "terminal.mon": terminal_skew_monoidal(),
        "z2.mon": monoid_skew_monoidal(z2_monoid()),
        "z3.mon": monoid_skew_monoidal(z3_monoid()),
        "klein.mon": monoid_skew_monoidal(klein_monoid()),
        "heyting2.mon": heyting2_skew_monoidal(),
        "poset2-second": poset2_skew_second(),
        "poset2-first": poset2_skew_first(),
    }


def catalogue_braidings(mons: dict[str, SkewMonCategory]
                        ) -> dict[str, tuple[SkewMonCategory, Braiding]]:
    """The catalogue braidings, on mons = catalogue_skew_monoidals()."""
    return {
        "z2.sym": (mons["z2.mon"], monoid_symmetry(z2_monoid())),
        "klein.sym": (mons["klein.mon"], monoid_symmetry(klein_monoid())),
        "terminal.sym": (mons["terminal.mon"],
                         Braiding("terminal.sym", {("o", "o", "o"): "1_o"},
                                  {("o", "o", "o"): "1_o"})),
    }


def forced_short_braiding(m: ShortSkewMulticategory, name: str):
    """The unique swap families on a thin structure whose tight sets are
    invariant under permuting inputs (commutative-monoid style tables)."""
    def swap_table(arity: int, slot: int) -> dict[str, str]:
        out = {}
        for f in m.multimaps(TIGHT, arity):
            _, dom, cod, _ = m.info(f)
            newdom = list(dom)
            newdom[slot - 1], newdom[slot] = newdom[slot], newdom[slot - 1]
            fs = m.mapset(TIGHT, arity, tuple(newdom), cod)
            if len(fs) != 1:
                raise MalformedTable(f"{name}: no unique swapped map for {f}")
            out[f] = fs[0]
        return out

    return ShortBraiding(name, swap_table(3, 2), swap_table(4, 2), swap_table(4, 3))


def catalogue_short_braidings():
    """Braided catalogue entries: (structure, short braiding) pairs."""
    out, ms = {}, catalogue_short_multis()
    for key in ("z2", "klein", "terminal"):
        sk = embed_plain(ms[key])
        out[key + ".beta"] = (sk, forced_short_braiding(sk, key + ".beta"))
    return out


def catalogue_skew_closed() -> dict[str, SkewClosedCategory]:
    return {
        "terminal.cl": terminal_skew_closed(),
        "heyting2.cl": heyting2_skew_closed(),
    }


# --------------------------------------------------------------------------
# mutants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Mutant:
    """A single-entry edit of a passing structure, annotated with one axiom
    instance its validation must report."""
    name: str
    kind: str            # category | short-multi | short-skew | skew-monoidal
                         # | braiding | skew-closed
    payload: object
    family: str
    subjects: tuple[str, ...]


def _redirect(pool, current: str) -> str:
    alts = [x for x in sorted(pool) if x != current]
    if not alts:
        raise MalformedTable("no alternative value to redirect to")
    return alts[0]


def mutate_entry(structure, table_name: str, key, new_value: str):
    """Replace one table entry, returning a new structure."""
    table = dict(getattr(structure, table_name))
    if key not in table:
        raise MalformedTable(f"no entry {key} in {table_name}")
    table[key] = new_value
    return dataclasses.replace(structure, **{table_name: table})


def _bulk_table_mutants(name: str, kind: str, m, tables: list[str],
                        per_table: int, subject_of) -> list[Mutant]:
    """Redirect the first few entries of each table to a same-arity map of a
    different type; annotated at the typing instance of the edited key."""
    def pool_of(current: str) -> list[str]:
        if isinstance(m, ShortSkewMulticategory):
            n, _, _, fl = m.info(current)
            return [x for x in sorted(m._index)
                    if x != current and m.info(x)[0] == n and fl <= m.info(x)[3]]
        return [x for x in m.multimaps(m.arity(current)) if x != current]

    out = []
    for tname in tables:
        table = getattr(m, tname)
        taken = 0
        for key in sorted(table):
            if taken == per_table:
                break
            current = table[key]
            pool = pool_of(current)
            if not pool:
                continue
            mutated = mutate_entry(m, tname, key, pool[0])
            subjects = subject_of(tname, key)
            out.append(Mutant(f"{name}.{tname}[{'|'.join(map(str, key))}]",
                              kind, mutated, "typing", subjects))
            taken += 1
    return out


def _multi_subject(tname: str, key) -> tuple[str, ...]:
    if tname == "sub":
        return ("sub", key[0], str(key[1]), key[2])
    if tname == "pre":
        return ("pre", key[0], str(key[1]), key[2])
    return ("post", key[0], key[1])


def catalogue_mutants() -> list[Mutant]:
    """The kill suite: every mutant must fail validation at its annotated
    instance, and nothing else in the catalogue may fail."""
    out: list[Mutant] = []

    # category: redirect one composition entry
    c = poset2_base()
    comp = dict(c.comp)
    comp[("1_1", "le")] = "1_0"
    out.append(Mutant("poset2.comp[1_1|le]", "category",
                      FinCategory(c.name, c.objects, c.homs, comp, c.ids),
                      "identity", ("1_1", "le")))

    mons = catalogue_skew_monoidals()
    ms = _short_multis(mons)
    per = {"z2": 2, "z3": 2, "klein": 2, "heyting2": 2, "poset2-second": 2}
    for mname, k in per.items():
        out.extend(_bulk_table_mutants(mname, "short-multi", ms[mname],
                                       ["sub", "pre", "post"], k, _multi_subject))

    # the interchange witness: binary-into-binary redirected in Z/2
    z2 = ms["z2"]
    mutated = mutate_entry(z2, "sub", ("m2(1,1;0)", 1, "m2(1,0;1)"), "m3(0,0,0;0)")
    out.append(Mutant("z2.interchange", "short-multi", mutated,
                      "assoc-notline-a", ("m2(1,1;0)", "m2(1,0;1)", "m2(0,1;1)")))

    sk = _thin_short_skew("poset2-first", mons["poset2-first"])
    out.extend(_bulk_table_mutants("poset2-first", "short-skew", sk,
                                   ["sub", "pre", "post"], 2, _multi_subject))
    mutated = mutate_entry(sk, "sub", ("l1(0;1)", 1, "l0(;0)"), "l0(;0)")
    out.append(Mutant("poset2-first.j-unit", "short-skew", mutated,
                      "j-nat", ("into-nullary", "le", "l0(;0)")))

    z2sk = embed_plain(ms["z2"])
    out.extend(_bulk_table_mutants("z2.skew", "short-skew", z2sk,
                                   ["sub", "pre", "post"], 1, _multi_subject))

    for mname in ("z2.mon", "klein.mon", "heyting2.mon", "poset2-second", "poset2-first"):
        mon = mons[mname]
        akey = sorted(mon.alpha)[0]
        out.append(Mutant(
            f"{mname}.alpha", "skew-monoidal",
            mutate_entry(mon, "alpha", akey,
                         _redirect(mon.base.morphisms(), mon.alpha[akey])),
            "alpha-typing", akey))
        lkey = sorted(mon.lam)[0]
        out.append(Mutant(
            f"{mname}.lambda", "skew-monoidal",
            mutate_entry(mon, "lam", lkey,
                         _redirect(mon.base.morphisms(), mon.lam[lkey])),
            "lambda-typing", (lkey,)))
        rkey = sorted(mon.rho)[-1]
        out.append(Mutant(
            f"{mname}.rho", "skew-monoidal",
            mutate_entry(mon, "rho", rkey,
                         _redirect(mon.base.morphisms(), mon.rho[rkey])),
            "rho-typing", (rkey,)))
    tmon = mons["z2.mon"]
    tkey = sorted(tmon.tensor_mor)[0]
    out.append(Mutant(
        "z2.mon.tensormor", "skew-monoidal",
        mutate_entry(tmon, "tensor_mor", tkey,
                     _redirect(tmon.base.morphisms(), tmon.tensor_mor[tkey])),
        "tensor-typing", tkey))

    braidings = catalogue_braidings(mons)
    for bname in ("z2.sym", "klein.sym"):
        mon, braid = braidings[bname]
        skey = sorted(braid.s)[1]
        s = dict(braid.s)
        s[skey] = _redirect(mon.base.morphisms(), s[skey])
        out.append(Mutant(f"{bname}.s", "braiding", (mon, Braiding(braid.name, s, dict(braid.s_inv))),
                          "s-typing", skey))
    mon, braid = braidings["klein.sym"]
    s = dict(braid.s)
    s[("01", "10", "00")] = "1_00"
    out.append(Mutant("klein.sym.alpha-compat", "braiding",
                      (mon, Braiding(braid.name, s, dict(braid.s_inv))),
                      "braid-alpha-right", ("01", "10", "00", "00")))

    cl = heyting2_skew_closed()
    out.append(Mutant("heyting2.cl.L", "skew-closed",
                      mutate_entry(cl, "ell", ("0", "1", "1"), "le"),
                      "J-L-triangle", ("0", "1")))
    out.append(Mutant("heyting2.cl.I", "skew-closed",
                      mutate_entry(cl, "iu", "1", "le"),
                      "I-typing", ("1",)))
    out.append(Mutant("heyting2.cl.J", "skew-closed",
                      mutate_entry(cl, "ju", "0", "le"),
                      "J-typing", ("0",)))
    hkey = ("1_1", "le")
    out.append(Mutant("heyting2.cl.hommor", "skew-closed",
                      mutate_entry(cl, "hom_mor", hkey, "1_1"),
                      "hom-typing", hkey))
    return out


def validate_mutant(mut: Mutant):
    """Run the validators of the mutant's kind on it: a braiding mutant's
    own families are merged into the report without a prefix."""
    report, swap = validate(mut.kind, mut.payload)
    if swap is not None:
        report.merge(swap)
    return report.finish()


def catalogue_morphisms() -> dict[str, MultiMorphism]:
    """At least ten short-multicategory morphisms between catalogue entries."""
    from .shortmulti import identity_multi_morphism
    ms = catalogue_short_multis()
    out: dict[str, MultiMorphism] = {}
    for name, m in ms.items():
        out[f"id[{name}]"] = identity_multi_morphism(m)
    for name, src, tgt, h in (("z2-into-klein", "z2", "klein", lambda a: a + "0"),
                              ("klein-onto-z2", "klein", "z2", lambda a: a[0]),
                              ("z3-negate", "z3", "z3", lambda a: str((-int(a)) % 3)),
                              ("klein-swap", "klein", "klein", lambda a: a[::-1])):
        out[name] = _thin_morphism(name, ms[src], ms[tgt],
                                   {a: h(a) for a in ms[src].base.objects})
    out["z2-collapse"] = _thin_morphism(
        "z2-collapse", ms["z2"], ms["terminal"], {"0": "o", "1": "o"})
    out["heyting2-collapse"] = _thin_morphism(
        "heyting2-collapse", ms["heyting2"], ms["terminal"], {"0": "o", "1": "o"})
    return out
