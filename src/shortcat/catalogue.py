"""Desk-scale fixture generators.

Positive entries: the terminal structures, commutative monoids as discrete
strict monoidal categories (Z/2, Z/3, Klein four) and their multimap-table
forms, the two skew tensors on the poset 2 = {0 <= 1}, the Heyting
structure (meet, implication) on the same poset, and the delooping BZ/2 of
the group Z/2 as a monoidal category. Negative entries are single-entry
mutants with an annotated expected failure.

Every table-backed structure here is thin: each multimap set has at most
one element, so all actions and substitutions are forced and tabulated by
picking the unique inhabitant of the expected type.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Hashable, Optional

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


def z2_group_category(suffix: str = "") -> FinCategory:
    """Z/2 as a one-object category."""
    e, g = f"e{suffix}", f"g{suffix}"
    return FinCategory(
        name=f"z2group{suffix}", objects=("o",),
        homs={("o", "o"): (e, g)},
        comp={(e, e): e, (e, g): g, (g, e): g, (g, g): e},
        ids={"o": e},
    )


def bz2_category() -> SkewMonCategory:
    """The delooping of Z/2: one object, the group Z/2 as its hom-set, and the
    group product as the tensor of morphisms. Its hom-set has two parallel
    morphisms, where every other base here is discrete or thin."""
    base = z2_group_category()
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
    the substitution typings, or construction fails loudly.
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

    skeleton = ShortMulticategory(name, base, maps, {}, {}, {})
    pre_keys, post_keys, cases = skeleton.domains
    pre = {}
    for (f, i, p) in pre_keys:
        n, dom, cod = skeleton.info(f)
        pre[(f, i, p)] = the(n, dom[:i - 1] + (base.dom(p),) + dom[i:], cod)
    post = {}
    for (q, f) in post_keys:
        n, dom, _ = skeleton.info(f)
        post[(q, f)] = the(n, dom, base.cod(q))
    sub = {}
    for case in cases:
        for (g, i, f) in case[3]:
            ng, gdom, gcod = skeleton.info(g)
            nf, fdom, _ = skeleton.info(f)
            sub[(g, i, f)] = the(ng + nf - 1, gdom[:i - 1] + fdom + gdom[i:], gcod)
    return ShortMulticategory(name, base, maps, pre, post, sub)


def table_short_skew(name: str, base: FinCategory,
                     tight_inhabited: Callable[[int, tuple[str, ...], str], bool],
                     loose_inhabited: Callable[[int, tuple[str, ...], str], bool]
                     ) -> ShortSkewMulticategory:
    """Build a thin short skew multicategory from inhabitation predicates.

    Requires tight sets to map into loose ones (j must exist) and both
    predicates to be closed under the typed substitutions.
    """
    inhabited = {TIGHT: tight_inhabited, LOOSE: loose_inhabited}
    # type -> its maps; the entries reuse these id objects, so a lookup in
    # the finished tables matches on identity
    typed: dict[tuple, tuple[str, ...]] = {}

    def members(flavour: str, n: int, dom: tuple[str, ...], cod: str) -> tuple[str, ...]:
        fs = (map_id(flavour, n, dom, cod),) if inhabited[flavour](n, dom, cod) else ()
        typed[flavour, n, dom, cod] = fs
        return fs

    def the(table: str, key: Hashable, ty: tuple[str, int, tuple[str, ...], str]) -> Optional[str]:
        flavour, n, dom, cod = ty
        fs = base.hom(dom[0], cod) if (flavour, n) == (TIGHT, 1) else typed[ty]
        return fs[0] if len(fs) == 1 else None

    return build(name, base, members, the)


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


def monoid_short_multi(mon: Monoid) -> ShortMulticategory:
    base = discrete_base(mon.name, list(mon.elements))
    return table_short_multi(
        mon.name, base,
        lambda n, dom, cod: mon.fold(dom) == cod)


def monoid_skew_monoidal(mon: Monoid) -> SkewMonCategory:
    """The strict monoidal category of a commutative monoid on a discrete base."""
    base = discrete_base(mon.name, list(mon.elements))
    objs = base.objects
    tensor_obj = {(a, b): mon.op(a, b) for a in objs for b in objs}
    tensor_mor = {(f"1_{a}", f"1_{b}"): f"1_{mon.op(a, b)}" for a in objs for b in objs}
    alpha = {(a, b, c): f"1_{mon.fold((a, b, c))}" for a in objs for b in objs for c in objs}
    lam = {a: f"1_{a}" for a in objs}
    rho = {a: f"1_{a}" for a in objs}
    return SkewMonCategory(mon.name + ".mon", base, tensor_obj, tensor_mor,
                           mon.unit, alpha, lam, rho)


def monoid_symmetry(mon: Monoid) -> Braiding:
    """Identity braiding: commutativity makes (xa)b and (xb)a the same object."""
    objs = mon.elements
    s = {(x, a, b): f"1_{mon.fold((x, a, b))}"
         for x in objs for a in objs for b in objs}
    return Braiding(mon.name + ".sym", dict(s), dict(s))


# --------------------------------------------------------------------------
# poset-2 structures
# --------------------------------------------------------------------------

def _leq(a: str, b: str) -> bool:
    return not (a == "1" and b == "0")


def _p2(a: str, b: str) -> str:
    """The unique poset-2 morphism a -> b (requires a <= b)."""
    if a == b:
        return f"1_{a}"
    if a == "0" and b == "1":
        return "le"
    raise MalformedTable(f"no poset-2 morphism {a} -> {b}")


def poset2_skew_second() -> SkewMonCategory:
    """a (x) b := b with unit 1; left normal, rho not invertible."""
    base = poset2_base("poset2-second")
    objs = base.objects
    return SkewMonCategory(
        "poset2-second", base,
        tensor_obj={(a, b): b for a in objs for b in objs},
        tensor_mor={(f, g): g for f in base.morphisms() for g in base.morphisms()},
        unit="1",
        alpha={(a, b, c): f"1_{c}" for a in objs for b in objs for c in objs},
        lam={a: f"1_{a}" for a in objs},
        rho={a: _p2(a, "1") for a in objs},
    )


def poset2_skew_first() -> SkewMonCategory:
    """a (x) b := a with unit 0; rho invertible, lambda not."""
    base = poset2_base("poset2-first")
    objs = base.objects
    return SkewMonCategory(
        "poset2-first", base,
        tensor_obj={(a, b): a for a in objs for b in objs},
        tensor_mor={(f, g): f for f in base.morphisms() for g in base.morphisms()},
        unit="0",
        alpha={(a, b, c): f"1_{a}" for a in objs for b in objs for c in objs},
        lam={a: _p2("0", a) for a in objs},
        rho={a: f"1_{a}" for a in objs},
    )


def _meet(xs: tuple[str, ...]) -> str:
    return "0" if "0" in xs else "1"


def heyting2_skew_monoidal() -> SkewMonCategory:
    """Meet-semilattice structure on poset 2: monoidal and closed."""
    base = poset2_base("heyting2")
    objs = base.objects

    def tmor(f, g):
        (a, a2), (b, b2) = base.span(f), base.span(g)
        return _p2(_meet((a, b)), _meet((a2, b2)))

    return SkewMonCategory(
        "heyting2", base,
        tensor_obj={(a, b): _meet((a, b)) for a in objs for b in objs},
        tensor_mor={(f, g): tmor(f, g) for f in base.morphisms() for g in base.morphisms()},
        unit="1",
        alpha={(a, b, c): f"1_{_meet((a, b, c))}" for a in objs for b in objs for c in objs},
        lam={a: f"1_{a}" for a in objs},
        rho={a: f"1_{a}" for a in objs},
    )


def _imp(b: str, c: str) -> str:
    return "1" if _leq(b, c) else "0"


def heyting2_short_multi() -> ShortMulticategory:
    base = poset2_base("heyting2")
    return table_short_multi(
        "heyting2", base,
        lambda n, dom, cod: _leq(_meet(dom), cod))


def poset2_second_short_multi() -> ShortMulticategory:
    """Multimap tables of the (x) := second-argument tensor: inhabited when
    the last input is below the output (empty tuples need the unit 1)."""
    base = poset2_base("poset2-second")
    return table_short_multi(
        "poset2-second", base,
        lambda n, dom, cod: _leq(dom[-1] if dom else "1", cod))


def poset2_first_short_skew() -> ShortSkewMulticategory:
    """Tight tables of the (x) := first-argument tensor with unit 0: tight
    inhabited when the first input is below the output, loose always."""
    base = poset2_base("poset2-first")
    return table_short_skew(
        "poset2-first", base,
        lambda n, dom, cod: _leq(dom[0], cod),
        lambda n, dom, cod: True)


def heyting2_skew_closed() -> SkewClosedCategory:
    base = poset2_base("heyting2")
    objs = base.objects

    def hmor(f, g):
        (b, b2), (x, x2) = base.span(f), base.span(g)
        return _p2(_imp(b2, x), _imp(b, x2))

    return SkewClosedCategory(
        "heyting2.cl", base,
        hom_obj={(a, b): _imp(a, b) for a in objs for b in objs},
        hom_mor={(f, g): hmor(f, g) for f in base.morphisms() for g in base.morphisms()},
        unit="1",
        iu={a: f"1_{a}" for a in objs},
        ju={a: "1_1" for a in objs},
        ell={(a, b, c): _p2(_imp(b, c), _imp(_imp(a, b), _imp(a, c)))
             for a in objs for b in objs for c in objs},
    )


def terminal_short_multi() -> ShortMulticategory:
    return table_short_multi("terminal", terminal_category(), lambda n, dom, cod: True)


def terminal_skew_monoidal() -> SkewMonCategory:
    base = terminal_category()
    return SkewMonCategory(
        "terminal.mon", base,
        tensor_obj={("o", "o"): "o"}, tensor_mor={("1_o", "1_o"): "1_o"},
        unit="o", alpha={("o", "o", "o"): "1_o"}, lam={"o": "1_o"}, rho={"o": "1_o"})


def terminal_skew_closed() -> SkewClosedCategory:
    base = terminal_category()
    return SkewClosedCategory(
        "terminal.cl", base,
        hom_obj={("o", "o"): "o"}, hom_mor={("1_o", "1_o"): "1_o"},
        unit="o", iu={"o": "1_o"}, ju={"o": "1_o"}, ell={("o", "o", "o"): "1_o"})


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
    return {
        "terminal": terminal_short_multi(),
        "z2": monoid_short_multi(z2_monoid()),
        "z3": monoid_short_multi(z3_monoid()),
        "klein": monoid_short_multi(klein_monoid()),
        "heyting2": heyting2_short_multi(),
        "poset2-second": poset2_second_short_multi(),
    }


def catalogue_short_skews() -> dict[str, ShortSkewMulticategory]:
    out = {name + ".skew": embed_plain(m) for name, m in catalogue_short_multis().items()}
    out["poset2-first"] = poset2_first_short_skew()
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


def catalogue_braidings() -> dict[str, tuple[SkewMonCategory, Braiding]]:
    return {
        "z2.sym": (monoid_skew_monoidal(z2_monoid()), monoid_symmetry(z2_monoid())),
        "klein.sym": (monoid_skew_monoidal(klein_monoid()), monoid_symmetry(klein_monoid())),
        "terminal.sym": (terminal_skew_monoidal(),
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
    out = {}
    for key in ("z2", "klein", "terminal"):
        sk = embed_plain(monoid_short_multi({"z2": z2_monoid, "klein": klein_monoid}[key]())
                         if key != "terminal" else terminal_short_multi())
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
    from .shortskew import ShortSkewMulticategory as _Skew

    def pool_of(current: str) -> list[str]:
        if isinstance(m, _Skew):
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

    ms = catalogue_short_multis()
    per = {"z2": 2, "z3": 2, "klein": 2, "heyting2": 2, "poset2-second": 2}
    for mname, k in per.items():
        out.extend(_bulk_table_mutants(mname, "short-multi", ms[mname],
                                       ["sub", "pre", "post"], k, _multi_subject))

    # the interchange witness: binary-into-binary redirected in Z/2
    z2 = ms["z2"]
    mutated = mutate_entry(z2, "sub", ("m2(1,1;0)", 1, "m2(1,0;1)"), "m3(0,0,0;0)")
    out.append(Mutant("z2.interchange", "short-multi", mutated,
                      "assoc-notline-a", ("m2(1,1;0)", "m2(1,0;1)", "m2(0,1;1)")))

    sk = poset2_first_short_skew()
    out.extend(_bulk_table_mutants("poset2-first", "short-skew", sk,
                                   ["sub", "pre", "post"], 2, _multi_subject))
    mutated = mutate_entry(sk, "sub", ("l1(0;1)", 1, "l0(;0)"), "l0(;0)")
    out.append(Mutant("poset2-first.j-unit", "short-skew", mutated,
                      "j-nat", ("into-nullary", "le", "l0(;0)")))

    z2sk = embed_plain(ms["z2"])
    out.extend(_bulk_table_mutants("z2.skew", "short-skew", z2sk,
                                   ["sub", "pre", "post"], 1, _multi_subject))

    mons = catalogue_skew_monoidals()
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

    for bname in ("z2.sym", "klein.sym"):
        mon, braid = catalogue_braidings()[bname]
        skey = sorted(braid.s)[1]
        s = dict(braid.s)
        s[skey] = _redirect(mon.base.morphisms(), s[skey])
        out.append(Mutant(f"{bname}.s", "braiding", (mon, Braiding(braid.name, s, dict(braid.s_inv))),
                          "s-typing", skey))
    mon, braid = catalogue_braidings()["klein.sym"]
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
