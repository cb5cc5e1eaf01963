"""Canonical line-oriented structure files.

Grammar (tokens are whitespace-separated; identifiers must not contain
whitespace or `=`; `#` starts a comment line):

    file      := headerline* tableline*
    header    := "format = 1" | "kind = " KIND | "name = " TOKEN
               | "provenance " TOKEN " = " TOKEN*
    tableline := KEYWORD TOKEN* " = " TOKEN*

Keywords per kind (arguments before `=`, outputs after):

    category      objects | hom a b | id a | comp g f
    short-multi   category keywords | map0 b | map2 a b c | map3 a b c d
                  | map4 a b c d e | pre f i p | post q f | sub g i f
    short-skew    category keywords | tmap2..tmap4 | lmap0 b | lmap1 a b
                  | lmap2 a b c | j f | pre/post/sub
                  | beta32 f | beta42 f | beta43 f        (optional swaps)
    skew-monoidal category keywords | unit | tensor a b | tensormor f g
                  | alpha a b c | lambda a | rho a
    braiding      skew-monoidal keywords | s x a b | sinv x a b
    skew-closed   category keywords | unit | homobj a b | hommor f g
                  | I a | J a | L a b c
    morphism      source | target | variant | obj a | mor f
                  | m0/m2/m3/m4 f      (plain)  | l0/l1/l2/t2/t3/t4 f (skew)
    lax-functor   source | target | obj a | mor f | f0 | f2 a b

Set-valued lines (objects, hom, the map tables) list every member; empty
sets are omitted. Serialization is canonical: fixed keyword order, lines
sorted within a keyword, single spaces, one trailing newline; parsing a
canonical file and reserializing returns it byte-for-byte, anything else
parses with a normalization warning.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from .errors import ParseError, UnknownKind, VersionMismatch
from .fincat import FinCategory, FinFunctor

# Each parser and binder imports the module of its kind when it runs, so
# reading a file loads only the structures that file holds.
if TYPE_CHECKING:
    from .shortmulti import MultiMorphism, MultiTables, ShortMulticategory
    from .shortskew import ShortBraiding, ShortSkewMulticategory, SkewMultiMorphism
    from .skewmon import Braiding, LaxMonFunctor, SkewClosedCategory, SkewMonCategory

FORMAT_VERSION = "1"
KINDS = ("category", "short-multi", "short-skew", "skew-monoidal",
         "skew-closed", "braiding", "morphism", "lax-functor")


@dataclass(frozen=True)
class RawMorphism:
    source: str
    target: str
    variant: str                       # plain | skew
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    tables: dict[str, dict[str, str]]  # m0..m4 / l0..l2, t2..t4


@dataclass(frozen=True)
class RawLaxFunctor:
    source: str
    target: str
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    f0: str
    f2: dict[tuple[str, str], str]


Payload = Union[FinCategory, "ShortMulticategory", "SkewMonCategory",
                "SkewClosedCategory", RawMorphism, RawLaxFunctor, tuple]


@dataclass
class StructureFile:
    kind: str
    name: str
    payload: Payload
    provenance: dict[str, str] = field(default_factory=dict)


# Each table is written by one comprehension over its sorted entries, with
# its line shape spelled out: a set-valued line lists its members and is
# left out when the set is empty.

def _category_lines(c: FinCategory) -> list[str]:
    lines = [f"objects = {' '.join(c.objects)}"] if c.objects else []
    lines += [f"hom {a} {b} = {' '.join(fs)}" for (a, b), fs in sorted(c.homs.items()) if fs]
    lines += [f"id {a} = {f}" for a, f in sorted(c.ids.items())]
    lines += [f"comp {g} {f} = {h}" for (g, f), h in sorted(c.comp.items())]
    return lines


def _map_lines(keyword: str, table: dict) -> list[str]:
    """A multimap table: the key is the domain objects then the codomain."""
    return [f"{keyword} {' '.join((*dom, cod))} = {' '.join(fs)}"
            for (dom, cod), fs in sorted(table.items()) if fs]


def _action_lines(m: MultiTables) -> list[str]:
    lines = [f"pre {f} {i} {p} = {g}" for (f, i, p), g in sorted(m.pre.items())]
    lines += [f"post {q} {f} = {g}" for (q, f), g in sorted(m.post.items())]
    lines += [f"sub {g} {i} {f} = {h}" for (g, i, f), h in sorted(m.sub.items())]
    return lines


def _unary_lines(keyword: str, table: dict) -> list[str]:
    """A table keyed by one id."""
    return [f"{keyword} {f} = {g}" for f, g in sorted(table.items())]


def _pair_lines(keyword: str, table: dict) -> list[str]:
    return [f"{keyword} {a} {b} = {c}" for (a, b), c in sorted(table.items())]


def _triple_lines(keyword: str, table: dict) -> list[str]:
    return [f"{keyword} {a} {b} {c} = {d}" for (a, b, c), d in sorted(table.items())]


def _multi_lines(m: ShortMulticategory) -> list[str]:
    lines = _category_lines(m.base)
    for n in (0, 2, 3, 4):
        lines += _map_lines(f"map{n}", m.maps.get(n, {}))
    return lines + _action_lines(m)


def _skew_lines(m: ShortSkewMulticategory, beta: Optional[ShortBraiding]) -> list[str]:
    lines = _category_lines(m.base)
    for n in (2, 3, 4):
        lines += _map_lines(f"tmap{n}", m.tight.get(n, {}))
    for n in (0, 1, 2):
        lines += _map_lines(f"lmap{n}", m.loose.get(n, {}))
    lines += _unary_lines("j", m.j)
    lines += _action_lines(m)
    if beta is not None:
        for tag in ("b32", "b42", "b43"):
            lines += _unary_lines("beta" + tag[1:], beta.table(tag))
    return lines


def _monoidal_lines(c: SkewMonCategory, braid: Optional[Braiding]) -> list[str]:
    lines = _category_lines(c.base)
    lines.append(f"unit = {c.unit}")
    lines += _pair_lines("tensor", c.tensor_obj)
    lines += _pair_lines("tensormor", c.tensor_mor)
    lines += _triple_lines("alpha", c.alpha)
    lines += _unary_lines("lambda", c.lam)
    lines += _unary_lines("rho", c.rho)
    if braid is not None:
        lines += _triple_lines("s", braid.s)
        lines += _triple_lines("sinv", braid.s_inv)
    return lines


def _closed_lines(c: SkewClosedCategory) -> list[str]:
    lines = _category_lines(c.base)
    lines.append(f"unit = {c.unit}")
    lines += _pair_lines("homobj", c.hom_obj)
    lines += _pair_lines("hommor", c.hom_mor)
    lines += _unary_lines("I", c.iu)
    lines += _unary_lines("J", c.ju)
    lines += _triple_lines("L", c.ell)
    return lines


def _morphism_lines(raw: RawMorphism) -> list[str]:
    lines = [f"source = {raw.source}", f"target = {raw.target}", f"variant = {raw.variant}"]
    lines += _unary_lines("obj", raw.obj_map)
    lines += _unary_lines("mor", raw.mor_map)
    for tname in sorted(raw.tables):
        lines += _unary_lines(tname, raw.tables[tname])
    return lines


def _lax_lines(raw: RawLaxFunctor) -> list[str]:
    lines = [f"source = {raw.source}", f"target = {raw.target}"]
    lines += _unary_lines("obj", raw.obj_map)
    lines += _unary_lines("mor", raw.mor_map)
    lines.append(f"f0 = {raw.f0}")
    lines += _pair_lines("f2", raw.f2)
    return lines


def serialize(sf: StructureFile) -> str:
    lines = [f"format = {FORMAT_VERSION}", f"kind = {sf.kind}", f"name = {sf.name}"]
    for key in sorted(sf.provenance):
        lines.append(f"provenance {key} = {sf.provenance[key]}")
    kind, payload = sf.kind, sf.payload
    if kind == "category":
        lines += _category_lines(payload)
    elif kind == "short-multi":
        lines += _multi_lines(payload)
    elif kind == "short-skew":
        structure, beta = payload if isinstance(payload, tuple) else (payload, None)
        lines += _skew_lines(structure, beta)
    elif kind == "skew-monoidal":
        lines += _monoidal_lines(payload, None)
    elif kind == "braiding":
        structure, braid = payload
        lines += _monoidal_lines(structure, braid)
    elif kind == "skew-closed":
        lines += _closed_lines(payload)
    elif kind == "morphism":
        lines += _morphism_lines(payload)
    elif kind == "lax-functor":
        lines += _lax_lines(payload)
    else:
        raise UnknownKind(0, f"unknown kind {kind}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

class _Lines:
    """The key = value rows of a file, grouped by keyword in file order.

    Every argument and value token is interned, so an id is one object in
    every table that names it and a tuple-key lookup matches on identity."""

    def __init__(self, text: str):
        self.rows: dict[str, list[tuple[int, list[str], list[str]]]] = {}
        intern = sys.intern
        for no, rawline in enumerate(text.splitlines(), start=1):
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, tail = line.partition(" = ")
            if not sep and not line.endswith(" ="):
                raise ParseError(no, f"expected 'key = value' in {line!r}")
            toks = head.split()
            if not toks:
                raise ParseError(no, "empty key")
            self.rows.setdefault(toks[0], []).append(
                (no, [*map(intern, toks[1:])], [*map(intern, tail.split())]))

    def take(self, keyword: str) -> list[tuple[int, list[str], list[str]]]:
        return self.rows.pop(keyword, [])

    def take_single(self, keyword: str, nargs: int = 0) -> Optional[tuple[int, list[str], list[str]]]:
        rows = self.take(keyword)
        if not rows:
            return None
        if len(rows) > 1:
            raise ParseError(rows[1][0], f"duplicate {keyword} line")
        no, args, vals = rows[0]
        if len(args) != nargs:
            raise ParseError(no, f"{keyword} expects {nargs} arguments")
        return rows[0]


def _one_value(no: int, keyword: str, vals: list[str]) -> str:
    if len(vals) != 1:
        raise ParseError(no, f"{keyword} expects exactly one value")
    return vals[0]


def _args(no: int, keyword: str, args: list[str], n: int) -> list[str]:
    if len(args) != n:
        raise ParseError(no, f"{keyword} expects {n} arguments, got {len(args)}")
    return args


def _parse_category(name: str, lines: _Lines) -> FinCategory:
    row = lines.take_single("objects")
    if row is None:
        raise ParseError(0, "missing objects line")
    objects = tuple(row[2])
    declared = set(objects)
    homs = {}
    for no, args, vals in lines.take("hom"):
        a, b = _args(no, "hom", args, 2)
        for o in (a, b):
            if o not in declared:
                raise ParseError(no, f"undeclared object {o!r}")
        homs[(a, b)] = tuple(vals)
    ids = {}
    for no, args, vals in lines.take("id"):
        (a,) = _args(no, "id", args, 1)
        if a not in declared:
            raise ParseError(no, f"undeclared object {a!r}")
        ids[a] = _one_value(no, "id", vals)
    comp = {}
    for no, args, vals in lines.take("comp"):
        g, f = _args(no, "comp", args, 2)
        comp[(g, f)] = _one_value(no, "comp", vals)
    return FinCategory(name, objects, homs, comp, ids)


def _parse_int(no: int, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(no, f"expected a position, got {tok!r}")


def _parse_actions(lines: _Lines):
    pre, post, sub = {}, {}, {}
    for no, args, vals in lines.take("pre"):
        f, i, p = _args(no, "pre", args, 3)
        pre[(f, _parse_int(no, i), p)] = _one_value(no, "pre", vals)
    for no, args, vals in lines.take("post"):
        q, f = _args(no, "post", args, 2)
        post[(q, f)] = _one_value(no, "post", vals)
    for no, args, vals in lines.take("sub"):
        g, i, f = _args(no, "sub", args, 3)
        sub[(g, _parse_int(no, i), f)] = _one_value(no, "sub", vals)
    return pre, post, sub


def _parse_multi(name: str, lines: _Lines) -> ShortMulticategory:
    from .shortmulti import ShortMulticategory
    base = _parse_category(name, lines)
    maps: dict[int, dict] = {n: {} for n in (0, 2, 3, 4)}
    for n in (0, 2, 3, 4):
        for no, args, vals in lines.take(f"map{n}"):
            parts = _args(no, f"map{n}", args, n + 1)
            maps[n][(tuple(parts[:-1]), parts[-1])] = tuple(vals)
    pre, post, sub = _parse_actions(lines)
    return ShortMulticategory(name, base, maps, pre, post, sub)


def _parse_skew(name: str, lines: _Lines):
    from .shortskew import ShortBraiding, ShortSkewMulticategory
    base = _parse_category(name, lines)
    tight: dict[int, dict] = {n: {} for n in (2, 3, 4)}
    loose: dict[int, dict] = {n: {} for n in (0, 1, 2)}
    for n in (2, 3, 4):
        for no, args, vals in lines.take(f"tmap{n}"):
            parts = _args(no, f"tmap{n}", args, n + 1)
            tight[n][(tuple(parts[:-1]), parts[-1])] = tuple(vals)
    for n in (0, 1, 2):
        for no, args, vals in lines.take(f"lmap{n}"):
            parts = _args(no, f"lmap{n}", args, n + 1)
            loose[n][(tuple(parts[:-1]), parts[-1])] = tuple(vals)
    j = {}
    for no, args, vals in lines.take("j"):
        (f,) = _args(no, "j", args, 1)
        j[f] = _one_value(no, "j", vals)
    pre, post, sub = _parse_actions(lines)
    beta_tables = {}
    for tag in ("beta32", "beta42", "beta43"):
        table = {}
        for no, args, vals in lines.take(tag):
            (f,) = _args(no, tag, args, 1)
            table[f] = _one_value(no, tag, vals)
        beta_tables[tag] = table
    structure = ShortSkewMulticategory(name, base, tight, loose, j, pre, post, sub)
    beta = None
    if any(beta_tables.values()):
        beta = ShortBraiding(name + ".beta", beta_tables["beta32"],
                             beta_tables["beta42"], beta_tables["beta43"])
    return structure, beta


def _parse_monoidal(name: str, lines: _Lines, with_braiding: bool):
    from .skewmon import Braiding, SkewMonCategory
    base = _parse_category(name, lines)
    row = lines.take_single("unit")
    if row is None:
        raise ParseError(0, "missing unit line")
    unit = _one_value(row[0], "unit", row[2])
    tensor_obj, tensor_mor, alpha, lam, rho = {}, {}, {}, {}, {}
    for no, args, vals in lines.take("tensor"):
        a, b = _args(no, "tensor", args, 2)
        tensor_obj[(a, b)] = _one_value(no, "tensor", vals)
    for no, args, vals in lines.take("tensormor"):
        f, g = _args(no, "tensormor", args, 2)
        tensor_mor[(f, g)] = _one_value(no, "tensormor", vals)
    for no, args, vals in lines.take("alpha"):
        a, b, c = _args(no, "alpha", args, 3)
        alpha[(a, b, c)] = _one_value(no, "alpha", vals)
    for no, args, vals in lines.take("lambda"):
        (a,) = _args(no, "lambda", args, 1)
        lam[a] = _one_value(no, "lambda", vals)
    for no, args, vals in lines.take("rho"):
        (a,) = _args(no, "rho", args, 1)
        rho[a] = _one_value(no, "rho", vals)
    structure = SkewMonCategory(name, base, tensor_obj, tensor_mor, unit, alpha, lam, rho)
    if not with_braiding:
        return structure
    s, s_inv = {}, {}
    for no, args, vals in lines.take("s"):
        x, a, b = _args(no, "s", args, 3)
        s[(x, a, b)] = _one_value(no, "s", vals)
    for no, args, vals in lines.take("sinv"):
        x, a, b = _args(no, "sinv", args, 3)
        s_inv[(x, a, b)] = _one_value(no, "sinv", vals)
    return structure, Braiding(name + ".braid", s, s_inv)


def _parse_closed(name: str, lines: _Lines) -> SkewClosedCategory:
    from .skewmon import SkewClosedCategory
    base = _parse_category(name, lines)
    row = lines.take_single("unit")
    if row is None:
        raise ParseError(0, "missing unit line")
    unit = _one_value(row[0], "unit", row[2])
    hom_obj, hom_mor, iu, ju, ell = {}, {}, {}, {}, {}
    for no, args, vals in lines.take("homobj"):
        a, b = _args(no, "homobj", args, 2)
        hom_obj[(a, b)] = _one_value(no, "homobj", vals)
    for no, args, vals in lines.take("hommor"):
        f, g = _args(no, "hommor", args, 2)
        hom_mor[(f, g)] = _one_value(no, "hommor", vals)
    for no, args, vals in lines.take("I"):
        (a,) = _args(no, "I", args, 1)
        iu[a] = _one_value(no, "I", vals)
    for no, args, vals in lines.take("J"):
        (a,) = _args(no, "J", args, 1)
        ju[a] = _one_value(no, "J", vals)
    for no, args, vals in lines.take("L"):
        a, b, c = _args(no, "L", args, 3)
        ell[(a, b, c)] = _one_value(no, "L", vals)
    return SkewClosedCategory(name, base, hom_obj, hom_mor, unit, iu, ju, ell)


def _parse_morphism(lines: _Lines) -> RawMorphism:
    def need(keyword):
        row = lines.take_single(keyword)
        if row is None:
            raise ParseError(0, f"missing {keyword} line")
        return _one_value(row[0], keyword, row[2])

    source, target, variant = need("source"), need("target"), need("variant")
    if variant not in ("plain", "skew"):
        raise ParseError(0, f"variant must be plain or skew, got {variant!r}")
    obj_map, mor_map = {}, {}
    for no, args, vals in lines.take("obj"):
        (a,) = _args(no, "obj", args, 1)
        obj_map[a] = _one_value(no, "obj", vals)
    for no, args, vals in lines.take("mor"):
        (f,) = _args(no, "mor", args, 1)
        mor_map[f] = _one_value(no, "mor", vals)
    tables = {}
    names = ("m0", "m2", "m3", "m4") if variant == "plain" else ("l0", "l1", "l2", "t2", "t3", "t4")
    for tname in names:
        table = {}
        for no, args, vals in lines.take(tname):
            (f,) = _args(no, tname, args, 1)
            table[f] = _one_value(no, tname, vals)
        tables[tname] = table
    return RawMorphism(source, target, variant, obj_map, mor_map, tables)


def _parse_lax(lines: _Lines) -> RawLaxFunctor:
    def need(keyword):
        row = lines.take_single(keyword)
        if row is None:
            raise ParseError(0, f"missing {keyword} line")
        return _one_value(row[0], keyword, row[2])

    source, target = need("source"), need("target")
    obj_map, mor_map, f2 = {}, {}, {}
    for no, args, vals in lines.take("obj"):
        (a,) = _args(no, "obj", args, 1)
        obj_map[a] = _one_value(no, "obj", vals)
    for no, args, vals in lines.take("mor"):
        (f,) = _args(no, "mor", args, 1)
        mor_map[f] = _one_value(no, "mor", vals)
    f0 = need("f0")
    for no, args, vals in lines.take("f2"):
        a, b = _args(no, "f2", args, 2)
        f2[(a, b)] = _one_value(no, "f2", vals)
    return RawLaxFunctor(source, target, obj_map, mor_map, f0, f2)


def parse(text: str) -> tuple[StructureFile, list[str]]:
    """Parse a structure file; returns the file and normalization warnings."""
    lines = _Lines(text)
    row = lines.take_single("format")
    if row is None:
        raise VersionMismatch(1, "missing format line")
    version = _one_value(row[0], "format", row[2])
    if version != FORMAT_VERSION:
        raise VersionMismatch(row[0], f"unsupported format version {version}")
    row = lines.take_single("kind")
    if row is None:
        raise UnknownKind(1, "missing kind line")
    kind = _one_value(row[0], "kind", row[2])
    if kind not in KINDS:
        raise UnknownKind(row[0], f"unknown kind {kind!r}")
    row = lines.take_single("name")
    if row is None:
        raise ParseError(1, "missing name line")
    name = _one_value(row[0], "name", row[2])
    provenance = {}
    for no, args, vals in lines.take("provenance"):
        (key,) = _args(no, "provenance", args, 1)
        provenance[key] = " ".join(vals)

    if kind == "category":
        payload: Payload = _parse_category(name, lines)
    elif kind == "short-multi":
        payload = _parse_multi(name, lines)
    elif kind == "short-skew":
        payload = _parse_skew(name, lines)
    elif kind == "skew-monoidal":
        payload = _parse_monoidal(name, lines, with_braiding=False)
    elif kind == "braiding":
        payload = _parse_monoidal(name, lines, with_braiding=True)
    elif kind == "skew-closed":
        payload = _parse_closed(name, lines)
    elif kind == "morphism":
        payload = _parse_morphism(lines)
    else:
        payload = _parse_lax(lines)

    if lines.rows:
        no, kw = min((rows[0][0], kw) for kw, rows in lines.rows.items())
        raise ParseError(no, f"unexpected keyword {kw!r} for kind {kind}")

    sf = StructureFile(kind, name, payload, provenance)
    warnings = []
    if serialize(sf) != text:
        warnings.append("input was not in canonical form; normalized on output")
    return sf, warnings


# --------------------------------------------------------------------------
# binding morphism files to loaded structures
# --------------------------------------------------------------------------

def bind_morphism(raw: RawMorphism, name: str,
                  src, tgt) -> Union[MultiMorphism, SkewMultiMorphism]:
    fun = FinFunctor(name + ".base", src.base, tgt.base, raw.obj_map, raw.mor_map)
    if raw.variant == "plain":
        from .shortmulti import MultiMorphism
        maps = {int(t[1]): dict(raw.tables[t]) for t in ("m0", "m2", "m3", "m4")}
        return MultiMorphism(name, src, tgt, fun, maps)
    from .shortskew import SkewMultiMorphism
    tight = {int(t[1]): dict(raw.tables[t]) for t in ("t2", "t3", "t4")}
    loose = {int(t[1]): dict(raw.tables[t]) for t in ("l0", "l1", "l2")}
    return SkewMultiMorphism(name, src, tgt, fun, tight, loose)


def bind_lax_functor(raw: RawLaxFunctor, name: str,
                     src: SkewMonCategory, tgt: SkewMonCategory) -> LaxMonFunctor:
    from .skewmon import LaxMonFunctor
    fun = FinFunctor(name + ".base", src.base, tgt.base, raw.obj_map, raw.mor_map)
    return LaxMonFunctor(name, src, tgt, fun, raw.f0, dict(raw.f2))


def unbind_morphism(F: Union[MultiMorphism, SkewMultiMorphism]) -> RawMorphism:
    from .shortmulti import MultiMorphism
    if isinstance(F, MultiMorphism):
        tables = {f"m{n}": dict(F.maps.get(n, {})) for n in (0, 2, 3, 4)}
        return RawMorphism(F.source.name, F.target.name, "plain",
                           dict(F.functor.obj_map), dict(F.functor.mor_map), tables)
    tables = {f"t{n}": dict(F.tight_maps.get(n, {})) for n in (2, 3, 4)}
    tables.update({f"l{n}": dict(F.loose_maps.get(n, {})) for n in (0, 1, 2)})
    return RawMorphism(F.source.name, F.target.name, "skew",
                       dict(F.functor.obj_map), dict(F.functor.mor_map), tables)
