"""Canonical line-oriented structure files.

A file is a header (`format`, `kind`, `name`, `provenance`) and then one
record per table entry, `KEYWORD ARG* = VALUE*`. ROWS lists the record
keywords of each kind in canonical order, with the arguments and the shape
of each; docs/format.md describes the format. `serialize` walks ROWS over a
payload's tables, `parse` reads the records of ROWS back into the same
tables, and `_build` calls the constructor of the kind. Parsing a canonical
file and reserializing returns it byte for byte; anything else parses with a
normalization warning. A key given twice is an error, and so is an argument
or value token that holds `=`. VALIDATORS names the validators of each
structure kind, and `validate` runs them on a payload.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .errors import ParseError, UnknownKind, VersionMismatch
from .fincat import FinCategory, FinFunctor

# `_build`, `validate` and the binders import the module of a kind when they
# run, so reading a file loads only the structures that file holds.
if TYPE_CHECKING:
    from .report import ValidationReport
    from .shortmulti import MultiMorphism, ShortMulticategory
    from .shortskew import SkewMultiMorphism
    from .skewmon import LaxMonFunctor, SkewClosedCategory, SkewMonCategory

FORMAT_VERSION = "1"
KINDS = ("category", "short-multi", "short-skew", "skew-monoidal",
         "skew-closed", "braiding", "morphism", "lax-functor")

# The validators of each structure kind, as (module, function): the
# structure's and, for a kind that may carry swap tables, the swap tables'.
VALIDATORS = {
    "category": (("fincat", "validate_category"), None),
    "short-multi": (("shortmulti", "validate_short_multicategory"), None),
    "short-skew": (("shortskew", "validate_short_skew"), ("braiding", "validate_short_braiding")),
    "skew-monoidal": (("skewmon", "validate_skew_monoidal"), None),
    "skew-closed": (("skewmon", "validate_skew_closed"), None),
    "braiding": (("skewmon", "validate_skew_monoidal"), ("skewmon", "validate_braiding")),
}


@dataclass(frozen=True)
class RawMorphism:
    source: str
    target: str
    variant: str                       # plain | skew
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    tables: dict[str, dict[str, str]]  # keyed by the names in MORPHISM_TABLES[variant]


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


def _halves(payload) -> tuple:
    """The structure of a payload and its swap tables, or None: a short-skew
    or braiding payload is the pair (structure, swap tables or None)."""
    return payload if isinstance(payload, tuple) else (payload, None)


@dataclass
class StructureFile:
    kind: str
    name: str
    payload: Payload
    provenance: dict[str, str] = field(default_factory=dict)

    @property
    def structure(self):
        """The payload without its swap tables."""
        return _halves(self.payload)[0]


def validate(kind: str, payload) -> tuple[ValidationReport, Optional[ValidationReport]]:
    """The report of the structure of a payload of a structure kind, and the
    report of its swap tables or None. Each validator is looked up on its
    module when it runs, so that a rebound one is the one called."""
    structure, swap = _halves(payload)
    (module, name), swap_validator = VALIDATORS[kind]
    report = getattr(import_module(f".{module}", __package__), name)(structure)
    if swap is None:
        return report, None
    module, name = swap_validator
    return report, getattr(import_module(f".{module}", __package__), name)(structure, swap)


# --------------------------------------------------------------------------
# the records of each kind
# --------------------------------------------------------------------------
# The shape of a record says how its arguments make the key of its table
# and its values the entry. A VALUE or LIST record has no arguments, is
# required and is given once; every other record is one entry of a table.

VALUE = "value"    # one value
LIST = "list"      # the values listed, possibly none
HOM = "hom-set"    # key (a, b) of declared objects; the members listed
MAP = "map"        # key (domain, codomain); the members listed
ID = "at-object"   # key a declared object; one value
ONE = "one"        # key the argument, or the tuple of the arguments; one value
SLOT = "slot"      # key (f, i, p) with the integer slot i; one value
TEXT = "text"      # key the argument; the values joined by single spaces


class Row(NamedTuple):
    keyword: str
    nargs: int
    shape: str


_CATEGORY = (Row("objects", 0, LIST), Row("hom", 2, HOM), Row("id", 1, ID),
             Row("comp", 2, ONE))
_ACTIONS = (Row("pre", 3, SLOT), Row("post", 2, ONE), Row("sub", 3, SLOT))
_UNIT = Row("unit", 0, VALUE)
_MONOIDAL = (_UNIT, Row("tensor", 2, ONE), Row("tensormor", 2, ONE),
             Row("alpha", 3, ONE), Row("lambda", 1, ONE), Row("rho", 1, ONE))
_FUNCTOR = (Row("source", 0, VALUE), Row("target", 0, VALUE))
_MAPS = (Row("obj", 1, ONE), Row("mor", 1, ONE))

ROWS: dict[str, tuple[Row, ...]] = {
    "category": _CATEGORY,
    "short-multi": _CATEGORY + (Row("map0", 1, MAP), Row("map2", 3, MAP), Row("map3", 4, MAP),
                                Row("map4", 5, MAP)) + _ACTIONS,
    "short-skew": _CATEGORY + (Row("tmap2", 3, MAP), Row("tmap3", 4, MAP), Row("tmap4", 5, MAP),
                               Row("lmap0", 1, MAP), Row("lmap1", 2, MAP), Row("lmap2", 3, MAP),
                               Row("j", 1, ONE)) + _ACTIONS
                  + (Row("beta32", 1, ONE), Row("beta42", 1, ONE), Row("beta43", 1, ONE)),
    "skew-monoidal": _CATEGORY + _MONOIDAL,
    "braiding": _CATEGORY + _MONOIDAL + (Row("s", 3, ONE), Row("sinv", 3, ONE)),
    "skew-closed": _CATEGORY + (_UNIT, Row("homobj", 2, ONE), Row("hommor", 2, ONE),
                                Row("I", 1, ONE), Row("J", 1, ONE), Row("L", 3, ONE)),
    "morphism": _FUNCTOR + (Row("variant", 0, VALUE),) + _MAPS,
    "lax-functor": _FUNCTOR + _MAPS + (Row("f0", 0, VALUE), Row("f2", 2, ONE)),
}

# A morphism file ends with the image tables of its variant; the digit of a
# name is the arity of the multimaps it sends, its letter the side of a skew one.
MORPHISM_TABLES = {
    "plain": (Row("m0", 1, ONE), Row("m2", 1, ONE), Row("m3", 1, ONE), Row("m4", 1, ONE)),
    "skew": (Row("l0", 1, ONE), Row("l1", 1, ONE), Row("l2", 1, ONE), Row("t2", 1, ONE),
             Row("t3", 1, ONE), Row("t4", 1, ONE)),
}

_PROVENANCE = Row("provenance", 1, TEXT)


def _tables(kind: str, payload) -> tuple:
    """The tables of a payload, one for each row of ROWS[kind] in order, and
    then those of MORPHISM_TABLES[variant] for a morphism."""
    if kind == "morphism":
        return (payload.source, payload.target, payload.variant, payload.obj_map,
                payload.mor_map, *(payload.tables[kw] for kw, _, _ in
                                   MORPHISM_TABLES[payload.variant]))
    if kind == "lax-functor":
        return (payload.source, payload.target, payload.obj_map, payload.mor_map, payload.f0,
                payload.f2)
    if kind == "category":
        return (payload.objects, payload.homs, payload.ids, payload.comp)
    structure, extra = _halves(payload)
    base = _tables("category", structure.base)
    if kind == "short-multi":
        return (*base, *(structure.maps.get(n, {}) for n in (0, 2, 3, 4)),
                structure.pre, structure.post, structure.sub)
    if kind == "short-skew":
        betas = (extra.b32, extra.b42, extra.b43) if extra is not None else ({}, {}, {})
        return (*base, *(structure.tight.get(n, {}) for n in (2, 3, 4)),
                *(structure.loose.get(n, {}) for n in (0, 1, 2)), structure.j,
                structure.pre, structure.post, structure.sub, *betas)
    if kind == "skew-closed":
        return (*base, structure.unit, structure.hom_obj, structure.hom_mor, structure.iu,
                structure.ju, structure.ell)
    tables = (*base, structure.unit, structure.tensor_obj, structure.tensor_mor,
              structure.alpha, structure.lam, structure.rho)
    return tables + (extra.s, extra.s_inv) if kind == "braiding" else tables


def _build(kind: str, name: str, records: dict) -> Payload:
    """Read the records of ROWS[kind] and build the payload they describe."""
    if kind == "lax-functor":
        return RawLaxFunctor(*_read(records, ROWS[kind]))
    if kind == "morphism":
        found = records.get("variant")
        source, target, variant = _read(records, ROWS[kind][:3])
        rows = MORPHISM_TABLES.get(variant)
        if rows is None:
            raise ParseError(found[0][0], f"variant must be plain or skew, got {variant!r}")
        obj_map, mor_map, *tables = _read(records, ROWS[kind][3:] + rows)
        return RawMorphism(source, target, variant, obj_map, mor_map,
                           {row.keyword: t for row, t in zip(rows, tables)})
    objects, homs, ids, comp = _read(records, _CATEGORY)
    # The base is built before the other records are read, so that its
    # errors come first.
    base = FinCategory(name, objects, homs, comp, ids)
    tables = _read(records, ROWS[kind][len(_CATEGORY):])
    if kind == "category":
        return base
    if kind == "short-multi":
        from .shortmulti import ShortMulticategory
        *maps, pre, post, sub = tables
        return ShortMulticategory(name, base, dict(zip((0, 2, 3, 4), maps)), pre, post, sub)
    if kind == "short-skew":
        from .shortskew import ShortBraiding, ShortSkewMulticategory
        *maps, j, pre, post, sub, b32, b42, b43 = tables
        structure = ShortSkewMulticategory(name, base, dict(zip((2, 3, 4), maps[:3])),
                                           dict(zip((0, 1, 2), maps[3:])), j, pre, post, sub)
        beta = ShortBraiding(name + ".beta", b32, b42, b43) if b32 or b42 or b43 else None
        return structure, beta
    from .skewmon import Braiding, SkewClosedCategory, SkewMonCategory
    if kind == "skew-closed":
        unit, hom_obj, hom_mor, iu, ju, ell = tables
        return SkewClosedCategory(name, base, hom_obj, hom_mor, unit, iu, ju, ell)
    unit, tensor_obj, tensor_mor, alpha, lam, rho, *braid = tables
    structure = SkewMonCategory(name, base, tensor_obj, tensor_mor, unit, alpha, lam, rho)
    return (structure, Braiding(name + ".braid", *braid)) if braid else structure


# --------------------------------------------------------------------------
# serializing
# --------------------------------------------------------------------------

def _lines(row: Row, table) -> list[str]:
    """The records of one table, sorted by key. A set-valued record lists its
    members and is left out when the set is empty. A key is unpacked into
    the f-string: joining it makes serialize of the Z/6 files slower."""
    kw, nargs, shape = row
    if shape is VALUE:
        return [f"{kw} = {table}"]
    if shape is LIST:
        return [" ".join((kw, "=", *table))]
    if shape is MAP:
        return [f"{kw} {' '.join((*dom, cod))} = {' '.join(fs)}"
                for (dom, cod), fs in sorted(table.items()) if fs]
    if shape is HOM:
        return [f"{kw} {a} {b} = {' '.join(fs)}" for (a, b), fs in sorted(table.items()) if fs]
    if nargs == 1:
        return [f"{kw} {f} = {g}" for f, g in sorted(table.items())]
    if nargs == 2:
        return [f"{kw} {a} {b} = {c}" for (a, b), c in sorted(table.items())]
    return [f"{kw} {a} {b} {c} = {d}" for (a, b, c), d in sorted(table.items())]


def serialize(sf: StructureFile) -> str:
    kind, payload = sf.kind, sf.payload
    if kind not in ROWS:
        raise UnknownKind(0, f"unknown kind {kind}")
    lines = [f"format = {FORMAT_VERSION}", f"kind = {kind}", f"name = {sf.name}",
             *_lines(_PROVENANCE, sf.provenance)]
    rows = ROWS[kind] + (MORPHISM_TABLES[payload.variant] if kind == "morphism" else ())
    for row, table in zip(rows, _tables(kind, payload)):
        lines += _lines(row, table)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

Record = tuple[int, tuple[str, ...], tuple[str, ...]]   # line number, arguments, values

# The keywords of every table record, VALUE and LIST ones left out. Only
# their runs are tried as blocks, so a file tries at most this many runs,
# however many keywords it invents.
_KEYWORDS = frozenset(kw for rows in (*ROWS.values(), *MORPHISM_TABLES.values())
                      for kw, _, shape in rows if shape is not VALUE and shape is not LIST)
# The line breaks of str.splitlines other than "\n".
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class _Block(NamedTuple):
    """A run of n lines `kw ARG* = VALUE*` of one width, read as columns:
    the number of its first line and its interned argument and value columns."""
    no: int
    n: int
    args: list
    vals: list

    def records(self) -> list[Record]:
        """The records of the lines of the block."""
        rows = zip(_rows(self.args, self.n), _rows(self.vals, self.n))
        return [(self.no + k, a, v) for k, (a, v) in enumerate(rows)]


def _rows(columns: list, n: int):
    """The n tuples of a block's columns, one per line."""
    return zip(*columns) if columns else [()] * n


def _block(run: str, kw: str, no: int) -> Optional[_Block]:
    """The whole lines of run as one block, when the line reader would read
    each as `kw`, the same arguments, ` = ` and the same values: every line
    starts with `kw `, the run splits into n times the width w of its first
    line, kw is every w-th token from the first and no other token, and the
    n `=` of the run are the tokens of one column, each between spaces.
    Then line k holds exactly the tokens k*w to k*w + w - 1."""
    n = run.count("\n") + (run[-1] != "\n")
    if (run.count("\n" + kw + " ") != n - 1 or run.count("=") != n
            or run.count(" = ") != n):
        return None
    toks = run.split()
    w = len(run[:run.find("\n")].split())
    e = len(run[:run.find(" = ")].split())
    if (len(toks) != n * w or toks.count(kw) != n or toks[::w].count(kw) != n
            or toks[e::w].count("=") != n):
        return None
    cols = [list(map(sys.intern, toks[c::w])) for c in range(1, w) if c != e]
    return _Block(no, n, cols[:e - 1], cols[e - 1:])


def _line(records: dict, no: int, rawline: str) -> None:
    """Add the record of one line, if it holds one, to records."""
    line = rawline.strip()
    if not line or line.startswith("#"):
        return
    head, sep, tail = line.partition(" = ")
    if not sep:
        if not line.endswith(" ="):
            raise ParseError(no, f"expected 'key = value' in {line!r}")
        head = line[:-2]
    toks = head.split()
    args, vals = toks[1:], tail.split()
    if line.count("=") > 1:
        for tok in (*args, *vals):
            if "=" in tok:
                raise ParseError(no, f"token {tok!r} holds '='")
    found = records.setdefault(toks[0], [])
    if found and type(found[0]) is _Block:
        found[:] = found[0].records()
    found.append((no, tuple(map(sys.intern, args)), tuple(map(sys.intern, vals))))


def _line_records(text: str) -> dict[str, list[Record]]:
    """The records of a file, read by the line reader alone."""
    records: dict[str, list] = {}
    for no, rawline in enumerate(text.splitlines(), start=1):
        _line(records, no, rawline)
    return records


def _run_end(text: str, start: int, prefix: str) -> int:
    """The end of a run of lines that start with prefix, from the line at
    start: steps double until one lands past the run and then halve, so the
    run is found in a number of steps logarithmic in its size. _block checks
    every line of it."""
    last, step, grow = start, 64, True
    while step:
        at = text.find("\n", last + step) + 1
        if at and text.startswith(prefix, at):
            last = at
        else:
            grow = False
        step = step * 2 if grow else step // 2
    return text.find("\n", last) + 1 or len(text)


def _records(text: str) -> dict[str, list]:
    """The records of a file, grouped by keyword in file order.

    The first run of consecutive lines that start with one record keyword
    is read as one _Block when _block proves that the line reader would read
    it the same; any other line goes through the line reader, and a block
    whose keyword meets another line is read back into lines. Every argument
    and value token is interned, so an id is one object in every table that
    names it and a tuple-key lookup matches on identity. `kw args =` has no
    values."""
    if any(c in text for c in _BREAKS):
        return _line_records(text)
    records: dict[str, list] = {}
    pos, no, size = 0, 1, len(text)
    while pos < size:
        stop = text.find("\n", pos) + 1 or size
        line = text[pos:stop]
        kw = line.partition(" ")[0]
        if kw in _KEYWORDS and kw not in records and text.startswith(kw + " ", stop):
            end = _run_end(text, stop, kw + " ")
            block = _block(text[pos:end], kw, no)
            if block is not None:
                records[kw] = [block]
                pos, no = end, no + block.n
                continue
        _line(records, no, line)
        pos, no = stop, no + 1
    return records


def _single(records: dict, keyword: str, missing: ParseError) -> tuple[int, tuple[str, ...]]:
    """The line number and values of a record given once, without arguments."""
    found = records.pop(keyword, None)
    if not found:
        raise missing
    if len(found) > 1:
        raise ParseError(found[1][0], f"duplicate {keyword} line")
    no, args, vals = found[0]
    if args:
        raise ParseError(no, f"{keyword} expects 0 arguments")
    return no, vals


def _one(no: int, keyword: str, vals: tuple[str, ...]) -> str:
    if len(vals) != 1:
        raise ParseError(no, f"{keyword} expects exactly one value")
    return vals[0]


def _read(records: dict, rows: tuple[Row, ...]) -> list:
    """Pop the records of each row and return their tables, in row order.

    A row read as one block is zipped from its columns by _columns. Any
    other row, and a block that fails one of its checks, is read record by
    record by _table."""
    out: list = []
    declared: frozenset = frozenset()
    for row in rows:
        kw, nargs, shape = row
        if shape is VALUE or shape is LIST:
            no, vals = _single(records, kw, ParseError(1, f"missing {kw} line"))
            if shape is LIST:
                declared = frozenset(vals)
                if len(declared) != len(vals):
                    repeated = next(o for k, o in enumerate(vals) if o in vals[:k])
                    raise ParseError(no, f"repeated object {repeated!r} in {kw}")
            out.append(_one(no, kw, vals) if shape is VALUE else vals)
            continue
        found = records.pop(kw, ())
        if found and type(found[0]) is _Block:
            table = _columns(row, found[0], declared)
            if table is not None:
                out.append(table)
                continue
            found = found[0].records()
        out.append(_table(row, found, declared))
    return out


def _columns(row: Row, block: _Block, declared: frozenset) -> Optional[dict]:
    """The table of a row read from the columns of a block, or None when one
    of the checks of _table fails or a key repeats."""
    kw, nargs, shape = row
    n, args, vals = block.n, block.args, block.vals
    if len(args) != nargs or shape is TEXT:
        return None
    if shape is MAP:
        table = dict(zip(zip(_rows(args[:-1], n), args[-1]), _rows(vals, n)))
    elif shape is HOM:
        table = dict(zip(zip(*args), _rows(vals, n)))
        if not all(map(declared.issuperset, args)):
            return None
    elif len(vals) != 1:
        return None
    elif shape is SLOT:
        f, i, p = args
        digits = "".join(i)
        if not (digits.isascii() and digits.isdigit()):
            return None
        table = dict(zip(zip(f, map(int, i), p), vals[0]))
    elif nargs == 1:
        table = dict(zip(args[0], vals[0]))
        if shape is ID and not declared.issuperset(table):
            return None
    else:
        table = dict(zip(zip(*args), vals[0]))
    return table if len(table) == n else None


def _table(row: Row, found: list[Record], declared: frozenset) -> dict:
    """The table of a row read record by record, in file order; the first
    bad record raises its error. Within a record the argument count, the
    declared objects, the value count, the slot and the key are checked in
    that order."""
    kw, nargs, shape = row
    table: dict = {}
    first: dict = {}
    for no, args, vals in found:
        if len(args) != nargs:
            raise ParseError(no, f"{kw} expects {nargs} arguments, got {len(args)}")
        if shape is HOM or shape is ID:
            for o in args:
                if o not in declared:
                    raise ParseError(no, f"undeclared object {o!r}")
        if shape is MAP:
            key, value = (args[:-1], args[-1]), vals
        elif shape is HOM:
            key, value = args, vals
        elif shape is TEXT:
            key, value = args[0], " ".join(vals)
        else:
            key, value = (args[0] if nargs == 1 else args), _one(no, kw, vals)
            if shape is SLOT:
                if not (args[1].isascii() and args[1].isdigit()):
                    raise ParseError(no, f"expected a position, got {args[1]!r}")
                key = (args[0], int(args[1]), args[2])
        if key in first:
            raise ParseError(no, f"repeated key {kw} {' '.join(args)}, "
                                 f"first given at line {first[key]}")
        first[key] = no
        table[key] = value
    return table


def parse(text: str) -> tuple[StructureFile, list[str]]:
    """Parse a structure file; returns the file and normalization warnings."""
    records = _records(text)
    no, vals = _single(records, "format", VersionMismatch(1, "missing format line"))
    version = _one(no, "format", vals)
    if version != FORMAT_VERSION:
        raise VersionMismatch(no, f"unsupported format version {version}")
    no, vals = _single(records, "kind", UnknownKind(1, "missing kind line"))
    kind = _one(no, "kind", vals)
    if kind not in KINDS:
        raise UnknownKind(no, f"unknown kind {kind!r}")
    no, vals = _single(records, "name", ParseError(1, "missing name line"))
    name = _one(no, "name", vals)
    (provenance,) = _read(records, (_PROVENANCE,))
    payload = _build(kind, name, records)
    if records:
        no, kw = min((found[0][0], kw) for kw, found in records.items())
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
    maps = {kw: dict(raw.tables[kw]) for kw, _, _ in MORPHISM_TABLES[raw.variant]}
    if raw.variant == "plain":
        from .shortmulti import MultiMorphism
        return MultiMorphism(name, src, tgt, fun, {int(kw[1:]): t for kw, t in maps.items()})
    from .shortskew import SkewMultiMorphism
    tight, loose = ({int(kw[1:]): t for kw, t in maps.items() if kw[0] == side}
                    for side in "tl")
    return SkewMultiMorphism(name, src, tgt, fun, tight, loose)


def bind_lax_functor(raw: RawLaxFunctor, name: str,
                     src: SkewMonCategory, tgt: SkewMonCategory) -> LaxMonFunctor:
    from .skewmon import LaxMonFunctor
    fun = FinFunctor(name + ".base", src.base, tgt.base, raw.obj_map, raw.mor_map)
    return LaxMonFunctor(name, src, tgt, fun, raw.f0, dict(raw.f2))


def unbind_morphism(F: Union[MultiMorphism, SkewMultiMorphism]) -> RawMorphism:
    from .shortmulti import MultiMorphism
    if isinstance(F, MultiMorphism):
        variant, sides = "plain", {"m": F.maps}
    else:
        variant, sides = "skew", {"t": F.tight_maps, "l": F.loose_maps}
    tables = {kw: dict(sides[kw[0]].get(int(kw[1:]), {})) for kw, _, _ in MORPHISM_TABLES[variant]}
    return RawMorphism(F.source.name, F.target.name, variant,
                       dict(F.functor.obj_map), dict(F.functor.mor_map), tables)
