"""The serializer, the structure checks and the parser against the rules of
docs/format.md, written out here without reading ROWS, `domains` or any
other code they check.

- serialize: every generated file parses back without a warning to the same
  content and bytes, its lines are in the canonical order the docs state,
  and a shuffle of its lines parses to the same bytes with the
  non-canonical warning.
- check_structure: on line edits of files and on single faults, it raises
  exactly when a table's keys differ from the domain that "Records by
  kind" states, or a value lies outside its range; pairs of faults give the
  pinned message of the fault met first.
- parse: a table of refusals, each with its message and line, through
  parse and through the command line; and on thousands of edits of the
  smallest file of each kind, either the canonical lines of the edit's
  records, or a refusal that "Refusals" lists, at a line that holds what
  it names.

The block reader is checked against the line reader at the end; only
there are the shapes of ROWS read, to pick the runs to edit."""
import collections
import dataclasses
import functools
import itertools
import random
import re
from pathlib import Path

import pytest

from shortcat import cli, fileformat
from shortcat.catalogue import poset2_first_short_skew
from shortcat.classify import certify
from shortcat.errors import (
    DanglingId, MalformedTable, ParseError, ShortcatError, TypingViolation,
)
from shortcat.fileformat import (
    MORPHISM_TABLES, ROWS, RawLaxFunctor, StructureFile, parse, serialize, unbind_morphism,
)
from shortcat.shortskew import LOOSE, TIGHT, ShortSkewMulticategory, identity_skew_morphism
from shortcat.skewmon import identity_lax_functor
from shortcat.transport import k_object, ks_object
from test_cli import KEY_DOMAINS
from test_fileformat import _documented_keywords
from test_kernel import _cyclic, _cyclic_files

DOC = (Path(__file__).resolve().parent.parent / "docs" / "format.md").read_text(encoding="utf-8")
NON_CANONICAL = "input was not in canonical form; normalized on output"
KEYWORDS = _documented_keywords()
DOC_KINDS = {kind.split()[0] for kind in KEYWORDS}


def _constructed(files):
    """The skew monoidal categories that construct k and ks build."""
    for sf in files:
        if sf.kind == "short-multi":
            m = sf.payload
            yield StructureFile("skew-monoidal", m.name + ".k", k_object(m, certify(m)))
        elif sf.kind == "short-skew":
            m = sf.payload[0]
            yield StructureFile("skew-monoidal", m.name + ".ks", ks_object(m, certify(m)))


def _identity_lax_functors(files):
    """The identity lax functor on each skew monoidal file."""
    for sf in files:
        if sf.kind == "skew-monoidal":
            t = identity_lax_functor(sf.payload)
            raw = RawLaxFunctor(sf.payload.name, sf.payload.name, dict(t.functor.obj_map),
                                dict(t.functor.mor_map), t.f0, dict(t.f2))
            yield StructureFile("lax-functor", t.name, raw)


# --------------------------------------------------------------------------
# the canonical form
# --------------------------------------------------------------------------

def _record(line):
    """(keyword, arguments, values) of a line under the lexical rules, or
    None for a blank line, a comment or a line without ` = ` or a final ` =`."""
    line = line.strip()
    head, sep, tail = line.partition(" = ")
    if not line or line.startswith("#") or not sep and not line.endswith(" ="):
        return None
    toks = (head if sep else line[:-2]).split()
    return toks[0] if toks else "", toks[1:], tail.split()


def _key(record):
    """The key of a record: its arguments, the position of a `pre` or `sub`
    record (`pre f i p`, `sub g i f`) read as the integer it spells."""
    kw, args, _ = record
    return tuple(int(a) if kw in ("pre", "sub") and k == 1 else a for k, a in enumerate(args))


def _set_valued(kw):
    """`objects`, `hom` and the `map`/`tmap`/`lmap` tables list a set."""
    return kw in ("objects", "hom") or re.fullmatch(r"[tl]?map\d", kw) is not None


def _keywords(records):
    """The header keywords, then those "Keywords per kind" lists for the kind
    (and variant) the records name."""
    value = {r[0]: r[2][0] for r in records if r[0] in ("kind", "variant") and r[2]}
    kind = value.get("kind")
    kind = f"{kind} ({value.get('variant')})" if kind == "morphism" else kind
    return ("format", "kind", "name", "provenance", *KEYWORDS.get(kind, ()))


def _canonical(text):
    """The records of a text in the canonical order of the docs: the
    header, then each keyword's records in the order of "Keywords per kind",
    sorted by key; the members of a set sorted and a set without members
    left out, but for `objects =`; single spaces and one final newline."""
    records = [r for r in map(_record, text.splitlines()) if r is not None]
    order = _keywords(records)
    lines = [(order.index(kw), _key((kw, args, vals)),
              " ".join((kw, *args, "=", *(sorted(vals) if _set_valued(kw) else vals))))
             for kw, args, vals in records if vals or not _set_valued(kw) or kw == "objects"]
    return "".join(line + "\n" for *_, line in sorted(lines))


def _content(value):
    """A payload without its names, which a file holds only once."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _content(getattr(value, f.name)))
                     for f in dataclasses.fields(value) if f.compare and f.name != "name")
    if isinstance(value, tuple):
        return tuple(map(_content, value))
    return value


def test_serialize_writes_the_canonical_form():
    """Every generator's files (the mutants and morphisms among them), Z/2..Z/4,
    the k and ks constructions of the catalogue and the identity lax functor on
    each skew monoidal file: each parses back without a warning to the same
    content and bytes, is in canonical order, and any order of its lines,
    with blank and comment lines among them, parses to the same bytes with
    the non-canonical warning."""
    generators = [g for g in cli.GENERATORS if g != "comm-monoid"]
    files = [sf for g in generators for sf in cli.catalogue_files(g)]
    files += [sf for n in (2, 3, 4) for sf in _cyclic_files(n)]
    files += list(_constructed(f for g in ("terminal", "z2", "heyting-2")
                               for f in cli.catalogue_files(g)))
    files += list(_identity_lax_functors(files))
    shuffle = random.Random(36).shuffle
    for sf in files:
        text = serialize(sf)
        back, warnings = parse(text)
        assert warnings == [] and serialize(back) == text, sf.name
        assert _content(back.payload) == _content(sf.payload), sf.name
        assert _canonical(text) == text, sf.name
        lines = text.splitlines(keepends=True) + ["\n", "# a comment\n", "  #\n", " \t \n"]
        shuffle(lines)
        back, warnings = parse("".join(lines))
        assert warnings == [NON_CANONICAL] and serialize(back) == text, sf.name
    assert {sf.kind for sf in files} == DOC_KINDS, "every kind a file can hold"
    assert len(files) > 100


# --------------------------------------------------------------------------
# the table domains of "Records by kind", and check_structure against them
# --------------------------------------------------------------------------
# A structure is read through its dataclass fields only. The stored
# substitution cases are (outer arity, inner arity) -> (outer flavour, inner
# flavour): a plain map has both flavours, a base morphism is tight unary.

T, L = TIGHT, LOOSE
CASES = {(2, 2): (T, T), (3, 2): (T, T), (2, 3): (T, T), (2, 0): (T, L), (3, 0): (T, L)}
SKEW_CASES = {**CASES, (1, 0): (L, L), (2, 1): (T, L), (1, 2): (L, T)}


def _flavoured(m):
    """id -> (arity, domain, codomain) of each multimap, base morphisms as
    tight unary maps, the flavours of the tables that list it, and whether
    every key names declared objects."""
    skew = isinstance(m, ShortSkewMulticategory)
    objects, types, flavours = set(m.base.objects), {}, collections.defaultdict(set)
    for (a, b), ps in m.base.homs.items():
        for p in ps:
            types[p] = 1, (a,), b
            flavours[p].update((T,) if skew else (T, L))
    declared = True
    for fl, tables in (((T,), m.tight), ((L,), m.loose)) if skew else (((T, L), m.maps),):
        for n, table in tables.items():
            for (dom, cod), fs in table.items():
                declared &= objects.issuperset((*dom, cod))
                for f in fs:
                    types[f] = n, tuple(dom), cod
                    flavours[f].update(fl)
    return types, flavours, declared


def _domains(m):
    """table -> (its keys, the values it may take), as "Records by kind"
    states them: `id` at the objects, `comp` at the composable pairs; `pre`
    at (f, i, p), `post` at (q, f) and `sub` at (g, i, f) in a stored case,
    f and g multimaps that are not base morphisms, p a base morphism into
    slot i of f, q one out of f, f into slot i of g; `j` at the tight unary
    and binary maps, valued in the loose ones."""
    span = {f: ab for ab, fs in m.base.homs.items() for f in fs}
    maps, flavours, _ = _flavoured(m)
    own = {f: ty for f, ty in maps.items() if f not in span}
    cases = SKEW_CASES if isinstance(m, ShortSkewMulticategory) else CASES
    sub = {(g, i, f) for g, (n, gdom, _) in own.items() for f, (k, _, c) in own.items()
           if (n, k) in cases and cases[n, k][0] in flavours[g] and cases[n, k][1] in flavours[f]
           for i in range(1, n + 1) if gdom[i - 1] == c}
    domains = {
        "id": (set(m.base.objects), span),
        "comp": ({(g, f) for f, (_, b) in span.items() for g, (c, _) in span.items() if c == b},
                 span),
        "pre": ({(f, i, p) for f, (n, dom, _) in own.items() for i in range(1, n + 1)
                 for p, (_, b) in span.items() if b == dom[i - 1]}, maps),
        "post": ({(q, f) for f, (_, _, c) in own.items() for q, (a, _) in span.items() if a == c},
                 maps),
        "sub": (sub, maps),
    }
    if isinstance(m, ShortSkewMulticategory):
        domains["j"] = ({f for f, (n, _, _) in maps.items() if n in (1, 2) and T in flavours[f]},
                        {f for f in maps if L in flavours[f]})
    return domains


def _breaks_the_format(m):
    """Whether a table of m has keys other than its domain, a value outside
    its range, a key that names an undeclared object, an identity that is no
    endomorphism or a sub result in the wrong table."""
    types, flavours, declared = _flavoured(m)
    span = {f: ab for ab, fs in m.base.homs.items() for f in fs}
    tables = {"id": m.base.ids, "comp": m.base.comp, "pre": m.pre, "post": m.post,
              "sub": m.sub, **({"j": m.j} if isinstance(m, ShortSkewMulticategory) else {})}
    for name, (keys, values) in _domains(m).items():
        table = tables[name]
        if set(table) != keys or not all(v in values for v in table.values()):
            return True
    if not declared or any(span[f] != (a, a) for a, f in m.base.ids.items()):
        return True
    if isinstance(m, ShortSkewMulticategory):
        for (g, i, f), h in m.sub.items():
            x, y = SKEW_CASES[types[g][0], types[f][0]]
            if (T if x == T and (i != 1 or y == T) else L) not in flavours[h]:
                return True
    return False


# The short-multi and short-skew files of the terminal, Z/2, poset and Heyting
# generators.
EDITED = [("terminal", "short-multi"), ("terminal", "short-skew"), ("z2", "short-multi"),
          ("z2", "short-skew"), ("poset-skew-second", "short-multi"),
          ("poset-skew-first", "short-skew"), ("heyting-2", "short-multi"),
          ("heyting-2", "short-skew")]


def _text(generator, kind):
    return serialize(next(sf for sf in cli.catalogue_files(generator) if sf.kind == kind))


def _line_edits(text):
    """Every single-line deletion and duplication of a file."""
    lines = text.splitlines(keepends=True)
    for k in range(len(lines)):
        yield f"delete {k}", "".join(lines[:k] + lines[k + 1:])
        yield f"duplicate {k}", "".join(lines[:k + 1] + lines[k:])


def _malformed_cli_cases():
    """The edited files of tests/test_cli.py that end in a structure error or
    in an axiom failure: a pre or sub line copied with its slot set to 0 or 7,
    and a post value of the wrong type."""
    for kind, table, slot in itertools.product(("short-multi", "short-skew"), ("pre", "sub"),
                                               ("0", "7")):
        text = _text("z2", kind)
        words = next(ln for ln in text.splitlines()
                     if ln.startswith(table + " ") and ln.split()[2] == "2").split()
        words[2] = slot
        yield f"z2.{kind} {table} slot {slot}", text + " ".join(words) + "\n"
    for kind in ("short-multi", "short-skew"):
        text = _text("z2", kind)
        line = "post 1_0 m4(1,0,0,1;0) = m4(1,0,0,1;0)"
        assert line + "\n" in text
        yield f"z2.{kind} bad post", text.replace(line, "post 1_0 m4(1,0,0,1;0) = m2(1,1;0)")


def _structure(text):
    """The structure a text holds, or None when it does not parse."""
    try:
        sf, _ = parse(text)
    except ShortcatError:
        return None
    return sf.payload[0] if sf.kind == "short-skew" else sf.payload


def _outcome(check, m):
    try:
        check(m)
    except Exception as exc:  # the outcome is compared with its pinned value
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("source", [f"{g}.{k}" for g, k in EDITED] + ["test_cli"])
def test_check_structure_matches_reference(source):
    """check_structure raises, a MalformedTable, exactly when the reference
    statement above finds a table of the parsed structure that breaks the
    format."""
    if source == "test_cli":
        cases = list(_malformed_cli_cases())
    else:
        generator, kind = source.split(".", 1)
        cases = list(_line_edits(_text(generator, kind)))
    tried, raised, differ = 0, 0, []
    for label, text in cases:
        m = _structure(text)
        if m is None:
            continue
        want = _breaks_the_format(m)
        have = _outcome(type(m).check_structure, m)
        if (have is not None) != want or have and not issubclass(have[0], MalformedTable):
            differ.append((label, have, want))
        tried += 1
        raised += want
    assert not differ, differ[:5]
    assert tried >= 6 and raised >= 4, (tried, raised)


PRE, POST, SUB = KEY_DOMAINS["pre"], KEY_DOMAINS["post"], KEY_DOMAINS["sub"]


def _show(key):
    return f"({','.join(map(str, key))})" if isinstance(key, tuple) else key


def _faults(m):
    """One structure fault per way check_structure can refuse a structure:
    name -> (the outcome it gives alone, its stage, table and key, and an
    edit of copies of the pre, post, sub (and j) tables). Edits of one table
    touch different keys. A stage is 0 for a missing key, 1 for a key
    outside its table's domain or a value that is no multimap, 2 for a j
    value that is not loose and 3 for a sub result in the wrong table."""
    idx, span, nm = m._index, m.base._span, m.name
    skew = isinstance(m, ShortSkewMulticategory)

    def maps(n):
        return m.multimaps(TIGHT, n) if skew else m.multimaps(n)

    f2, g4 = maps(2)[0], maps(4)[0]
    p = next(p for p in sorted(span) if span[p][1] != idx[f2][1][0])
    q = next(q for q in sorted(span) if span[q][0] != idx[f2][2])
    h2 = next(h for h in maps(2) if idx[h][2] != idx[f2][1][0])
    first, last = {t: sorted(getattr(m, t))[0] for t in ("pre", "post", "sub")}, \
        {t: sorted(getattr(m, t))[-1] for t in ("pre", "post", "sub")}
    (pf, pi, pp), (sg, si, sf) = first["pre"], first["sub"]

    def put(table, key, value):
        return lambda t: t[table].__setitem__(key, value)

    def stray(table, key, what, value):
        return ((DanglingId, f"{nm}: {table} key {_show(key)} is not {what}"), 1, table, key,
                put(table, key, value))

    faults = {f"dangling {t}": (
        (DanglingId, f"{nm}: {t} component no-such-map at {_show(first[t])} is not a multimap"),
        1, t, first[t], put(t, first[t], "no-such-map")) for t in ("pre", "post", "sub")}
    faults.update({f"not total {t}": (
        (MalformedTable, f"{nm}: {t} not total at {_show(last[t])}"), 0, t, last[t],
        lambda t, tn=t: t[tn].pop(last[tn])) for t in ("pre", "post", "sub")})
    faults.update({
        "pre slot": stray("pre", (pf, 7, pp), PRE, m.pre[first["pre"]]),
        "sub slot": stray("sub", (sg, 0, sf), SUB, m.sub[first["sub"]]),
        "pre not composable": stray("pre", (f2, 1, p), PRE, f2),
        "post not composable": stray("post", (q, f2), POST, f2),
        "sub not composable": stray("sub", (f2, 1, h2), SUB, f2),
        "outside stored cases": stray("sub", (g4, 1, f2), SUB, g4),
    })
    if skew:
        js = sorted(m.j)
        loose_only = next(f for f in sorted(idx) if idx[f][3] == {LOOSE})
        landing = next(key for key in sorted(m.sub)[1:-1] if idx[m.sub[key]][3] == {TIGHT})
        faults.update({
            "j dangles": ((DanglingId, f"{nm}: j component no-such-map at {js[0]} is not a "
                                       "multimap"), 1, "j", js[0], put("j", js[0], "no-such-map")),
            "j not tight": stray("j", loose_only, "a tight unary or binary map", m.j[js[0]]),
            "j not loose": ((TypingViolation, f"{nm}: j({js[1]}) = {maps(3)[0]} is not loose"),
                            2, "j", js[1], put("j", js[1], maps(3)[0])),
            "j missing": ((MalformedTable, f"{nm}: j not total at {js[-1]}"), 0, "j", js[-1],
                          lambda t: t["j"].pop(js[-1])),
            "wrong landing": ((TypingViolation, f"{nm}: sub {_show(landing)} lands in the wrong "
                                                "tight/loose table"),
                              3, "sub", landing, put("sub", landing, loose_only)),
        })
    return faults


def _with_faults(m, edits):
    tables = {t: dict(getattr(m, t)) for t in ("pre", "post", "sub", "j") if hasattr(m, t)}
    for edit in edits:
        edit(tables)
    return dataclasses.replace(m, **tables)


def _rank(m, fault, applied):
    """Where check_structure meets a fault that was the `applied`-th edit
    (0 or 1): every missing key before any other fault, the pre, post, sub
    and j tables in that order, the entries of a table in table order, a
    key the edits added after the existing ones and in the order they added
    it; then a j value that is not loose, then a sub result in the wrong
    table."""
    _, stage, table, key, _ = fault
    entries = list(getattr(m, table))
    position = entries.index(key) if key in entries else len(entries) + applied
    return stage, ("pre", "post", "sub", "j").index(table), position



@pytest.mark.parametrize("which", ["zmod3", "poset2-first"])
def test_check_structure_double_faults_match_reference(which):
    """Each fault alone gives its pinned outcome. Every ordered pair of
    faults, built with dataclasses.replace rather than through the parser,
    gives the outcome of the fault _rank puts first."""
    m = poset2_first_short_skew() if which == "poset2-first" else dict(_cyclic(3))["zmod3"]
    faults = _faults(m)
    for name, (want, *_, edit) in faults.items():
        x = _with_faults(m, [edit])
        assert _outcome(type(m).check_structure, x) == want, name
        assert _breaks_the_format(x), name
    differ, winners = [], collections.Counter()
    for (a, fa), (b, fb) in itertools.permutations(faults.items(), 2):
        x = _with_faults(m, [fa[-1], fb[-1]])
        first = a if _rank(m, fa, 0) < _rank(m, fb, 1) else b
        have = _outcome(type(x).check_structure, x)
        if have != faults[first][0]:
            differ.append((a, b, have))
        winners[first] += 1
    assert not differ, differ[:5]
    # every fault wins against some other, but for the sub result in the
    # wrong table, which is checked last (two added keys of one table meet
    # in the order they were added, so each of them wins once)
    assert set(faults) - set(winners) == ({"wrong landing"} if which == "poset2-first"
                                          else set()), winners
    assert len(faults) == (17 if which == "poset2-first" else 12)


# --------------------------------------------------------------------------
# the parser against "Lexical rules" and "Refusals"
# --------------------------------------------------------------------------

def _refusal_templates():
    """The MESSAGE column of the table in "Refusals" of docs/format.md."""
    section = DOC.split("\n## Refusals\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(.+?)` \|", section, re.M)


def _pattern(template):
    """A template as a regular expression: an upper-case word stands for a
    token, and LINE and ARGS for any text."""
    def group(word):
        return f"(?P<{word[1]}>{'.*' if word[1] in ('LINE', 'ARGS') else '[^ ]+'})"

    return re.compile(re.sub(r"\b(BYTE|TOKEN|KW|VALUE|KIND|OBJ|N|M|K|LINE|ARGS)\b", group,
                             re.escape(template)))


def _first(c, kw):
    """Whether line c.n holds the first record of keyword kw."""
    return c.kw == kw and all(e is None or e[0] != kw for e in c.recs[:c.n - 1])


def _repeats(c, k):
    """Whether line c.n repeats the key of the record at line k < c.n."""
    first = c.recs[k - 1] if 0 < k < c.n else None
    return first is not None and first[0] == c.kw and _key(first) == _key(c.record)


# "Refusals": what the line a message names must hold, given the parts g
# of the message. No edit of text reaches the first three.
HOLDS = {
    "not UTF-8: byte BYTE": lambda c, g: False,
    "the file begins with a byte-order mark (U+FEFF)": lambda c, g: False,
    "empty key": lambda c, g: False,
    "expected 'key = value' in 'LINE'":
        lambda c, g: c.record is None and c.line.strip() == g["LINE"],
    "token 'TOKEN' holds '='": lambda c, g: "=" in g["TOKEN"] and g["TOKEN"] in c.args + c.vals,
    "missing KW line":
        lambda c, g: c.n == 1 and all(e is None or e[0] != g["KW"] for e in c.recs),
    "duplicate KW line": lambda c, g: c.kw == g["KW"] and not _first(c, c.kw),
    "KW expects 0 arguments": lambda c, g: c.kw == g["KW"] and c.args != [],
    "KW expects exactly one value": lambda c, g: c.kw == g["KW"] and len(c.vals) != 1,
    "unsupported format version VALUE": lambda c, g: c.kw == "format" and c.vals == [g["VALUE"]]
                                                     and g["VALUE"] != "1",
    "unknown kind 'KIND'": lambda c, g: c.kw == "kind" and c.vals == [g["KIND"]]
                                        and g["KIND"] not in DOC_KINDS,
    "repeated object 'OBJ' in objects": lambda c, g: c.kw == "objects"
                                                     and c.vals.count(g["OBJ"]) > 1,
    "variant must be plain or skew, got 'VALUE'":
        lambda c, g: c.kw == "variant" and c.vals == [g["VALUE"]]
                     and g["VALUE"] not in ("plain", "skew"),
    "KW expects N arguments, got M":
        lambda c, g: c.kw == g["KW"] and len(c.args) == int(g["M"]) != int(g["N"]),
    "undeclared object 'OBJ'":
        lambda c, g: c.kw in ("hom", "id") and g["OBJ"] in c.args and g["OBJ"] not in c.objects,
    "expected a position, got 'TOKEN'":
        lambda c, g: c.kw in ("pre", "sub") and c.args[1:2] == [g["TOKEN"]],
    "repeated key KW ARGS, first given at line K":
        lambda c, g: c.kw == g["KW"] and " ".join(c.args) == g["ARGS"] and _repeats(c, int(g["K"])),
    "unexpected keyword 'KW' for kind KIND":
        lambda c, g: _first(c, g["KW"]) and c.kw not in _keywords(c.recs),
}


@dataclasses.dataclass
class _Line:
    """Line n of a text: its record under the lexical rules, or None, and
    the records of every line."""
    line: str
    n: int
    recs: list

    def __post_init__(self):
        self.record = self.recs[self.n - 1] if 0 < self.n <= len(self.recs) else None
        self.kw, self.args, self.vals = self.record or ("", [], [])
        self.objects = next((e[2] for e in self.recs if e and e[0] == "objects"), [])


def _documented(message, text):
    """The template of "Refusals" that a message `line N: ...` fits with line
    N of text holding what it names, or None."""
    found = re.fullmatch(r"line (\d+): (.*)", message)
    lines = text.splitlines()
    n = int(found[1])
    c = _Line(lines[n - 1] if 0 < n <= len(lines) else "", n, [_record(ln) for ln in lines])
    for template in _refusal_templates():
        parts = _pattern(template).fullmatch(found[2])
        if parts and HOLDS[template](c, parts.groupdict()):
            return template
    return None


def test_docs_list_every_refusal():
    """The refusals docs/format.md lists are those this file knows what to
    check for, and their templates fit no message of another."""
    templates = _refusal_templates()
    assert sorted(templates) == sorted(HOLDS)
    for a, b in itertools.permutations(templates, 2):
        assert not _pattern(a).fullmatch(b), (a, b)


def _token_swaps(text):
    """Every swap of two tokens of one line, and every swap of the tokens at
    one position of two neighbouring lines."""
    lines = text.splitlines()
    rows = [line.split() for line in lines]
    for k, toks in enumerate(rows):
        for a, b in itertools.combinations(range(len(toks)), 2):
            swapped = toks.copy()
            swapped[a], swapped[b] = toks[b], toks[a]
            yield f"swap {k}:{a},{b}", _edited(lines, {k: " ".join(swapped)})
    for k in range(len(rows) - 1):
        for a in range(min(len(rows[k]), len(rows[k + 1]))):
            one, two = rows[k].copy(), rows[k + 1].copy()
            one[a], two[a] = two[a], one[a]
            yield f"swap {k},{k + 1}:{a}", _edited(lines, {k: " ".join(one), k + 1: " ".join(two)})


def _double_faults(text):
    """Two faults at once, where the order in which they are found decides
    the outcome: on each line, its first or its second argument replaced by
    `x` with its values doubled; and a morphism listed twice in the first
    hom-set, which fails the base category, with one more argument on each
    line."""
    lines = text.splitlines()
    hom = next((k for k, line in enumerate(lines) if line.startswith("hom ")), None)
    for k, line in enumerate(lines):
        head, _, tail = line.partition(" = ")
        toks = head.split()
        for a in (1, 2)[:len(toks) - 1]:
            faulty = [*toks[:a], "x", *toks[a + 1:], "=", tail, tail]
            yield f"x at {k}:{a}", _edited(lines, {k: " ".join(faulty)})
        if hom is not None and k != hom:
            twice = f"{lines[hom]} {lines[hom].split(' = ')[1].split()[0]}"
            yield f"base and {k}", _edited(lines, {hom: twice, k: f"{head} x = {tail}"})


def _repeated_objects(text):
    """The objects line with each of its members listed a second time, on
    its own and under every single-line deletion and duplication."""
    lines = text.splitlines()
    k = next((k for k, line in enumerate(lines) if line.startswith("objects =")), None)
    for obj in lines[k].split()[2:] if k is not None else ():
        twice = _edited(lines, {k: f"{lines[k]} {obj}"})
        yield f"repeat {obj}", twice
        yield from _line_edits(twice)


@functools.cache
def _edited_files():
    """The files to edit: the smallest of each kind among those of every
    generator, Z/2..Z/4, a skew morphism and a lax functor; the skew
    morphism; and the terminal skew monoidal file with provenance."""
    generators = [g for g in cli.GENERATORS if g != "comm-monoid"]
    files = [sf for g in generators for sf in cli.catalogue_files(g)]
    files += [sf for n in (2, 3, 4) for sf in _cyclic_files(n)]
    terminal = {sf.kind: sf for sf in cli.catalogue_files("terminal")}
    skew = terminal["short-skew"].payload[0]
    files.append(StructureFile("morphism", "id[terminal.skew]",
                               unbind_morphism(identity_skew_morphism(skew))))
    files += _identity_lax_functors([terminal["skew-monoidal"]])
    small = {}
    for sf in files:
        size = len(serialize(sf))
        if sf.kind not in small or size < small[sf.kind][0]:
            small[sf.kind] = size, sf
    edited = [sf for _, sf in small.values()] + [
        next(sf for sf in files if sf.name == "id[terminal.skew]"),
        dataclasses.replace(terminal["skew-monoidal"],
                            provenance={"construction": "k", "source": "terminal"})]
    return [(sf.kind, serialize(sf)) for sf in edited]


def _edited(lines, changes):
    """The text of lines with the lines at the keys of changes replaced."""
    return "\n".join(changes.get(i, line) for i, line in enumerate(lines)) + "\n"


def test_an_edit_parses_to_its_records_or_is_refused_where_the_docs_say():
    """Every line deletion and duplication, token swap, pair of faults and
    repeated object of the smallest file of each kind either parses to the
    canonical lines of its records, with the non-canonical warning unless it
    is canonical, or is refused with a message of "Refusals" at a line that
    holds what it names; or, a table fault, by the structure it builds."""
    edited = _edited_files()
    assert {kind for kind, _ in edited} == DOC_KINDS
    outcomes, templates, wrong = collections.Counter(), collections.Counter(), []
    for k, (kind, text) in enumerate(edited):
        for label, edit in itertools.chain(_line_edits(text), _token_swaps(text),
                                           _double_faults(text), _repeated_objects(text)):
            try:
                back, warnings = parse(edit)
            except ParseError as exc:
                template = _documented(str(exc), edit)
                wrong += [] if template else [(k, label, str(exc))]
                templates[template] += 1
                outcomes["refused"] += 1
                continue
            except MalformedTable:
                outcomes["structure"] += 1
                continue
            canonical = _canonical(edit)
            want = [NON_CANONICAL] if edit != canonical else []
            if (serialize(back), warnings) != (canonical, want):
                wrong.append((k, label, serialize(back), warnings))
            outcomes["parsed"] += 1
    assert not wrong, wrong[:5]
    assert min(outcomes.values()) > 50, outcomes
    assert len(templates) >= 10, templates


def _apply(lines, where, how, new):
    """The lines with the first record of keyword `where` deleted, replaced
    by the lines of new or followed by them, and the fields of a message:
    the number of that record, `at`, and of the first and last new line,
    `n` and `m`, and the record's line, arguments and first value. None
    when no record has that keyword."""
    at = next((k for k, line in enumerate(lines) if (_record(line) or "")[:1] == (where,)), None)
    if at is None:
        return None
    kw, args, vals = _record(lines[at])
    fields = dict(line=lines[at], args=args, v=vals[0] if vals else "")
    added = new.format(**fields).split("\n") if how != "delete" else []
    k = at + (how == "after")
    return lines[:k] + added + lines[at + 1:], dict(
        fields, at=at + 1, n=k + 1, m=k + len(added))


# One row per refusal, and per order in which two refusals meet: an edit of
# the first record of a keyword (`where`), which deletes it, replaces it
# with the lines of `new` or adds them after it, and the error it ends in.
# `new` and the message are format strings of the record's line, arguments
# (args) and first value (v); the message also of the line numbers of the
# record (at), of the first and last new line (n, m) and of the file's kind.
REFUSALS = [
    *[(kw, "delete", "", f"line 1: missing {kw} line")
      for kw in ("format", "kind", "name", "objects", "unit", "source", "target", "variant",
                 "f0")],
    ("format", "replace", "format = 2", "line {n}: unsupported format version 2"),
    ("format", "replace", "format = 1 1", "line {n}: format expects exactly one value"),
    ("kind", "replace", "kind = mystery", "line {n}: unknown kind 'mystery'"),
    ("kind", "after", "{line}", "line {n}: duplicate kind line"),
    ("name", "replace", "name x = y", "line {n}: name expects 0 arguments"),
    ("name", "replace", "name = a b", "line {n}: name expects exactly one value"),
    ("name", "replace", "name = a=b", "line {n}: token 'a=b' holds '='"),
    ("name", "replace", "name = a = b", "line {n}: token '=' holds '='"),
    ("name", "after", "junk", "line {n}: expected 'key = value' in 'junk'"),
    ("name", "after", "alien x = y", "line {n}: unexpected keyword 'alien' for kind {kind}"),
    ("name", "after", "provenance a b = c", "line {n}: provenance expects 1 arguments, got 2"),
    ("provenance", "after", "{line}",
     "line {n}: repeated key provenance {args[0]}, first given at line {at}"),
    ("variant", "replace", "variant = odd", "line {n}: variant must be plain or skew, got 'odd'"),
    ("objects", "replace", "objects x = {v}", "line {n}: objects expects 0 arguments"),
    ("objects", "replace", "{line} {v}", "line {n}: repeated object '{v}' in objects"),
    ("hom", "replace", "hom {args[0]} = {v}", "line {n}: hom expects 2 arguments, got 1"),
    ("hom", "replace", "hom {args[0]} x = {v}", "line {n}: undeclared object 'x'"),
    # in a run of hom lines, which the block reader reads
    ("hom", "after", "hom {args[0]} x = zz", "line {n}: undeclared object 'x'"),
    ("hom", "after", "{line}",
     "line {n}: repeated key hom {args[0]} {args[1]}, first given at line {at}"),
    ("id", "replace", "id x = {v}", "line {n}: undeclared object 'x'"),
    ("id", "after", "id x = {v}", "line {n}: undeclared object 'x'"),
    ("id", "replace", "{line} {v}", "line {n}: id expects exactly one value"),
    # in a run of id lines, which the block reader must not read as one
    ("id", "replace", "id {args[0]} = a=b", "line {n}: token 'a=b' holds '='"),
    ("pre", "replace", "pre {args[0]} x {args[2]} = {v}", "line {n}: expected a position, got 'x'"),
    ("sub", "after", "sub {args[0]} x {args[2]} = {v}", "line {n}: expected a position, got 'x'"),
    ("pre", "after", "pre {args[0]} 0{args[1]} {args[2]} = {v}",
     "line {n}: repeated key pre {args[0]} 0{args[1]} {args[2]}, first given at line {at}"),
    ("obj", "replace", "obj = {v}", "line {n}: obj expects 1 arguments, got 0"),
    ("obj", "after", "{line}", "line {n}: repeated key obj {args[0]}, first given at line {at}"),
    # the order of two refusals: the lines, then the header, then the
    # records keyword by keyword, and within a record the argument count,
    # the declared objects, the value count, the position and the key; a
    # keyword of no kind last
    ("name", "after", "name = again\njunk", "line {m}: expected 'key = value' in 'junk'"),
    ("name", "after", "alien x = y\nname = again", "line {m}: duplicate name line"),
    ("hom", "after", "comp x = y\nhom x = y", "line {m}: hom expects 2 arguments, got 1"),
    ("id", "after", "alien x = y\nid x = {v}", "line {m}: undeclared object 'x'"),
    ("hom", "replace", "hom x = {v}", "line {n}: hom expects 2 arguments, got 1"),
    ("id", "replace", "id x = {v} {v}", "line {n}: undeclared object 'x'"),
    ("id", "after", "{line} {v}", "line {n}: id expects exactly one value"),
    ("pre", "replace", "pre {args[0]} x {args[2]} = {v} {v}",
     "line {n}: pre expects exactly one value"),
    ("pre", "after", "pre {args[0]} x {args[2]} = {v}\n{line}",
     "line {n}: expected a position, got 'x'"),
]


@pytest.mark.parametrize("where,how,new,message", REFUSALS, ids=[
    f"{where}-{how}-" + re.sub(r"\W+", "-", message.partition(": ")[2]).strip("-")
    for where, how, _, message in REFUSALS])
def test_a_refusal_names_its_line(tmp_path, capsys, where, how, new, message):
    """Each edit of the refusal table, on every file that has the record it
    edits (the smallest of each kind, a skew morphism and a file with
    provenance), is refused by parse with its message, and by `shortcat
    validate` with that message on one error line and exit 2."""
    tried = 0
    for kind, text in _edited_files():
        applied = _apply(text.splitlines(), where, how, new)
        if applied is None:
            continue
        edit, fields = applied
        want = message.format(kind=kind, **fields)
        text = "\n".join(edit) + "\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == want, (kind, text)
        assert _documented(want, text), (kind, want)
        path = tmp_path / "edit.txt"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == cli.EXIT_USAGE, kind
        assert capsys.readouterr() == ("", f"error: {want}\n"), kind
        tried += 1
    assert tried, "the edit applies to some file"


# --------------------------------------------------------------------------
# the block reader against the line reader
# --------------------------------------------------------------------------
# _records reads a run of lines that share a keyword as one block of columns
# only when its guards prove that the line reader would read the run the
# same. Each edit below breaks one guard within a run, so a guard that let a
# wrong run through shows as a parse that differs from the parse through the
# line reader alone, _line_records.

def _parsed(parse_, text):
    """The serialized payload and warnings parse_ reads from text, or the
    type and message of what it raises."""
    try:
        sf, warnings = parse_(text)
    except Exception as exc:  # the outcome is compared with the line reader's
        return type(exc), str(exc)
    return serialize(sf), warnings


def _block_sources():
    """A larger file of each kind: Z/3 in the short kinds, the Klein four
    group and its base, its symmetric braiding and identity morphism, the
    identity lax functor on it and the Heyting skew closed category."""
    z3 = {sf.kind: sf for sf in _cyclic_files(3)}
    klein = {sf.kind: sf for sf in cli.catalogue_files("klein-four")}
    files = [z3["short-multi"], z3["short-skew"], klein["skew-monoidal"], klein["braiding"],
             StructureFile("category", "klein.base", klein["short-multi"].payload.base),
             next(sf for sf in cli.catalogue_files("heyting-2") if sf.kind == "skew-closed"),
             next(sf for sf in cli.catalogue_files("morphisms") if sf.name == "id[klein]")]
    return files + list(_identity_lax_functors([klein["skew-monoidal"]]))


def _runs(lines):
    """The first and last index of each run of two or more lines that share
    their first token."""
    keys = [line.split(" ", 1)[0] for line in lines]
    starts = [k for k in range(len(lines)) if k == 0 or keys[k] != keys[k - 1]]
    return [(a, b - 1) for a, b in zip(starts, starts[1:] + [len(lines)]) if b - a > 1]


def _line_guard_edits(line):
    """Edits of one line, each aimed at one guard of the block reader."""
    head, _, tail = line.partition(" = ")
    kw, *args = head.split()
    yield from (line.replace(" ", "\t", 1), line.replace(" ", "  ", 1), head + "\t= " + tail)
    yield from (" " + line, line + " ", "# x = y\n" + line, "\n" + line, line + "\n" + line)
    yield from (head + " = x=y", line + " = z", line + " z", head + " =", head + " =" + tail,
                f"{head} z = {tail}", f"{kw} = {tail}")
    if args:
        yield from (" ".join((kw, tok, *args[1:])) + " = " + tail for tok in ("x=y", kw))
    if kw in ("pre", "sub"):
        yield from (" ".join((kw, args[0], slot, args[2])) + " = " + tail
                    for slot in ("x", "0" + args[1]))


# The argument count and shape of each record keyword.
SHAPES = {kw: (nargs, shape) for rows in (*ROWS.values(), *MORPHISM_TABLES.values())
          for kw, nargs, shape in rows}


def _guard_edits(text):
    """The guard edits of the first and the last line of the first run of
    each record shape and argument count in text, each such line moved to
    the end, and pairs of its lines shifted into rows that still align; a
    line break other than \\n in a line; the text with CRLF line ends and
    without its final newline."""
    lines = text.splitlines()
    runs = _runs(lines)
    shapes = {SHAPES[lines[first].split()[0]]: (first, last) for first, last in runs[::-1]}
    for first, last in shapes.values():
        for k in (first, last):
            for edit in _line_guard_edits(lines[k]):
                yield _edited(lines, {k: edit})
            yield _edited(lines[:k] + lines[k + 1:] + [lines[k]], {})
        # Two lines that still split into twice the width, with kw and `=`
        # in their columns: line k ends in kw, and line k + 1 lacks its
        # keyword or its first argument.
        for k in {first, (first + last) // 2, last - 1}:
            kw, *rest = lines[k + 1].split()
            for shifted in (rest, [kw, *rest[1:]]):
                yield _edited(lines, {k: f"{lines[k]} {kw}", k + 1: " ".join(shifted)})
    k = runs[0][1]
    for brk in ("\r", "\x0c", "\x85", "\u2028", "\x1c"):
        yield _edited(lines, {k: lines[k][:-1] + brk + lines[k][-1]})
    yield text.replace("\n", "\r\n")
    yield text[:-1]


@pytest.mark.parametrize("sf", _block_sources(), ids=lambda sf: f"{sf.name}.{sf.kind}")
def test_block_reader_matches_line_reader(sf, monkeypatch):
    """Every run of two or more lines of the unedited file is read as one
    block, and every guard edit parses as the line reader parses it: the same
    serialized payload and warnings, or the same exception and message."""
    blocks, block_reader = [], fileformat._block

    def counted(run, kw, no):
        block = block_reader(run, kw, no)
        blocks.append(block)
        return block

    text = serialize(sf)
    monkeypatch.setattr(fileformat, "_block", counted)
    assert _parsed(parse, text) == (text, [])
    assert blocks and None not in blocks and len(blocks) == len(_runs(text.splitlines()))
    edits = list(_guard_edits(text))
    have = [_parsed(parse, edit) for edit in edits]
    monkeypatch.setattr(fileformat, "_records", fileformat._line_records)
    differ = [(edit, got) for edit, got in zip(edits, have) if got != _parsed(parse, edit)]
    assert not differ, differ[:3]
    assert len(edits) > 40
