"""The table-driven serializer, the lean structure checks and the
ROWS-driven parser against their former versions in reference_validators.py:
the same bytes from serialize, a raise from check_structure exactly when the
former one raises, of its class or DanglingId for its MalformedTable (on line
edits of files and on single faults), the pinned message of the fault met
first on pairs of faults, and the same outcome from parse apart from the
four rules the format gained."""
import collections
import dataclasses
import itertools
import re

import pytest

import reference_validators as ref
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
from test_kernel import _cyclic, _cyclic_files


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


def test_serialize_matches_reference():
    """Every generator's files (the mutants and morphisms among them), Z/2..Z/4,
    the k and ks constructions of the catalogue and the identity lax functor on
    each skew monoidal file, byte for byte."""
    generators = [g for g in cli.GENERATORS if g != "comm-monoid"]
    files = [sf for g in generators for sf in cli.catalogue_files(g)]
    files += [sf for n in (2, 3, 4) for sf in _cyclic_files(n)]
    files += list(_constructed(f for g in ("terminal", "z2", "heyting-2")
                               for f in cli.catalogue_files(g)))
    files += list(_identity_lax_functors(files))
    differ = [f"{sf.name}.{sf.kind}" for sf in files if serialize(sf) != ref.serialize(sf)]
    assert not differ, differ
    assert {sf.kind for sf in files} == {
        "category", "short-multi", "short-skew", "skew-monoidal", "skew-closed", "braiding",
        "morphism", "lax-functor"}, "every kind a file can hold"
    assert len(files) > 100


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
    except Exception as exc:  # the reference's exception is the expectation
        return type(exc), str(exc)
    return None


def _agrees(have, want):
    """The outcome of check_structure against the reference's: a raise
    exactly when the reference raises, a MalformedTable of the reference's
    class, or DanglingId where the reference gave MalformedTable (a key
    outside its table's domain, which the reference tested part by part)."""
    if have is None or want is None:
        return have is want
    return issubclass(have[0], MalformedTable) and (
        have[0] is want[0] or (have[0], want[0]) == (DanglingId, MalformedTable))


@pytest.mark.parametrize("source", [f"{g}.{k}" for g, k in EDITED] + ["test_cli"])
def test_check_structure_matches_reference(source):
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
        want = _outcome(ref.check_structure, m)
        have = _outcome(type(m).check_structure, m)
        if not _agrees(have, want):
            differ.append((label, have, want))
        tried += 1
        raised += want is not None
    assert not differ, differ[:5]
    assert tried >= 6 and raised >= 4, (tried, raised)


PRE, POST, SUB = KEY_DOMAINS["pre"], KEY_DOMAINS["post"], KEY_DOMAINS["sub"]


def _show(key):
    return f"({','.join(map(str, key))})" if isinstance(key, tuple) else key


def _faults(m):
    """One structure fault per raise site of the former check_structure:
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
    """Each fault alone gives its pinned outcome, which agrees with the
    former check_structure as test_check_structure_matches_reference asks.
    Every ordered pair of faults, built with dataclasses.replace rather than
    through the parser, gives the outcome of the fault _rank puts first."""
    m = poset2_first_short_skew() if which == "poset2-first" else dict(_cyclic(3))["zmod3"]
    faults = _faults(m)
    for name, (want, *_, edit) in faults.items():
        x = _with_faults(m, [edit])
        have = _outcome(type(m).check_structure, x)
        assert have == want, (name, have)
        assert _agrees(have, _outcome(ref.check_structure, x)), (name, have)
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
# the parser against the former one
# --------------------------------------------------------------------------
# The format gained four rules: a key given twice is an error, `kw args =`
# is a record with no values, where the former parser read the `=` as one
# more argument, an object listed twice in `objects` is an error, where
# the former parser kept both, and an argument or value token that holds
# `=` is an error, where the former parser kept it. Every other outcome must
# be the former one: the same serialized payload and warnings, or the same
# exception type and message (which holds the line number).

REPEAT = re.compile(r"line (\d+): repeated key (\S+) (.*), first given at line (\d+)")
REPEATED_OBJECT = re.compile(r"line (\d+): repeated object '(\S+)' in objects")
EQUALS = re.compile(r"line (\d+): token (.+) holds '='")


def _no_values(line):
    line = line.strip()
    return line.endswith(" =") and " = " not in line and not line.startswith("#")


class _EmptyValueLines(ref._Lines):
    """The former reader with the rule that `kw args =` has no values."""

    def __init__(self, text):
        super().__init__("\n".join(line.rstrip() + " \0" if _no_values(line) else line
                                   for line in text.splitlines()))
        for rows in self.rows.values():
            for _, _, vals in rows:
                if vals == ["\0"]:
                    vals.clear()


def _parsed(parse_, text):
    try:
        sf, warnings = parse_(text)
    except Exception as exc:  # the former parser's exception is the expectation
        return type(exc), str(exc)
    return serialize(sf), warnings


def _former(text):
    """The former parser's outcome, and its outcome under the rule that
    `kw args =` has no values."""
    former = _parsed(ref.parse, text)
    if not any(map(_no_values, text.splitlines())):
        return former, former
    lines_class, ref._Lines = ref._Lines, _EmptyValueLines
    try:
        return former, _parsed(ref.parse, text)
    finally:
        ref._Lines = lines_class


def _equals_token(line):
    """The first argument or value token of a record line that holds '=', or
    None."""
    line = line.strip()
    head, sep, tail = line.partition(" = ")
    if line.startswith("#") or not sep and not line.endswith(" ="):
        return None
    toks = (head if sep else line[:-2]).split()[1:] + tail.split()
    return next((tok for tok in toks if "=" in tok), None)


def _head(line, keyword):
    """The key tokens of a record, with the slot of a pre or sub record read
    as the integer it names."""
    toks = line.strip().partition(" = ")[0].split()
    if keyword in ("pre", "sub"):
        toks[2] = int(toks[2])
    return toks


def _edited(lines, changes):
    """The text of lines with the lines at the keys of changes replaced."""
    return "\n".join(changes.get(i, line) for i, line in enumerate(lines)) + "\n"


def _check(text, rules):
    """Assert that parse agrees with the former parser on text once the three
    rules are applied, and count in rules each rule a difference needed."""
    former, want = _former(text)
    if want != former:
        rules["no values"] += 1
    got = _parsed(parse, text)
    if got == want:
        return
    lines = text.splitlines()
    found = REPEATED_OBJECT.fullmatch(got[1]) if got[0] is ParseError else None
    if found:
        # The error names the first object its line lists a second time; with
        # each object listed once, the two parsers must agree.
        n, obj = int(found[1]), found[2]
        head, sep, tail = lines[n - 1].partition(" = ")
        members = tail.split()
        first = next(m for k, m in enumerate(members) if m in members[:k])
        assert head.split() == ["objects"] and obj == first, (got, want)
        once = _edited(lines, {n - 1: head + sep + " ".join(dict.fromkeys(members))})
        rules["repeated object"] += 1
        _check(once, rules)
        return
    found = EQUALS.fullmatch(got[1]) if got[0] is ParseError else None
    if found:
        # The error names the first line that holds such a token, and the
        # first such token of that line; with that line a comment, the two
        # parsers must agree.
        n = int(found[1])
        assert not any(map(_equals_token, lines[:n - 1])), (got, want)
        assert repr(_equals_token(lines[n - 1])) == found[2], (got, want)
        rules["token with ="] += 1
        _check(_edited(lines, {n - 1: "#"}), rules)
        return
    found = REPEAT.fullmatch(got[1]) if got[0] is ParseError else None
    assert found, (got, want)
    n, keyword, key, k = int(found[1]), found[2], found[3], int(found[4])
    assert k < n and _head(lines[k - 1], keyword) == _head(lines[n - 1], keyword)
    assert lines[n - 1].split()[:len(key.split()) + 1] == [keyword, *key.split()]
    # The former parser let line n overwrite line k: it read the text as if
    # line k were a comment. With line k a comment, the two must agree.
    commented = _edited(lines, {k - 1: "#"})
    assert _former(commented)[1] == want, (got, want)
    rules["repeated key"] += 1
    _check(commented, rules)


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


def _parse_sources():
    """The files of every generator, Z/2..Z/4, and a skew morphism and a lax
    functor; with the smallest file of each kind, to be edited."""
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
    return files, edited


def test_parse_matches_reference():
    files, edited = _parse_sources()
    assert {sf.kind for sf in edited} == set(ROWS)
    rules = collections.Counter()
    for sf in files:
        _check(serialize(sf), rules)
    assert not rules, "the unedited files hold no repeated key and no empty value list"
    cases = 0
    for sf in edited:
        text = serialize(sf)
        for _, edit in itertools.chain(_line_edits(text), _token_swaps(text),
                                       _double_faults(text), _repeated_objects(text)):
            _check(edit, rules)
            cases += 1
    assert rules["repeated key"] > 50 and rules["no values"] > 50, (rules, cases)
    assert rules["repeated object"] > 50 and rules["token with ="] >= 50, (rules, cases)


# --------------------------------------------------------------------------
# the block reader against the line reader
# --------------------------------------------------------------------------
# _records reads a run of lines that share a keyword as one block of columns
# only when its guards prove that the line reader would read the run the
# same. Each edit below breaks one guard within a run, so a guard that let a
# wrong run through shows as a parse that differs from the parse through the
# line reader alone, _line_records.

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
