"""Batch front-end: validate, certify, construct, roundtrip, catalogue.

Exit codes: 0 pass, 1 axiom failure, 2 usage/parse error, 3 internal
inconsistency (a broken witness, disagreeing verdicts or any unexpected
exception, which signal an implementation bug rather than a failing
structure).
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import (
    InconsistentVerdicts, MalformedTable, NoIsomorphismFound, ParseError,
    SearchBoundExceeded, ShortcatError, UniversalityBroken, UnknownGenerator,
)
from .fileformat import (
    StructureFile, bind_lax_functor, bind_morphism, parse, serialize, unbind_morphism, validate,
)

if TYPE_CHECKING:
    from .catalogue import Monoid
    from .classify import Certificate
    from .report import ValidationReport

# Each command, and each file kind within a command, imports the modules it
# runs in its own body: a one-shot call then compiles only those, which is
# most of the time a cold start on a small file takes.

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _load(path: str, args) -> StructureFile:
    """The structure file at path, within the size guard of args. A file that
    is not UTF-8 is a parse error at the line of its first bad byte, and one
    that begins with a byte-order mark a parse error at line 1; line ends are
    translated to \\n as open() translates them in text mode."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"not UTF-8: byte {data[exc.start]:#04x}") from None
    if text.startswith("\ufeff"):
        raise ParseError(1, "the file begins with a byte-order mark (U+FEFF)")
    sf, warnings = parse(text.replace("\r\n", "\n").replace("\r", "\n"))
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    _guard_size(sf, args)
    return sf


def _guard_size(sf: StructureFile, args) -> None:
    structure = sf.structure
    base = getattr(structure, "base", structure)
    if hasattr(base, "objects") and len(base.objects) > args.max_objects:
        raise SearchBoundExceeded(
            f"{sf.name}: {len(base.objects)} objects exceeds --max-objects {args.max_objects}")
    tables = structure._tables() if hasattr(structure, "_tables") else ()
    size = max((len(fs) for _, t in tables for fs in t.values()), default=0)
    if size > args.max_multimaps:
        raise SearchBoundExceeded(
            f"{sf.name}: a multimap set of size {size} exceeds "
            f"--max-multimaps {args.max_multimaps}")


def _expect(sf: StructureFile, command: str, kinds: tuple[str, ...]) -> None:
    if sf.kind not in kinds:
        raise MalformedTable(f"{command} expects a {' or '.join(kinds)} file, got {sf.kind}")


def _validate_file(sf: StructureFile, args) -> ValidationReport:
    """The report validate prints: a structure's own families, and then
    those of its swap tables, if it has them, under the braiding- prefix."""
    kind, payload = sf.kind, sf.payload
    if kind not in ("morphism", "lax-functor"):
        report, swap = validate(kind, payload)
        if swap is not None:
            report.merge_prefixed(swap, "braiding-")
        return report.finish()
    if not args.source or not args.target:
        raise MalformedTable(f"validating a {kind} file needs --source and --target")
    plain = kind == "morphism" and payload.variant == "plain"
    end = "skew-monoidal" if kind == "lax-functor" else "short-multi" if plain else "short-skew"
    # one path names one structure, loaded and checked once
    ends = {path: _end(path, end, args) for path in dict.fromkeys((args.source, args.target))}
    src, tgt = ends[args.source], ends[args.target]
    if kind == "lax-functor":
        from .skewmon import validate_lax_functor
        return validate_lax_functor(bind_lax_functor(payload, sf.name, src, tgt))
    F = bind_morphism(payload, sf.name, src, tgt)
    if plain:
        from .shortmulti import validate_multi_morphism
        return validate_multi_morphism(F)
    from .shortskew import validate_skew_multi_morphism
    return validate_skew_multi_morphism(F)


def _end(path: str, kind: str, args):
    """The structure in the --source or --target file at path, which must be
    of the given kind (the structure half of a short-skew file), within the
    size guard and pass its check_structure."""
    sf = _load(path, args)
    if sf.kind != kind:
        raise MalformedTable(f"{path}: expected a {kind} file, got {sf.kind}")
    sf.structure.check_structure()
    return sf.structure


def _report_path(out: str) -> Path:
    p = Path(out)
    env = os.environ.get("SHORTCAT_REPORT_DIR")
    if env and not p.is_absolute():
        return Path(env) / p
    return p


def cmd_validate(args) -> int:
    sf = _load(args.path, args)
    report = _validate_file(sf, args)
    text = report.render()
    if args.report:
        path = _report_path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_PASS if report.ok else EXIT_FAIL


# --------------------------------------------------------------------------
# certification
# --------------------------------------------------------------------------

def render_certificate(cert: Certificate, witnesses: bool = True) -> str:
    lines = [f"certificate {cert.name}"]
    flags = [
        ("weakly-representable", cert.weakly_representable),
        ("left-representable", cert.left_representable),
        ("representable", cert.representable),
        ("closed", cert.closed if cert.homs is not None else None),
    ]
    for key, value in flags:
        shown = "n/a" if value is None else ("yes" if value else "no")
        lines.append(f"flag {key} = {shown}")
    if cert.nullary is not None:
        lines.append(f"nullary-classifier = {cert.nullary.obj} via {cert.nullary.via}")
        for cl in cert.nullary_candidates:
            lines.append(f"nullary-candidate = {cl.obj} via {cl.via}")
    for (a, b) in sorted(cert.binary):
        cl = cert.binary[(a, b)]
        if cl is None:
            lines.append(f"binary-classifier {a} {b} = none")
        else:
            lines.append(f"binary-classifier {a} {b} = {cl.obj} via {cl.via}")
        for cand in cert.binary_candidates.get((a, b), []):
            lines.append(f"binary-candidate {a} {b} = {cand.obj} via {cand.via}")
    if cert.homs is not None:
        for (b, c) in sorted(cert.homs):
            h = cert.homs[(b, c)]
            if h is None:
                lines.append(f"hom {b} {c} = none")
            else:
                lines.append(f"hom {b} {c} = {h.obj} via {h.via}")
    for rec in cert.derived:
        lines.append(f"derived {rec.kind} {' '.join(rec.key)} = {rec.obj} via "
                     f"{rec.theta} checked {rec.instances}")
    if witnesses:
        owners = [("nullary", cert.nullary)]
        owners += [(f"binary({a},{b})", cert.binary[a, b]) for a, b in sorted(cert.binary)]
        owners += [(f"hom({b},{c})", cert.homs[b, c]) for b, c in sorted(cert.homs or {})]
        # each key is shown once per certificate, and each key set put in
        # the order of its shown forms once: most owners share their keys
        shown: dict = {}
        order: dict[frozenset, list] = {}
        for owner, held in owners:
            table = {} if held is None else held.witness
            keys = frozenset(table)
            ranked = order.get(keys)
            if ranked is None:
                for k in keys - shown.keys():
                    shown[k] = str(k)
                ranked = order[keys] = sorted((shown[k], k) for k in keys)
            for text, key in ranked:
                pairs = table[key]
                lines.append(f"witness {owner} {text} = "
                             + " ".join([f"{v}:{pairs[v]}" for v in sorted(pairs)]))
    return "\n".join(lines) + "\n"


def cmd_certify(args) -> int:
    from .classify import certify, check_representable, derived_classifiers, find_closed_structure
    sf = _load(args.path, args)
    _expect(sf, "certify", ("short-multi", "short-skew"))
    m = sf.structure
    m.check_structure()
    try:
        cert = certify(m)
        find_closed_structure(m, cert)
        if cert.left_representable:
            derived_classifiers(m, cert)
        if sf.kind == "short-multi" and cert.weakly_representable:
            check_representable(m, cert)
    except (InconsistentVerdicts, UniversalityBroken):
        # The search's own cross-checks assume the axioms hold; on a
        # structure that fails them the failure is the input's, not ours.
        validate(sf.kind, m)[0].require_pass(sf.name, "certify")
        raise
    text = render_certificate(cert, witnesses=not args.no_witnesses)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_PASS


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

# The kind of file each construction reads. A braiding- construction
# validates the structure and its swap tables, as validate does; any other
# the structure alone.
CONSTRUCTIONS = {"k": "short-multi", "ks": "short-skew", "kcl": "short-skew",
                 "braiding-forward": "short-skew", "braiding-backward": "braiding"}


def cmd_construct(args) -> int:
    from .classify import certify, find_closed_structure
    from .transport import k_object, kcl_object, ks_object
    sf = _load(args.path, args)
    which, name = args.which, sf.name
    _expect(sf, f"construct {which}", (CONSTRUCTIONS[which],))
    if which.startswith("braiding-"):
        if sf.payload[1] is None:
            raise MalformedTable(f"construct {which} expects a short-skew file with swap "
                                 f"tables, got none")
        report = _validate_file(sf, args)
    else:
        report = validate(sf.kind, sf.structure)[0]
    report.require_pass(name, "construct")
    m = sf.structure
    provenance = {"source": name, "construction": which}
    if which == "braiding-backward":
        # the swap tables are induced straight off s: no certificate
        from .braiding import short_braiding_from_s
        from .induce import induce_short_skew
        induced = induce_short_skew(m, name=name + ".induced")
        beta = short_braiding_from_s(induced, m, sf.payload[1], name=name + ".beta")
        out = StructureFile("short-skew", name + ".induced", (induced, beta), provenance)
    elif which == "kcl":
        cert = certify(m)
        homs = find_closed_structure(m, cert)
        if homs is None:
            raise MalformedTable(f"{name}: not closed, cannot construct the hom side")
        out = StructureFile("skew-closed", name + ".kcl",
                            kcl_object(m, cert, homs, name=name + ".kcl"), provenance)
    elif which == "braiding-forward":
        from .braiding import s_from_short_braiding
        cert = certify(m)
        mon = ks_object(m, cert, name=name + ".ks")
        s = s_from_short_braiding(m, cert, sf.payload[1], name=name + ".s")
        out = StructureFile("braiding", name + ".braided", (mon, s), provenance)
    else:
        built = (k_object if which == "k" else ks_object)(m, certify(m), name=f"{name}.{which}")
        out = StructureFile("skew-monoidal", f"{name}.{which}", built, provenance)

    text = serialize(out)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_PASS


def cmd_roundtrip(args) -> int:
    sf = _load(args.path, args)
    _expect(sf, "roundtrip", ("skew-monoidal", "skew-closed", "braiding"))
    if sf.kind != "braiding":
        from .transport import roundtrip_check
        report = roundtrip_check(sf.payload)
    else:
        from .transport import skew_monoidal_roundtrip
        _validate_file(sf, args).require_pass(sf.name, "roundtrip")
        report = skew_monoidal_roundtrip(*sf.payload)
    print(report.render(), end="")
    return EXIT_PASS if report.ok else EXIT_FAIL


# --------------------------------------------------------------------------
# catalogue
# --------------------------------------------------------------------------

def _monoid_files(mon: Monoid) -> list[StructureFile]:
    from . import catalogue as cat
    from .shortskew import embed_plain
    sm = cat.monoid_skew_monoidal(mon)
    short = cat.thin_short_multi(mon.name, sm)
    skew = embed_plain(short)
    return [
        StructureFile("short-multi", mon.name, short),
        StructureFile("skew-monoidal", mon.name + ".mon", sm),
        StructureFile("short-skew", mon.name + ".skew",
                      (skew, cat.forced_short_braiding(skew, mon.name + ".beta"))),
        StructureFile("braiding", mon.name + ".sym", (sm, cat.monoid_symmetry(mon))),
    ]


# Characters a generated name may not hold: `=` splits a file line, and a
# path separator in the structure name would put its files outside --out.
_RESERVED = "=/\\"


def _identifier(what: str, token: str) -> str:
    """token, if a file can hold it as one name and name a file after it."""
    if not token.isprintable() or any(c.isspace() or c in _RESERVED for c in token):
        raise UnknownGenerator(f"comm-monoid {what} {token!r} must be printable, without "
                               f"whitespace or any of {' '.join(_RESERVED)}")
    return token


def _comm_monoid(args) -> Monoid:
    """The commutative monoid of --elements, --unit, --table and
    --monoid-name. UnknownGenerator unless the table is a commutative monoid
    on distinct elements whose names the written files can hold."""
    from .catalogue import Monoid
    if args is None or not args.elements or not args.table or args.unit is None:
        raise UnknownGenerator("comm-monoid needs --elements, --unit and --table")
    name = _identifier("name", args.monoid_name or "monoid")
    elements = tuple(_identifier("element", e) for e in args.elements.split())
    for i, a in enumerate(elements):
        if a in elements[:i]:
            raise UnknownGenerator(f"comm-monoid element {a!r} is listed twice")
    if args.unit not in elements:
        raise UnknownGenerator(f"comm-monoid unit {args.unit!r} is not an element")
    rows = [r.split() for r in args.table.split(";")]
    if len(rows) != len(elements):
        raise UnknownGenerator(f"comm-monoid table has {len(rows)} rows for "
                               f"{len(elements)} elements")
    table = {}
    for a, row in zip(elements, rows):
        if len(row) != len(elements):
            raise UnknownGenerator("comm-monoid table is not square")
        for b, value in zip(elements, row):
            if value not in elements:
                raise UnknownGenerator(f"comm-monoid table value {value!r} is not an element")
            table[(a, b)] = value
    mon = Monoid(name, elements, args.unit, table)
    for a, b in itertools.product(elements, repeat=2):
        if mon.op(a, b) != mon.op(b, a):
            raise UnknownGenerator("comm-monoid table is not commutative")
        for c in elements:
            if mon.op(mon.op(a, b), c) != mon.op(a, mon.op(b, c)):
                raise UnknownGenerator("comm-monoid table is not associative")
        if mon.op(args.unit, a) != a:
            raise UnknownGenerator("comm-monoid unit is not a unit")
    return mon


def catalogue_files(name: str, args=None) -> list[StructureFile]:
    from . import catalogue as cat
    from .shortskew import embed_plain
    if name == "terminal":
        short = cat.terminal_short_multi()
        return [
            StructureFile("short-multi", "terminal", short),
            StructureFile("short-skew", "terminal.skew", (embed_plain(short), None)),
            StructureFile("skew-monoidal", "terminal.mon", cat.terminal_skew_monoidal()),
            StructureFile("skew-closed", "terminal.cl", cat.terminal_skew_closed()),
        ]
    if name == "z2":
        return _monoid_files(cat.z2_monoid())
    if name == "z3":
        return _monoid_files(cat.z3_monoid())
    if name == "klein-four":
        return _monoid_files(cat.klein_monoid())
    if name == "poset-skew-second":
        return [
            StructureFile("skew-monoidal", "poset2-second", cat.poset2_skew_second()),
            StructureFile("short-multi", "poset2-second", cat.poset2_second_short_multi()),
        ]
    if name == "poset-skew-first":
        return [
            StructureFile("skew-monoidal", "poset2-first", cat.poset2_skew_first()),
            StructureFile("short-skew", "poset2-first", (cat.poset2_first_short_skew(), None)),
        ]
    if name == "heyting-2":
        short = cat.heyting2_short_multi()
        return [
            StructureFile("short-multi", "heyting2", short),
            StructureFile("short-skew", "heyting2.skew", (embed_plain(short), None)),
            StructureFile("skew-monoidal", "heyting2.mon", cat.heyting2_skew_monoidal()),
            StructureFile("skew-closed", "heyting2.cl", cat.heyting2_skew_closed()),
        ]
    if name == "comm-monoid":
        return _monoid_files(_comm_monoid(args))
    if name == "mutants":
        out = []
        for idx, mut in enumerate(cat.catalogue_mutants()):
            payload, family = mut.payload, mut.family
            if mut.kind == "short-skew":
                payload = (payload, None)
            if mut.kind == "braiding":
                family = "braiding-" + family  # as _validate_file reports it
            out.append(StructureFile(
                mut.kind, mut.name, payload,
                {"expect-fail-family": family,
                 "expect-fail-subjects": "|".join(mut.subjects),
                 "index": f"{idx:03d}"}))
        return out
    if name == "morphisms":
        return [StructureFile("morphism", mname, unbind_morphism(F))
                for mname, F in cat.catalogue_morphisms().items()]
    raise UnknownGenerator(f"unknown generator {name!r}")


GENERATORS = ("terminal", "z2", "z3", "klein-four", "poset-skew-second", "poset-skew-first",
              "heyting-2", "comm-monoid", "mutants", "morphisms")


def cmd_catalogue(args) -> int:
    if args.name == "comm-monoid" and args.elements:
        count = len(args.elements.split())
        if count > args.max_objects:
            raise SearchBoundExceeded(
                f"comm-monoid: {count} elements exceeds --max-objects {args.max_objects}")
    files = catalogue_files(args.name, args)
    for sf in files:
        _guard_size(sf, args)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for sf in files:
        index = sf.provenance.get("index")
        stem = f"mutant-{index}-{sf.name}" if index is not None else sf.name
        path = outdir / f"{stem}.{sf.kind}.txt"
        path.write_text(serialize(sf), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_PASS


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def jobs_arg(text: str) -> int:
    """--jobs: accepted for compatibility; at least 1, capped at the number of CPUs."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return min(n, os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortcat",
        description="verify and construct finite short (skew) multicategories "
                    "and skew monoidal/closed categories")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--jobs", type=jobs_arg, default=1,
                       help="accepted for compatibility (at least 1, capped at the "
                            "CPU count); every check runs in one thread")
        p.add_argument("--max-objects", type=int, default=8)
        p.add_argument("--max-multimaps", type=int, default=64)

    p = sub.add_parser("validate", help="run the kind-appropriate validator")
    p.add_argument("path")
    p.add_argument("--report", help="write the canonical report here")
    p.add_argument("--source", help="source structure file (morphism kinds)")
    p.add_argument("--target", help="target structure file (morphism kinds)")
    common(p)

    p = sub.add_parser("certify", help="search classifiers, hom objects, flags")
    p.add_argument("path")
    p.add_argument("--out", help="write the certificate here")
    p.add_argument("--no-witnesses", action="store_true",
                   help="omit witness bijection tables")
    common(p)

    p = sub.add_parser("construct", help="run a transport construction")
    p.add_argument("path")
    p.add_argument("--which", required=True,
                   choices=("k", "ks", "kcl", "braiding-forward", "braiding-backward"))
    p.add_argument("--out", help="write the constructed structure here")
    common(p)

    p = sub.add_parser("roundtrip", help="induce, certify, rebuild, compare")
    p.add_argument("path")
    common(p)

    p = sub.add_parser("catalogue", help="emit generator output")
    p.add_argument("name", choices=GENERATORS)
    p.add_argument("--out", help="output directory")
    p.add_argument("--elements", help="comm-monoid: space-separated elements")
    p.add_argument("--unit", help="comm-monoid: unit element")
    p.add_argument("--table", help="comm-monoid: semicolon-separated table rows")
    p.add_argument("--monoid-name", help="comm-monoid: structure name")
    common(p)
    return parser


# Built once per process: parse_args keeps no state between calls.
PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # looked up per call, so a replaced cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ParseError, SearchBoundExceeded, MalformedTable, UnknownGenerator, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InconsistentVerdicts, UniversalityBroken, NoIsomorphismFound) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ShortcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
