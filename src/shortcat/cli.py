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
from typing import Optional

from . import braiding as braid_mod
from . import catalogue as cat
from .classify import (
    Certificate, certify, check_representable, derived_classifiers,
    find_closed_structure,
)
from .errors import (
    AxiomFailure, InconsistentVerdicts, MalformedTable, MultipleSolutions, NoIsomorphismFound,
    ParseError, SearchBoundExceeded, ShortcatError, UniversalityBroken,
    UnknownGenerator,
)
from .fileformat import (
    StructureFile, bind_lax_functor, bind_morphism, parse, serialize,
    unbind_morphism,
)
from .fincat import validate_category
from .report import ValidationReport
from .shortmulti import ShortMulticategory, validate_multi_morphism, validate_short_multicategory
from .shortskew import ShortSkewMulticategory, validate_short_skew, validate_skew_multi_morphism
from .skewmon import (
    check_braiding_total, validate_braiding, validate_lax_functor, validate_skew_closed,
    validate_skew_monoidal,
)
from .transport import kcl_object, ks_object, roundtrip_check, skew_monoidal_roundtrip

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _load(path: str, quiet: bool = False) -> StructureFile:
    text = Path(path).read_text(encoding="utf-8")
    sf, warnings = parse(text)
    if not quiet:
        for w in warnings:
            print(f"warning: {path}: {w}", file=sys.stderr)
    return sf


def _guard_size(sf: StructureFile, max_objects: int, max_multimaps: int) -> None:
    payload = sf.payload
    structure = payload[0] if isinstance(payload, tuple) else payload
    base = getattr(structure, "base", structure)
    if hasattr(base, "objects") and len(base.objects) > max_objects:
        raise SearchBoundExceeded(
            f"{sf.name}: {len(base.objects)} objects exceeds --max-objects {max_objects}")
    if isinstance(structure, ShortMulticategory):
        sizes = [len(fs) for t in structure.maps.values() for fs in t.values()]
    elif isinstance(structure, ShortSkewMulticategory):
        sizes = [len(fs) for side in (structure.tight, structure.loose)
                 for t in side.values() for fs in t.values()]
    else:
        sizes = []
    if sizes and max(sizes) > max_multimaps:
        raise SearchBoundExceeded(
            f"{sf.name}: a multimap set of size {max(sizes)} exceeds "
            f"--max-multimaps {max_multimaps}")


def _short_skew_report(m: ShortSkewMulticategory, beta) -> ValidationReport:
    """The report of a short-skew file: its structure and, when it has swap
    tables, their instances under the braiding- prefix."""
    report = validate_short_skew(m)
    if beta is not None:
        report.merge_prefixed(braid_mod.validate_short_braiding(m, beta), "braiding-")
    return report.finish()


def _validate_file(sf: StructureFile, args) -> ValidationReport:
    kind, payload = sf.kind, sf.payload
    if kind == "category":
        return validate_category(payload)
    if kind == "short-multi":
        return validate_short_multicategory(payload)
    if kind == "short-skew":
        return _short_skew_report(*payload)
    if kind == "skew-monoidal":
        return validate_skew_monoidal(payload)
    if kind == "braiding":
        structure, braid = payload
        report = validate_skew_monoidal(structure)
        report.merge_prefixed(validate_braiding(structure, braid), "braiding-")
        return report.finish()
    if kind == "skew-closed":
        return validate_skew_closed(payload)
    if kind in ("morphism", "lax-functor"):
        if not args.source or not args.target:
            raise MalformedTable(f"validating a {kind} file needs --source and --target")
        if kind == "lax-functor":
            src, tgt = (_end(path, "skew-monoidal", args) for path in (args.source, args.target))
            return validate_lax_functor(bind_lax_functor(payload, sf.name, src, tgt))
        plain = payload.variant == "plain"
        src, tgt = (_end(path, "short-multi" if plain else "short-skew", args)
                    for path in (args.source, args.target))
        F = bind_morphism(payload, sf.name, src, tgt)
        return validate_multi_morphism(F) if plain else validate_skew_multi_morphism(F)
    raise MalformedTable(f"cannot validate kind {kind}")


def _end(path: str, kind: str, args):
    """The structure in the --source or --target file at path, which must be
    of the given kind (the structure half of a short-skew file), within the
    size guard and pass its check_structure."""
    sf = _load(path)
    if sf.kind != kind:
        raise MalformedTable(f"{path}: expected a {kind} file, got {sf.kind}")
    _guard_size(sf, args.max_objects, args.max_multimaps)
    structure = sf.payload[0] if kind == "short-skew" else sf.payload
    structure.check_structure()
    return structure


def _report_path(out: str) -> Path:
    p = Path(out)
    env = os.environ.get("SHORTCAT_REPORT_DIR")
    if env and not p.is_absolute():
        return Path(env) / p
    return p


def cmd_validate(args) -> int:
    sf = _load(args.path)
    _guard_size(sf, args.max_objects, args.max_multimaps)
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
        lines.append(f"nullary-classifier = {cert.nullary.obj} via {cert.nullary.u}")
        for cand, u in cert.nullary_candidates:
            lines.append(f"nullary-candidate = {cand} via {u}")
    for (a, b) in sorted(cert.binary):
        cl = cert.binary[(a, b)]
        if cl is None:
            lines.append(f"binary-classifier {a} {b} = none")
        else:
            lines.append(f"binary-classifier {a} {b} = {cl.obj} via {cl.theta}")
        for cand, theta in cert.binary_candidates.get((a, b), []):
            lines.append(f"binary-candidate {a} {b} = {cand} via {theta}")
    if cert.homs is not None:
        for (b, c) in sorted(cert.homs):
            h = cert.homs[(b, c)]
            if h is None:
                lines.append(f"hom {b} {c} = none")
            else:
                lines.append(f"hom {b} {c} = {h.obj} via {h.e}")
    for rec in cert.derived:
        lines.append(f"derived {rec.kind} {' '.join(rec.key)} = {rec.obj} via "
                     f"{rec.theta} checked {rec.instances}")
    if witnesses:
        def witness_lines(owner: str, table: dict):
            for key in sorted(table, key=str):
                pairs = " ".join(f"{v}:{img}" for v, img in sorted(table[key].items()))
                yield f"witness {owner} {key} = {pairs}"
        if cert.nullary is not None:
            lines.extend(witness_lines("nullary", cert.nullary.witness))
        for (a, b) in sorted(cert.binary):
            cl = cert.binary[(a, b)]
            if cl is not None:
                lines.extend(witness_lines(f"binary({a},{b})", cl.witness))
        if cert.homs is not None:
            for (b, c) in sorted(cert.homs):
                h = cert.homs[(b, c)]
                if h is not None:
                    lines.extend(witness_lines(f"hom({b},{c})", h.witness))
    return "\n".join(lines) + "\n"


def _certify_payload(sf: StructureFile):
    if sf.kind == "short-multi":
        return sf.payload
    if sf.kind == "short-skew":
        return sf.payload[0]
    raise MalformedTable(f"certify expects a short-multi or short-skew file, got {sf.kind}")


def _require_valid(name: str, m, command: str, beta=None) -> None:
    """Raise AxiomFailure (exit 1) unless the short-multi or short-skew
    structure m, with its swap tables beta if given, passes validation;
    check_structure errors raise as usual."""
    report = (validate_short_multicategory(m) if isinstance(m, ShortMulticategory)
              else _short_skew_report(m, beta))
    if not report.ok:
        raise AxiomFailure(f"{name}: validation of the structure fails "
                           f"{len(report.failures)} instances; {command} needs one that passes")


def cmd_certify(args) -> int:
    sf = _load(args.path)
    _guard_size(sf, args.max_objects, args.max_multimaps)
    m = _certify_payload(sf)
    m.check_structure()
    try:
        cert = certify(m)
        find_closed_structure(m, cert)
        if cert.left_representable:
            derived_classifiers(m, cert)
        if isinstance(m, ShortMulticategory) and cert.weakly_representable:
            check_representable(m, cert)
    except (InconsistentVerdicts, UniversalityBroken):
        # The search's own cross-checks assume the axioms hold; on a
        # structure that fails them the failure is the input's, not ours.
        _require_valid(sf.name, m, "certify")
        raise
    text = render_certificate(cert, witnesses=not args.no_witnesses)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_PASS


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def cmd_construct(args) -> int:
    sf = _load(args.path)
    _guard_size(sf, args.max_objects, args.max_multimaps)
    which = args.which
    provenance = {"source": sf.name, "construction": which}

    if which == "k":
        if sf.kind != "short-multi":
            raise MalformedTable("construct k expects a short-multi file")
        m = sf.payload
        _require_valid(sf.name, m, "construct")
        cert = certify(m)
        from .transport import k_object
        out = StructureFile("skew-monoidal", sf.name + ".k",
                            k_object(m, cert, name=sf.name + ".k"), provenance)
    elif which == "ks":
        if sf.kind != "short-skew":
            raise MalformedTable("construct ks expects a short-skew file")
        m = sf.payload[0]
        _require_valid(sf.name, m, "construct")
        cert = certify(m)
        out = StructureFile("skew-monoidal", sf.name + ".ks",
                            ks_object(m, cert, name=sf.name + ".ks"), provenance)
    elif which == "kcl":
        if sf.kind != "short-skew":
            raise MalformedTable("construct kcl expects a short-skew file")
        m = sf.payload[0]
        _require_valid(sf.name, m, "construct")
        cert = certify(m)
        homs = find_closed_structure(m, cert)
        if homs is None:
            raise MalformedTable(f"{sf.name}: not closed, cannot construct the hom side")
        out = StructureFile("skew-closed", sf.name + ".kcl",
                            kcl_object(m, cert, homs, name=sf.name + ".kcl"), provenance)
    elif which == "braiding-forward":
        if sf.kind != "short-skew" or sf.payload[1] is None:
            raise MalformedTable("construct braiding-forward expects a short-skew "
                                 "file with swap tables")
        m, beta = sf.payload
        _require_valid(sf.name, m, "construct", beta)
        cert = certify(m)
        mon = ks_object(m, cert, name=sf.name + ".ks")
        s = braid_mod.s_from_short_braiding(m, cert, beta, name=sf.name + ".s")
        out = StructureFile("braiding", sf.name + ".braided", (mon, s), provenance)
    elif which == "braiding-backward":
        if sf.kind != "braiding":
            raise MalformedTable("construct braiding-backward expects a braiding file")
        mon, s = sf.payload
        mon.check_structure()
        check_braiding_total(mon, s)
        from .induce import induce_short_skew
        m = induce_short_skew(mon, name=sf.name + ".induced")
        cert = certify(m)
        beta = braid_mod.short_braiding_from_s(m, cert, s, name=sf.name + ".beta")
        out = StructureFile("short-skew", sf.name + ".induced", (m, beta), provenance)
    else:
        raise UnknownGenerator(which)

    text = serialize(out)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_PASS


def cmd_roundtrip(args) -> int:
    sf = _load(args.path)
    _guard_size(sf, args.max_objects, args.max_multimaps)
    if sf.kind in ("skew-monoidal", "skew-closed"):
        report = roundtrip_check(sf.payload)
    elif sf.kind == "braiding":
        mon, s = sf.payload
        check_braiding_total(mon, s)
        report, m, cert = skew_monoidal_roundtrip(mon)
        beta = braid_mod.short_braiding_from_s(m, cert, s)
        back = braid_mod.s_from_short_braiding(m, cert, beta)
        report.count("braiding-roundtrip")
        if not braid_mod.braidings_equal(back, s):
            report.fail("braiding-roundtrip", (sf.name,), back.name, "table equality")
    else:
        raise MalformedTable(f"roundtrip expects a skew-monoidal, braiding or "
                             f"skew-closed file, got {sf.kind}")
    print(report.render(), end="")
    return EXIT_PASS if report.ok else EXIT_FAIL


# --------------------------------------------------------------------------
# catalogue
# --------------------------------------------------------------------------

def _monoid_files(mon: cat.Monoid, symmetric: bool) -> list[StructureFile]:
    from .shortskew import embed_plain
    short = cat.monoid_short_multi(mon)
    skew = embed_plain(short)
    out = [
        StructureFile("short-multi", mon.name, short),
        StructureFile("skew-monoidal", mon.name + ".mon", cat.monoid_skew_monoidal(mon)),
    ]
    beta = cat.forced_short_braiding(skew, mon.name + ".beta") if symmetric else None
    out.append(StructureFile("short-skew", mon.name + ".skew", (skew, beta)))
    if symmetric:
        out.append(StructureFile(
            "braiding", mon.name + ".sym",
            (cat.monoid_skew_monoidal(mon), cat.monoid_symmetry(mon))))
    return out


def catalogue_files(name: str, args=None) -> list[StructureFile]:
    if name == "terminal":
        from .shortskew import embed_plain
        short = cat.terminal_short_multi()
        return [
            StructureFile("short-multi", "terminal", short),
            StructureFile("short-skew", "terminal.skew", (embed_plain(short), None)),
            StructureFile("skew-monoidal", "terminal.mon", cat.terminal_skew_monoidal()),
            StructureFile("skew-closed", "terminal.cl", cat.terminal_skew_closed()),
        ]
    if name == "z2":
        return _monoid_files(cat.z2_monoid(), symmetric=True)
    if name == "z3":
        return _monoid_files(cat.z3_monoid(), symmetric=True)
    if name in ("klein-four", "klein-four-sym"):
        return _monoid_files(cat.klein_monoid(), symmetric=True)
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
        from .shortskew import embed_plain
        short = cat.heyting2_short_multi()
        return [
            StructureFile("short-multi", "heyting2", short),
            StructureFile("short-skew", "heyting2.skew", (embed_plain(short), None)),
            StructureFile("skew-monoidal", "heyting2.mon", cat.heyting2_skew_monoidal()),
            StructureFile("skew-closed", "heyting2.cl", cat.heyting2_skew_closed()),
        ]
    if name == "comm-monoid":
        if args is None or not args.elements or not args.table or args.unit is None:
            raise UnknownGenerator("comm-monoid needs --elements, --unit and --table")
        elements = tuple(args.elements.split())
        rows = [r.split() for r in args.table.split(";")]
        table = {}
        for a, row in zip(elements, rows):
            if len(row) != len(elements):
                raise UnknownGenerator("comm-monoid table is not square")
            for b, value in zip(elements, row):
                table[(a, b)] = value
        mon = cat.Monoid(args.monoid_name or "monoid", elements, args.unit, table)
        for a, b in itertools.product(elements, repeat=2):
            if mon.op(a, b) != mon.op(b, a):
                raise UnknownGenerator("comm-monoid table is not commutative")
            for c in elements:
                if mon.op(mon.op(a, b), c) != mon.op(a, mon.op(b, c)):
                    raise UnknownGenerator("comm-monoid table is not associative")
            if mon.op(args.unit, a) != a:
                raise UnknownGenerator("comm-monoid unit is not a unit")
        return _monoid_files(mon, symmetric=True)
    if name == "mutants":
        out = []
        for idx, mut in enumerate(cat.catalogue_mutants()):
            payload = mut.payload
            if mut.kind == "short-skew":
                payload = (payload, None)
            out.append(StructureFile(
                mut.kind, mut.name, payload,
                {"expect-fail-family": mut.family,
                 "expect-fail-subjects": "|".join(mut.subjects),
                 "index": f"{idx:03d}"}))
        return out
    if name == "morphisms":
        return [StructureFile("morphism", mname, unbind_morphism(F))
                for mname, F in cat.catalogue_morphisms().items()]
    raise UnknownGenerator(f"unknown generator {name!r}")


GENERATORS = ("terminal", "z2", "z3", "klein-four", "klein-four-sym",
              "poset-skew-second", "poset-skew-first", "heyting-2",
              "comm-monoid", "mutants", "morphisms")


def cmd_catalogue(args) -> int:
    files = catalogue_files(args.name, args)
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
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("certify", help="search classifiers, hom objects, flags")
    p.add_argument("path")
    p.add_argument("--out", help="write the certificate here")
    p.add_argument("--no-witnesses", action="store_true",
                   help="omit witness bijection tables")
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("construct", help="run a transport construction")
    p.add_argument("path")
    p.add_argument("--which", required=True,
                   choices=("k", "ks", "kcl", "braiding-forward", "braiding-backward"))
    p.add_argument("--out", help="write the constructed structure here")
    common(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("roundtrip", help="induce, certify, rebuild, compare")
    p.add_argument("path")
    common(p)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("catalogue", help="emit generator output")
    p.add_argument("name", choices=GENERATORS)
    p.add_argument("--out", help="output directory")
    p.add_argument("--elements", help="comm-monoid: space-separated elements")
    p.add_argument("--unit", help="comm-monoid: unit element")
    p.add_argument("--table", help="comm-monoid: semicolon-separated table rows")
    p.add_argument("--monoid-name", help="comm-monoid: structure name")
    common(p)
    p.set_defaults(fn=cmd_catalogue)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SearchBoundExceeded, MalformedTable, UnknownGenerator, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InconsistentVerdicts, UniversalityBroken, MultipleSolutions,
            NoIsomorphismFound) as exc:
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
