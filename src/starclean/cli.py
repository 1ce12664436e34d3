"""Command-line interface.

Subcommands: ``check`` (one ring-level property), ``element`` (classify a
single element with all certificates), ``suite`` (consistency suites over a
corpus), ``numeric`` (matrix criterion), ``corpus-matrix`` (property matrix),
``fixture`` (bundled example reproductions).

Exit codes: 0 success, 1 suite violation or failed fixture, 2 input error
(including an input file that cannot be read or is not UTF-8, an ``--out``
file that cannot be written, and a ``--tol`` that is negative or not
finite), 3 size cap exceeded, 4 internal error (a bug in starclean, reported
on one ``error: internal:`` line that names the exception and where it was
raised).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from pathlib import Path

from .corpus import default_corpus, warmup
from .elements import (
    CLEAN_MODES,
    clean_certificates,
    spsr_conditions,
    strongly_pi_regular_witness,
    strongly_star_regular_witness,
    unit_sasr_decomposition,
)
from .errors import (
    CorpusError,
    IllConditioned,
    InputError,
    MalformedSpec,
    OutputError,
    ParseError,
    SpecTooLarge,
    ValidationError,
)
from .fixtures import FIXTURES, run_fixture
from .involutions import StarRing
from .matrixops import INVOLUTION_MODES, is_spsr_matrix, load_matrix, named_residuals
from .properties import PROPERTIES, ring_property
from .report import (
    corpus_matrix,
    json_dumps,
    matrix_to_csv,
    matrix_to_text,
    suites_to_dict,
    suites_to_text,
)
from .rings import current_size_cap, validate_spec
from .specparse import build_star_ring, parse_involution_spec, parse_ring_spec
from .suites import SUITE_TAGS, run_suites

def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        # the file comes first, so that a failed write leaves stdout empty
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise OutputError(f"cannot write {out}: {exc}") from exc
    sys.stdout.write(text)


def _elem_dict(S: StarRing, a: int) -> dict:
    return {"id": int(a), "text": S.ring.render(int(a))}


def _load_corpus(path: str, cap: int | None) -> list[StarRing]:
    if path == "default":
        return default_corpus()
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedSpec(f"cannot read corpus file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise MalformedSpec(f"corpus file {path} is not valid JSON") from exc
    if not isinstance(payload, list) or not payload:
        raise MalformedSpec("corpus file must be a non-empty JSON array of entries")
    resolved_cap = current_size_cap(cap)
    parsed = []
    for i, entry in enumerate(payload):
        try:
            rspec = parse_ring_spec(entry["ring"])
            ispec = parse_involution_spec(entry["inv"])
            validate_spec(rspec, resolved_cap)
            label = entry.get("label")
            if label is not None and not isinstance(label, str):
                raise MalformedSpec(f"label must be a string, got {label!r}")
        except SpecTooLarge:
            raise
        except (TypeError, KeyError, ParseError, MalformedSpec) as exc:
            raise CorpusError(i, str(exc)) from exc
        parsed.append((entry["ring"], entry["inv"], label))
    base_dir = Path(path).parent
    members = []
    for i, (ring_text, inv_text, label) in enumerate(parsed):
        try:
            members.append(build_star_ring(ring_text, inv_text, cap, base_dir, label))
        except SpecTooLarge:
            raise
        except InputError as exc:
            raise CorpusError(i, str(exc)) from exc
    return members


# -- subcommands ---------------------------------------------------------------


def _cmd_check(args) -> int:
    start = time.perf_counter()
    S = build_star_ring(args.ring, args.inv, args.cap)
    verdict = ring_property(S, args.prop)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    payload = {
        "command": "check",
        "ring": args.ring,
        "involution": args.inv,
        "property": args.prop,
        "verdict": verdict.value,
        "witness": verdict.witness.to_dict() if verdict.witness else None,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    if args.format == "text":
        lines = [f"{S.label} {args.prop}: {verdict.value}"]
        if verdict.witness:
            lines.append(f"witness: {verdict.witness.text}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json_dumps(payload), args.out)
    return 0


def _cert_dict(S: StarRing, cert) -> dict:
    return {
        "part": _elem_dict(S, cert.part),
        "unit": _elem_dict(S, cert.unit),
        "projection": cert.projection,
        "commuting": cert.commuting,
    }


def _cmd_element(args) -> int:
    S = build_star_ring(args.ring, args.inv, args.cap)
    a = args.elem
    if not 0 <= a < S.ring.size:
        raise ValidationError(f"element id {a} out of range 0..{S.ring.size - 1}")
    payload: dict = {
        "command": "element",
        "ring": args.ring,
        "involution": args.inv,
        "element": _elem_dict(S, a),
        "star": _elem_dict(S, S.star(a)),
    }
    for mode in CLEAN_MODES:
        certs = clean_certificates(S, a, mode)
        payload[mode] = {
            "holds": bool(certs),
            "certificates": [_cert_dict(S, c) for c in certs],
        }
    spr = strongly_pi_regular_witness(S.ring, a)
    payload["strongly-pi-regular"] = (
        {"holds": True, "n": spr[0], "x": _elem_dict(S, spr[1]), "y": _elem_dict(S, spr[2])}
        if spr
        else {"holds": False}
    )
    ssr = strongly_star_regular_witness(S, a)
    payload["strongly-star-regular"] = (
        {"holds": True, "p": _elem_dict(S, ssr[0]), "u": _elem_dict(S, ssr[1])}
        if ssr
        else {"holds": False}
    )
    verdict = spsr_conditions(S, a)
    conditions = {}
    for tag, cert in (("c1", verdict.c1), ("c2", verdict.c2), ("c3", verdict.c3), ("c4", verdict.c4)):
        if cert is None:
            conditions[tag] = {"holds": False}
        else:
            rendered = {
                k: (_elem_dict(S, v) if k != "m" else int(v)) for k, v in cert.data.items()
            }
            conditions[tag] = {"holds": True, **rendered}
    payload["power-conditions"] = conditions
    sasr = unit_sasr_decomposition(S, a)
    payload["unit-plus-self-adjoint-root"] = (
        {"holds": True, "t": _elem_dict(S, sasr[0]), "u": _elem_dict(S, sasr[1])}
        if sasr
        else {"holds": False}
    )
    if args.format == "text":
        lines = [f"{S.label} element {S.ring.render(a)} (star: {S.ring.render(S.star(a))})"]
        for mode in CLEAN_MODES:
            lines.append(f"  {mode}: {payload[mode]['holds']} ({len(payload[mode]['certificates'])} certificates)")
        lines.append(f"  strongly-pi-regular: {payload['strongly-pi-regular']['holds']}")
        lines.append(f"  strongly-star-regular: {payload['strongly-star-regular']['holds']}")
        flags = ", ".join(f"{t}={conditions[t]['holds']}" for t in ("c1", "c2", "c3", "c4"))
        lines.append(f"  power-conditions: {flags}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json_dumps(payload), args.out)
    return 0


def _cmd_suite(args) -> int:
    corpus = _load_corpus(args.corpus, args.cap)
    tags = None if args.suites == "all" else [t.strip() for t in args.suites.split(",") if t.strip()]
    results = run_suites(corpus, tags, jobs=args.jobs)
    if args.format == "text":
        _emit(suites_to_text(results), args.out)
    else:
        _emit(json_dumps(suites_to_dict(results, corpus)), args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_numeric(args) -> int:
    try:
        M = load_matrix(args.matrix, args.inv)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedSpec(f"cannot read matrix file {args.matrix}: {exc}") from exc
    try:
        verdict, diag = is_spsr_matrix(M, args.tol)
        payload = {
            "command": "numeric",
            "matrix": str(args.matrix),
            "involution": args.inv,
            "tol": args.tol,
            "verdict": "true" if verdict else "false",
            "index": diag["index"],
            "rank": diag["rank"],
            "residuals": named_residuals(diag),
            "gram_verdict": diag["gram_verdict"],
        }
    except IllConditioned as exc:
        payload = {
            "command": "numeric",
            "matrix": str(args.matrix),
            "involution": args.inv,
            "tol": args.tol,
            "verdict": "ill-conditioned",
            "reason": str(exc),
        }
    if args.format == "text":
        lines = [f"verdict: {payload['verdict']}"]
        if "index" in payload:
            lines.append(f"index: {payload['index']}, rank: {payload['rank']}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json_dumps(payload), args.out)
    return 0


def _cmd_corpus_matrix(args) -> int:
    corpus = _load_corpus(args.corpus, args.cap)
    warmup(corpus)
    reports = corpus_matrix(corpus, jobs=args.jobs)
    if args.format == "csv":
        _emit(matrix_to_csv(reports), args.out)
    elif args.format == "text":
        _emit(matrix_to_text(reports), args.out)
    else:
        payload = {
            "command": "corpus-matrix",
            "properties": list(PROPERTIES),
            "rings": [r.to_dict() for r in reports],
        }
        _emit(json_dumps(payload), args.out)
    return 0


def _cmd_fixture(args) -> int:
    if args.list:
        _emit("\n".join(sorted(FIXTURES)), args.out)
        return 0
    if args.name and args.name not in FIXTURES:
        raise ValidationError(f"unknown fixture {args.name!r}; known: {', '.join(sorted(FIXTURES))}")
    names = [args.name] if args.name else sorted(FIXTURES)
    all_ok = True
    payload = []
    lines = []
    for name in names:
        ok, checks = run_fixture(name)
        all_ok = all_ok and ok
        payload.append(
            {"fixture": name, "pass": ok, "checks": [c.to_dict() for c in checks]}
        )
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'}")
        for c in checks:
            lines.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}")
    if args.format == "text":
        _emit("\n".join(lines), args.out)
    else:
        _emit(json_dumps({"command": "fixture", "results": payload}), args.out)
    return 0 if all_ok else 1


# -- parser ---------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """``--tol``: a finite number >= 0, checked while the arguments are parsed."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        # not a ValueError, which argparse would turn into a usage message
        raise MalformedSpec(f"--tol must be a finite number >= 0, got {text!r}")
    return tol


def _add_common(sub, fmt_choices=("json", "text")):
    sub.add_argument("--format", choices=fmt_choices, default="json")
    sub.add_argument("--out", help="also write the report to this file")
    sub.add_argument("--cap", type=int, default=None, help="override the ring size cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starclean",
        description="Exhaustive checks for finite rings with involution.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="decide one ring-level property")
    check.add_argument("--ring", required=True)
    check.add_argument("--inv", required=True)
    check.add_argument("--prop", required=True, help=f"one of: {', '.join(PROPERTIES)}")
    _add_common(check)
    check.set_defaults(func=_cmd_check)

    element = subs.add_parser("element", help="classify a single element")
    element.add_argument("--ring", required=True)
    element.add_argument("--inv", required=True)
    element.add_argument("--elem", type=int, required=True, help="element id")
    _add_common(element)
    element.set_defaults(func=_cmd_element)

    suite = subs.add_parser("suite", help="run consistency suites over a corpus")
    suite.add_argument("--corpus", default="default", help='"default" or a JSON corpus file')
    suite.add_argument(
        "--suites", default="all", help=f'"all" or comma-separated tags from: {", ".join(SUITE_TAGS)}'
    )
    suite.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    _add_common(suite)
    suite.set_defaults(func=_cmd_suite)

    numeric = subs.add_parser("numeric", help="matrix criterion via the Drazin inverse")
    numeric.add_argument("matrix", help="CSV or JSON matrix file")
    numeric.add_argument("--inv", choices=INVOLUTION_MODES, default="transpose")
    numeric.add_argument("--tol", type=_tolerance, default=1e-8)
    _add_common(numeric)
    numeric.set_defaults(func=_cmd_numeric)

    cm = subs.add_parser("corpus-matrix", help="full property matrix over a corpus")
    cm.add_argument("--corpus", default="default")
    cm.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    _add_common(cm, fmt_choices=("json", "text", "csv"))
    cm.set_defaults(func=_cmd_corpus_matrix)

    fixture = subs.add_parser("fixture", help="reproduce a bundled example")
    fixture.add_argument("name", nargs="?", default=None)
    fixture.add_argument("--list", action="store_true")
    _add_common(fixture)
    fixture.set_defaults(func=_cmd_fixture)

    return parser


# control characters, written as \xNN escapes in an error line
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}


def _error(message: str) -> None:
    """Write the one ``error:`` line of a failed command to stderr."""
    print(f"error: {message.translate(_CONTROL_ESCAPES)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SpecTooLarge as exc:
        _error(str(exc))
        return 3
    except InputError as exc:
        _error(str(exc))
        return 2
    except Exception as exc:  # a bug, not bad input: keep it apart from exit 1
        where = traceback.extract_tb(exc.__traceback__)[-1]
        message = " ".join(str(exc).split())
        _error(
            f"internal: {type(exc).__name__}: {message} "
            f"(at {Path(where.filename).name}:{where.lineno} in {where.name})"
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
