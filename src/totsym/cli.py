"""Command-line front end: construct catalog objects, verify or classify
JSON documents, compute arrangement stabilizers, and run the check suite.

Exit codes: 0 for TotallySymmetric/Irreducible (and successful construct,
stabilizer, export, all-pass suite), 1 for any other verdict or a failing
suite, 2 for unusable input (bad flags, malformed documents, wrong kinds).
"""

import argparse
import functools
import sys
from pathlib import Path

from .catalog import (
    dual_simplex_arrangement,
    induction,
    ncsimplex,
    partition_construction,
    permutation_type,
    simplex_arrangement,
    sporadic4,
    standard,
    suspension_simplex,
    tilde_sigma5_arrangement,
    tilde_sigma5_construction,
    tilde_sigma5_rep,
)
from .core import (
    TOTALLY_SYMMETRIC,
    Tss,
    realizes,
    stabilizer_dimension,
    verify_arrangement,
    verify_tss,
)
from .serialize import (
    KindMismatch,
    ParseError,
    document,
    emit,
    from_document,
    matrix_to_json,
    parse,
    parse_scalar,
    scalar_to_json,
    subspace_to_json,
    to_document,
    certificate_to_json,
)
from .spectral import IRREDUCIBLE, NotCommutative, classify_commutative
from .suite import format_report, run_suite, spin_presentation_checks

__all__ = ["main"]


class BadParams(ValueError):
    """A required construction flag is missing or unusable."""


def _need(value, flag):
    if value is None:
        raise BadParams(f"this construction needs {flag}")
    return value


def _scalars(args, *names):
    """The given scalar flags among ``names``, parsed and keyed by name; a
    flag left out takes the catalog's default."""
    return {name: parse_scalar(getattr(args, name)) for name in names
            if getattr(args, name) is not None}


def _values(text):
    return [parse_scalar(tok) for tok in text.split(",")]


def _read_input(args):
    path = _need(args.infile, "--in")
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _write_output(text, out, summary=None):
    if out:
        Path(out).write_text(text)
        if summary:
            print(summary)
    else:
        sys.stdout.write(text)


def _base_tss(args):
    doc = parse(_read_input(args))
    return from_document(doc, expect="tss")


_CATALOG = {
    "standard": lambda a: standard(_need(a.k, "--k"), **_scalars(a, "lam", "nu")),
    "partition": lambda a: partition_construction(
        _values(_need(a.lam, "--lambda"))),
    "perm": lambda a: permutation_type(_values(_need(a.lam, "--lambda"))),
    "induction": lambda a: induction(
        _base_tss(a), _need(a.p, "--p"),
        parse_scalar(_need(a.lam, "--lambda"))),
    "simplex": lambda a: simplex_arrangement(_need(a.n, "--n")),
    "dual-simplex": lambda a: dual_simplex_arrangement(_need(a.n, "--n")),
    "suspension-simplex": lambda a: suspension_simplex(
        _need(a.n, "--n"), **_scalars(a, "lam")),
    "ncsimplex": lambda a: ncsimplex(_need(a.k, "--k"), **_scalars(a, "lam", "mu")),
    "s5-rep": lambda a: Tss(tilde_sigma5_rep(), n=4),
    "s5-arrangement": lambda a: tilde_sigma5_arrangement(),
    "s5-construction": lambda a: tilde_sigma5_construction(**_scalars(a, "lam", "mu")),
    "sporadic4": lambda a: sporadic4(**_scalars(a, "nu")),
}


def _reverify(name, obj):
    """Re-check the construction guarantee before anything is written: the
    bundled witness itself must realize the object; nothing is searched."""
    if name == "s5-rep":
        return all(c["passed"] for c in spin_presentation_checks(obj.elements))
    return obj.degenerate or realizes(obj)


def cmd_construct(args):
    obj = _CATALOG[args.name](args)
    if not _reverify(args.name, obj):
        print(f"error: {args.name} failed re-verification", file=sys.stderr)
        return 1
    _write_output(emit(to_document(obj)), args.out, f"wrote {args.name}")
    return 0


def cmd_verify(args):
    doc = parse(_read_input(args))
    if doc["kind"] == "tss":
        cert = verify_tss(from_document(doc))
    elif doc["kind"] == "arrangement":
        cert = verify_arrangement(from_document(doc))
    else:
        raise KindMismatch(f"cannot verify a {doc['kind']} document")
    _write_output(emit(document("report", certificate_to_json(cert))),
                  args.out, cert.verdict)
    return 0 if cert.verdict == TOTALLY_SYMMETRIC else 1


def cmd_classify(args):
    t = from_document(parse(_read_input(args)), expect="tss")
    try:
        res = classify_commutative(t)
    except NotCommutative as e:
        payload = {"verdict": "NotCommutative", "dim": t.n, "detail": str(e)}
        _write_output(emit(document("report", payload)), args.out,
                      "NotCommutative")
        return 1
    payload = {"verdict": res.verdict, "dim": t.n}
    if res.weight is not None:
        payload["weight"] = [scalar_to_json(v) for v in res.weight.values]
        payload["partition"] = "≤".join(
            str(p) for p in sorted(res.weight.partition))
    if res.subspace is not None:
        payload["invariant_subspace"] = subspace_to_json(res.subspace)
    if res.detail:
        payload["detail"] = res.detail
    summary = res.verdict
    if "partition" in payload:
        summary += f" {payload['partition']} dim {t.n}"
    _write_output(emit(document("report", payload)), args.out, summary)
    return 0 if res.verdict == IRREDUCIBLE else 1


def cmd_stabilizer(args):
    a = from_document(parse(_read_input(args)), expect="arrangement")
    dim, basis = stabilizer_dimension(a)
    payload = {"dim": dim, "basis": [matrix_to_json(b) for b in basis]}
    _write_output(emit(document("report", payload)), args.out,
                  f"stabilizer dimension {dim}")
    return 0


def cmd_suite(args):
    report = run_suite()
    print(format_report(report))
    if args.out:
        Path(args.out).write_text(emit(document("report", report)))
    return 0 if report["passed"] else 1


def cmd_export(args):
    doc = parse(_read_input(args))
    if doc["kind"] != "report":  # a report's payload may be any JSON value
        doc = to_document(from_document(doc))
    _write_output(emit(doc), args.out, "exported")
    return 0


_DISPATCH = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "classify": cmd_classify,
    "stabilizer": cmd_stabilizer,
    "suite": cmd_suite,
    "export": cmd_export,
}


def _add_io_flags(sub, infile=False):
    if infile:
        sub.add_argument("--in", dest="infile", metavar="FILE",
                         help="input document ('-' for stdin)")
    sub.add_argument("--out", metavar="FILE", help="write the document here")


@functools.cache
def _parser():
    """The argument parser, built on first use and reused by later calls."""
    p = argparse.ArgumentParser(
        prog="tss",
        description="Exact totally symmetric sets and arrangements over "
                    "Q(i, sqrt2, sqrt3).")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a catalog object")
    pc.add_argument("name", choices=sorted(_CATALOG))
    _add_io_flags(pc, infile=True)
    pc.add_argument("--k", type=int, help="number of elements")
    pc.add_argument("--p", type=int, help="number of added elements")
    pc.add_argument("--n", type=int, help="ambient dimension parameter")
    pc.add_argument("--lambda", dest="lam", metavar="SCALAR",
                    help="eigenvalue (comma-separated list for partition/perm)")
    pc.add_argument("--mu", metavar="SCALAR", help="second eigenvalue")
    pc.add_argument("--nu", metavar="SCALAR", help="slot or shift eigenvalue")

    for name, text in (("verify", "check total symmetry of a document"),
                       ("classify", "classify a commutative set"),
                       ("stabilizer", "joint stabilizer of an arrangement"),
                       ("export", "re-emit a document in canonical form")):
        ps = sub.add_parser(name, help=text)
        _add_io_flags(ps, infile=True)

    ps = sub.add_parser("suite", help="run every named exact check")
    _add_io_flags(ps)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (OSError, ValueError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
