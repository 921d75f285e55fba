"""Command-line front-end.

Every command reads and writes the JSON documents defined in
``rhokit.documents``; ``-`` stands for stdin/stdout. Errors are reported as a
JSON object on stderr and mapped onto a fixed exit-code contract:

* 0 -- success (for ``verify``: the report is clean)
* 2 -- usage error, unreadable input, malformed document encoding, or
  unwritable output
* 3 -- violated precondition: a well-encoded value its constructor refuses,
  an argument out of range, or a dirty ``verify`` report
* 4 -- numerical failure, or memory exhausted (``ResourceExhausted``: a
  dimension such as ``--dim-m`` too large to allocate, or any other
  ``MemoryError``)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import documents
from .ensembles import _amplitudes, validate_ensemble
from .errors import DocumentError, NumericalFailure, ResourceExhausted, RhokitError
from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL, _check_tolerances, _state, max_abs
from .purification import (
    apply_unitary_umap,
    check_umap,
    ensemble_containing,
    ensemble_from_basis,
    purify,
    umap_between,
)
from .steering import steer

EXIT_OK = 0
EXIT_DOCUMENT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # its descriptor was closed at start-up
                raise OSError("stdin is closed")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        if path == "-":
            if sys.stdout is None:  # its descriptor was closed at start-up
                raise OSError("stdout is closed")
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:  # stdout too: a closed pipe, a full device
        raise DocumentError(f"cannot write {'stdout' if path == '-' else path}: {exc}") from exc


def _load(path: str) -> dict:
    return documents.load_document(_read_text(path))


def _write_document(path: str, doc: dict) -> None:
    _write_text(path, documents.dump_document(doc))


def _tolerance(text: str) -> float:
    """Argparse type for tolerances: a finite, non-negative float."""
    try:
        value = float(text)
        _check_tolerances(tolerance=value)
    except ValueError as exc:  # InvalidArgument is a ValueError too
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative tolerance, got {text!r}"
        ) from exc
    return value


def _add_tolerance(parser: argparse.ArgumentParser, flag: str) -> None:
    """Add the one tolerance ``flag`` a command reads, at its library default."""
    default = DEFAULT_TOL if flag == "--tol" else DEFAULT_RANK_TOL
    parser.add_argument(flag, type=_tolerance, default=default)


def _cmd_purify(args) -> int:
    ensemble = documents.to_ensemble(_load(args.ensemble))
    joint, ancilla = purify(ensemble, args.dim_m)
    _write_document(args.out, documents.joint_document(joint))
    if args.ancilla_out is not None:
        _write_document(args.ancilla_out, documents.ancilla_basis_document(ancilla))
    return EXIT_OK


def _cmd_ensemble_from_basis(args) -> int:
    joint = documents.to_joint(_load(args.joint))
    basis = documents.to_basis(_load(args.basis))
    ensemble, _, _ = ensemble_from_basis(joint, basis, args.rank_tol)
    _write_document(args.out, documents.ensemble_document(ensemble))
    return EXIT_OK


def _cmd_umap(args) -> int:
    from_e = documents.to_ensemble(_load(args.from_ensemble))
    to_e = documents.to_ensemble(_load(args.to_ensemble))
    u = umap_between(from_e, to_e, args.tol)
    _write_document(args.out, documents.umap_document(u))
    return EXIT_OK


def _cmd_apply_u(args) -> int:
    joint = documents.to_joint(_load(args.joint))
    basis = documents.to_basis(_load(args.basis))
    unitary = documents.to_matrix(_load(args.unitary))
    to_e, u = apply_unitary_umap(joint, basis, unitary, args.rank_tol)
    _write_document(args.out, documents.ensemble_document(to_e))
    if args.umap_out is not None:
        _write_document(args.umap_out, documents.umap_document(u))
    return EXIT_OK


def _cmd_contains(args) -> int:
    joint = documents.to_joint(_load(args.joint))
    ket = documents.to_ket(_load(args.ket))
    ensemble, _ = ensemble_containing(joint, ket, args.rank_tol)
    _write_document(args.out, documents.ensemble_document(ensemble))
    return EXIT_OK


def _cmd_steer(args) -> int:
    joint = documents.to_joint(_load(args.joint))
    basis = documents.to_basis(_load(args.basis))
    report = steer(joint, basis, args.shots, args.seed, args.rank_tol)
    _write_document(args.out, documents.report_document(report))
    return EXIT_OK


def _load_or_report(path: str, extract, violations: list[str]):
    """The document's value, or None after recording a violated precondition:
    an error that exits 3. Any other error propagates to its own exit code."""
    try:
        return extract(_load(path))
    except RhokitError as exc:
        if _exit_code(exc) != EXIT_PRECONDITION:
            raise
        violations.append(str(exc))
        return None


def _cmd_verify(args) -> int:
    violations: list[str] = []
    if args.ensemble is not None:
        ensemble = _load_or_report(args.ensemble, documents.to_ensemble, violations)
        if ensemble is not None:
            violations.extend(validate_ensemble(ensemble, args.tol))
            if args.rho is not None:
                rho = documents.to_matrix(_load(args.rho))
                if rho.shape != (ensemble.dim, ensemble.dim):
                    violations.append(
                        f"density matrix has shape {rho.shape}, expected "
                        f"({ensemble.dim}, {ensemble.dim})"
                    )
                else:  # a state out of float range is NaN, an infinite deviation
                    deviation = max_abs(_state(_amplitudes(ensemble, ensemble.order)) - rho)
                    if deviation > args.tol:
                        violations.append(
                            f"ensemble misses the given density matrix by {deviation:.3e}"
                        )
    elif args.umap is not None:
        umap = _load_or_report(args.umap, documents.to_umap, violations)
        if umap is not None:
            violations.extend(check_umap(umap, args.tol))
    else:
        joint = _load_or_report(args.joint, documents.to_joint, violations)
        if joint is not None:
            norm = float(np.linalg.norm(joint.vec))
            if abs(norm - 1.0) > args.tol:
                violations.append(f"joint ket has norm {norm!r}, expected 1")
    _write_text(
        "-",
        json.dumps({"clean": not violations, "violations": violations}, indent=2)
        + "\n",
    )
    return EXIT_OK if not violations else EXIT_PRECONDITION


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors keep the JSON stderr contract.

    ``add_subparsers`` builds subcommand parsers of the same class.
    """

    def _print_message(self, message, file=None):
        # argparse would drop a failed write; _write_text raises DocumentError.
        if file is not sys.stdout:
            return super()._print_message(message, file)
        _write_text("-", message)

    def error(self, message):
        _emit_error("UsageError", message)
        sys.exit(EXIT_DOCUMENT)


def build_parser() -> argparse.ArgumentParser:
    """The ``rhokit`` parser: one subcommand per command, each with the one
    tolerance flag it reads, if any, and usage errors on the JSON stderr contract."""
    parser = _Parser(
        prog="rhokit",
        description=(
            "Purify weighted-ket ensembles, convert between decompositions of "
            "one density matrix, and simulate ancilla-measurement steering. "
            "All values travel as versioned JSON documents; '-' means "
            "stdin/stdout."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("purify", help="purify an ensemble against canonical ancilla kets")
    p.add_argument("ensemble", help="ensemble document")
    p.add_argument("--dim-m", type=int, required=True, help="ancilla dimension")
    p.add_argument("--out", default="-", help="joint document destination")
    p.add_argument("--ancilla-out", default=None, help="ancilla (basis document) destination")
    p.set_defaults(func=_cmd_purify)

    p = sub.add_parser(
        "ensemble-from-basis",
        help="decompose a joint state by conditioning on an ancilla basis",
    )
    p.add_argument("joint", help="joint document")
    p.add_argument("basis", help="basis document")
    p.add_argument("--out", default="-")
    _add_tolerance(p, "--rank-tol")
    p.set_defaults(func=_cmd_ensemble_from_basis)

    p = sub.add_parser("umap", help="coefficient map between two same-density ensembles")
    p.add_argument("from_ensemble", metavar="from-ensemble", help="source ensemble document")
    p.add_argument("to_ensemble", metavar="to-ensemble", help="target ensemble document")
    p.add_argument("--out", default="-")
    _add_tolerance(p, "--tol")
    p.set_defaults(func=_cmd_umap)

    p = sub.add_parser(
        "apply-u",
        help="rotate an ancilla basis by a unitary and extract the induced map",
    )
    p.add_argument("joint", help="joint document")
    p.add_argument("basis", help="basis document")
    p.add_argument("unitary", help="matrix document")
    p.add_argument("--out", default="-", help="ensemble document destination")
    p.add_argument("--umap-out", default=None, help="umap document destination")
    _add_tolerance(p, "--rank-tol")
    p.set_defaults(func=_cmd_apply_u)

    p = sub.add_parser(
        "contains",
        help="decomposition whose first element is a chosen support vector",
    )
    p.add_argument("joint", help="joint document")
    p.add_argument("ket", help="ket document")
    p.add_argument("--out", default="-")
    _add_tolerance(p, "--rank-tol")
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("steer", help="measure the ancilla and sample outcome counts")
    p.add_argument("joint", help="joint document")
    p.add_argument("basis", help="basis document")
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="PCG64 stream seed")
    p.add_argument("--out", default="-")
    _add_tolerance(p, "--rank-tol")
    p.set_defaults(func=_cmd_steer)

    p = sub.add_parser("verify", help="validate a document; exit 0 iff clean")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ensemble", help="ensemble document")
    group.add_argument("--umap", help="umap document")
    group.add_argument("--joint", help="joint document")
    p.add_argument("--rho", default=None, help="density matrix document to check against")
    _add_tolerance(p, "--tol")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command in the calling process and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``. A library error is written to stderr
    as one JSON line and mapped onto the exit-code contract above; a usage
    error (exit 2) and ``--help`` (exit 0) return their code too.
    """
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "verify" and args.rho is not None and args.ensemble is None:
            parser.error("--rho requires --ensemble")
        # numpy warns on overflow from finite entries near the float limit;
        # that would break the one-line stderr contract, and the inf or NaN
        # it leaves still fails the checks that follow.
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit as exc:  # argparse: --help, and _Parser.error's usage errors
        return exc.code
    except RhokitError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return _exit_code(exc)
    except MemoryError as exc:
        _emit_error(ResourceExhausted.__name__, str(exc) or "out of memory")
        return EXIT_NUMERICAL


def run(argv=None) -> None:
    """Process entry point: ``main``, then exit without interpreter teardown.

    When ``main`` returns it has closed every file it wrote; only stdout and
    stderr may still hold buffered text. Both are flushed and ``os._exit``
    ends the process with the exit code, skipping a teardown that has no
    work left to do. A stdout that cannot take the flush exits 2 with one
    JSON error line, as a failed write in ``main`` does; a closed stdout
    (``None``) has nothing to flush. Exceptions that ``main`` does not map
    propagate.
    """
    code = main(argv)
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # Every exit 2 has written its one error line already; after a failed
        # stdout write the text left in the buffer fails here again.
        if code != EXIT_DOCUMENT:
            _emit_error(DocumentError.__name__, f"cannot write stdout: {exc}")
        code = EXIT_DOCUMENT
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # the error line is lost; the exit code still carries it
    os._exit(code)


def _exit_code(exc: RhokitError) -> int:
    """The one mapping of a library error onto the exit-code contract."""
    if isinstance(exc, DocumentError):
        return EXIT_DOCUMENT
    if isinstance(exc, (NumericalFailure, ResourceExhausted)):
        return EXIT_NUMERICAL
    return EXIT_PRECONDITION


def _emit_error(error: str, message: str) -> None:
    """Write one JSON error line to stderr. A closed stderr (``None``) or one
    that cannot take the line drops it; the exit code still carries the error."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
    except OSError:
        pass


if __name__ == "__main__":
    run()
