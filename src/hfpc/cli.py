"""Command-line surface: search, verify, cchm conversions, table reproduction.

Exit codes: 0 success, 1 failed predicate (verify), 2 internal invariant
violation, 64 usage or parse errors and an output file that cannot be opened.
Result streams are JSON lines with a deterministic key order; wall-clock
timings go to stderr only, so stdout holds identical bytes on every run.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache

from .cchm import (
    MalformedCosetHit,
    NotCCHM,
    QuaternaryRow,
    cchm_to_code,
    code_to_cchm,
    is_cchm,
)
from .families import SEARCH_TAGS, Reject, assemble, assemble_quaternion_explicit
from .gf2 import BitVector, _echelon, _reduced_basis
from .hadamard import BoundViolation, _is_hadamard_words, _kernel, _values, profile
from .search import (
    DEEP_GATE,
    SearchTask,
    TableCell,
    candidate_count,
    reproduce_table,
    run_search,
)

USAGE_EXIT = 64
INTERNAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(USAGE_EXIT)


def _dump(obj: dict, out) -> None:
    out.write(json.dumps(obj) + "\n")


def _open_output(path: str | None):
    """stdout, or the named file, opened before any search runs."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        sys.stderr.write("error: cannot open output: %s\n" % exc)
        raise SystemExit(USAGE_EXIT)


def _parse_vector(text: str, n: int, parser: _Parser) -> BitVector:
    try:
        v = BitVector.from_string(text)
    except ValueError as exc:
        parser.error(str(exc))
    if v.n != n:
        parser.error("bitstring length %d does not match 4t = %d" % (v.n, n))
    return v


def cmd_search(args, parser: _Parser) -> int:
    count = candidate_count(args.family, args.t)
    if count > DEEP_GATE and not args.deep:
        parser.error(
            "family %s t=%d has %d candidates; pass --deep to run it"
            % (args.family, args.t, count)
        )
    mode = "all" if args.all else "first"
    task = SearchTask(args.family, args.t, mode=mode)
    with _open_output(args.output) as out:
        try:
            result = run_search(task)
        except BoundViolation as exc:
            sys.stderr.write("bound violation: %s\n" % exc)
            return INTERNAL_EXIT
        # codes of this family beyond t = 8 would contradict the nonexistence
        # conjecture for circulant complex Hadamard matrices; dump them in full
        flag_counterexamples = args.family == "2t4u" and args.t > 8
        for acc in result.accepted:
            record = acc.profile.to_json_dict()
            if flag_counterexamples:
                record["conjecture_counterexample_candidate"] = True
                record["codewords"] = sorted(
                    format(v, "0%db" % (4 * args.t)) for v in acc.vector_values
                )
            _dump(record, out)
        summary = {
            "type": "summary",
            "family": result.family,
            "t": result.t,
            "mode": mode,
            "candidates": count,
            "counters": {k: result.counters[k] for k in sorted(result.counters)},
            "accepted": len(result.accepted),
            "distinct_code_sets": result.distinct_code_sets,
        }
        if flag_counterexamples:
            summary["conjecture_counterexample_candidates"] = len(result.accepted)
        _dump(summary, out)
    sys.stderr.write(
        "search %s t=%d: %d accepted (%d distinct) in %.2fs\n"
        % (
            result.family,
            result.t,
            len(result.accepted),
            result.distinct_code_sets,
            result.wall_time,
        )
    )
    return 0


def cmd_verify(args, parser: _Parser) -> int:
    n = 4 * args.t
    try:
        if args.family == "tqu":
            if not args.d:
                parser.error("family tqu needs --d (optionally with --a and --b)")
            if (args.a is None) != (args.b is None):
                parser.error("family tqu takes --a and --b together")
            d = _parse_vector(args.d, n, parser)
            if args.a is None:
                code = assemble("tqu", args.t, d)
            else:
                code = assemble_quaternion_explicit(
                    args.t,
                    d,
                    _parse_vector(args.a, n, parser),
                    _parse_vector(args.b, n, parser),
                )
        else:
            if not args.a:
                parser.error("family %s needs --a" % args.family)
            if args.b is not None or args.d is not None:
                parser.error("family %s takes only --a" % args.family)
            code = assemble(args.family, args.t, _parse_vector(args.a, n, parser))
    except ValueError as exc:
        parser.error(str(exc))
    if isinstance(code, Reject):
        _dump({"rejected": code.reason, "detail": code.detail}, sys.stdout)
        return 1
    try:
        prof = profile(code)
    except BoundViolation as exc:
        sys.stderr.write("bound violation: %s\n" % exc)
        return INTERNAL_EXIT
    _dump(prof.to_json_dict(), sys.stdout)
    return 0


def _parse_row(text: str, parser: _Parser) -> QuaternaryRow:
    try:
        return QuaternaryRow.parse(text)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_cchm(args, parser: _Parser) -> int:
    if args.cchm_cmd == "check":
        row = _parse_row(args.row, parser)
        print("true" if is_cchm(row) else "false")
        return 0
    if args.cchm_cmd == "to-code":
        row = _parse_row(args.row, parser)
        try:
            code = cchm_to_code(row)
        except NotCCHM as exc:
            sys.stderr.write("not a CCHM row: %s\n" % exc)
            return 1
        n, vals = _values(code)
        out = {
            "length": n,
            "size": len(vals),
            "is_hadamard_code": _is_hadamard_words(n, vals, n // 4),
            "rank": len(_echelon(vals)),
            "kernel_dim": len(_reduced_basis(_kernel(vals))),
            "codewords": [str(v) for v in code],
        }
        _dump(out, sys.stdout)
        return 0
    if args.cchm_cmd == "from-code":
        n = 4 * args.t
        code = assemble("2t4u", args.t, _parse_vector(args.a, n, parser))
        if isinstance(code, Reject):
            _dump({"rejected": code.reason, "detail": code.detail}, sys.stdout)
            return 1
        try:
            row = code_to_cchm(code)
        except MalformedCosetHit as exc:
            sys.stderr.write("conversion failed: %s\n" % exc)
            return INTERNAL_EXIT
        print(str(row))
        return 0
    parser.error("unknown cchm subcommand")


_CELL_TEXT = {
    "analytic": "analytic",
    "not-applicable": "-",
    "skipped-budget": "skipped",
}


def _cell_text(cell: TableCell) -> str:
    if cell.status != "searched":
        return _CELL_TEXT[cell.status]
    if not cell.profiles:
        return "x"
    return ",".join("(%d,%d)" % rk for rk in cell.profiles)


def cmd_table(args, parser: _Parser) -> int:
    with _open_output(args.output) as out:
        try:
            rows = reproduce_table(args.tmax, deep=args.deep)
        except BoundViolation as exc:
            sys.stderr.write("bound violation: %s\n" % exc)
            return INTERNAL_EXIT
        if args.format == "csv":
            out.write("t,family,status,profiles,candidates,accepted,distinct\n")
            for row in rows:
                for cell in row:
                    profs = " ".join("%d:%d" % rk for rk in cell.profiles)
                    out.write(
                        "%d,%s,%s,%s,%d,%d,%d\n"
                        % (
                            cell.t,
                            cell.family,
                            cell.status,
                            profs,
                            cell.candidates,
                            cell.accepted,
                            cell.distinct,
                        )
                    )
        else:
            headers = ["t"] + list(SEARCH_TAGS)
            body = [
                [str(row[0].t)] + [_cell_text(c) for c in row] for row in rows
            ]
            widths = [
                max(len(h), *(len(r[i]) for r in body)) if body else len(h)
                for i, h in enumerate(headers)
            ]
            line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
            out.write(line + "\n")
            out.write("-" * len(line) + "\n")
            for r in body:
                out.write(
                    " | ".join(x.ljust(w) for x, w in zip(r, widths)) + "\n"
                )
    return 0


@cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every call.

    parse_args returns a fresh Namespace each time, so reuse carries no state
    from one call to the next.
    """
    parser = _Parser(prog="hfpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="enumerate generator candidates")
    p_search.add_argument("--family", required=True, choices=SEARCH_TAGS)
    p_search.add_argument("--t", required=True, type=int)
    mode = p_search.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="report every accepted code")
    mode.add_argument("--first", action="store_true", help="stop at the first code")
    p_search.add_argument("--deep", action="store_true")
    p_search.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="profile an explicit generator")
    p_verify.add_argument("--family", required=True, choices=SEARCH_TAGS)
    p_verify.add_argument("--t", required=True, type=int)
    p_verify.add_argument("--a", default=None)
    p_verify.add_argument("--b", default=None)
    p_verify.add_argument("--d", default=None)

    p_cchm = sub.add_parser("cchm", help="circulant complex Hadamard tools")
    cchm_sub = p_cchm.add_subparsers(dest="cchm_cmd", required=True)
    p_check = cchm_sub.add_parser("check")
    p_check.add_argument("--row", required=True)
    p_to = cchm_sub.add_parser("to-code")
    p_to.add_argument("--row", required=True)
    p_from = cchm_sub.add_parser("from-code")
    p_from.add_argument("--t", required=True, type=int)
    p_from.add_argument("--a", required=True)

    p_table = sub.add_parser("table", help="reproduce the results table")
    p_table.add_argument("--tmax", required=True, type=int)
    p_table.add_argument("--deep", action="store_true")
    p_table.add_argument("--format", choices=["text", "csv"], default="text")
    p_table.add_argument("--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command == "search":
            if args.t < 1:
                parser.error("t must be positive")
            return cmd_search(args, parser)
        if args.command == "verify":
            return cmd_verify(args, parser)
        if args.command == "cchm":
            return cmd_cchm(args, parser)
        if args.command == "table":
            if args.tmax < 1:
                parser.error("tmax must be positive")
            return cmd_table(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT
    except RuntimeError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return INTERNAL_EXIT
    parser.error("no command given")
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
