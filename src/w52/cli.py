"""Command-line front end.

Subcommands: enumerate, census, table1, laws, verify, show.  Exit codes:
0 on success / match, 1 on verification or comparison failure (or a
structural violation, which signals a bug) and, silently, when stdout is a
pipe whose reader has gone, 2 on usage or parse errors.  A command returns
its verdict's code and raises every error; only :func:`main` writes stderr.
All output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from . import export
from .contextuality import Verdict, analyze, wa_symbol
from .geometry import Space, TaxonomyViolation
from .pauli import WORDS, PauliError
from .pentads import _search, pentad_to_config, pentad_to_pentagram
from .taxonomy import _PENTAD_COUNT, classify_census, compare_with_table1, structural_laws

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A request a command refuses before it does any work, such as an unknown id."""


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with export.atomic_open(out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.coords and args.object != "points":
        raise UsageError("--coords applies to points only")
    space = Space()
    if args.object == "points":
        rows = export.points_table(space, coords=args.coords)
    elif args.object == "lines":
        rows = export.lines_table(space)
    elif args.object == "planes":
        rows = export.planes_table(space)
    else:
        pentads = _search(space)
        if args.out:
            dump = export.dump_pentads if args.format == "json" else export.dump_pentad_csv
            with export.atomic_open(args.out) as f:
                count = dump(f, space, pentads)
        else:
            count = sum(1 for _ in pentads)
        print(count)
        return EXIT_OK
    if args.out:
        if args.format == "json":
            _write_or_print(export.render_json(rows), args.out)
        else:
            _write_or_print(export.render_csv(rows), args.out)
    print(len(rows))
    return EXIT_OK


def _build_census():
    space = Space()
    return classify_census(space, _search(space))


def _cmd_census(args: argparse.Namespace) -> int:
    census = _build_census()
    _write_or_print(export.census_csv(census), args.out)
    if args.out:
        print(f"{len(census.records)} types over {census.total} pentads -> {args.out}")
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    diff = compare_with_table1(_build_census())
    print(diff.render())
    return EXIT_OK if diff.ok else EXIT_FAIL


def _cmd_laws(args: argparse.Namespace) -> int:
    report = structural_laws(_build_census())
    print(report.render())
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    context_set = export.load_context_file(args.file)
    report = analyze(context_set)
    symbol = wa_symbol(context_set)
    if args.format == "json":
        obj = report.to_json_obj()
        obj["symbol"] = str(symbol)
        sys.stdout.write(export.render_json(obj))
    else:
        print(f"contexts: {len(report.contexts)}")
        for i, ctx in enumerate(report.contexts):
            words = " ".join(o.word for o in ctx.observables)
            if ctx.sign is not None:
                status = f"sign {ctx.sign:+d}"
            else:
                status = "malformed:" + (" anticommuting" if not ctx.commuting else "") + (
                    " not closed" if not ctx.closed else ""
                )
            print(f"  [{i:2d}] {words}   {status}")
        occurrences = report.occurrence_counts
        print(f"observables: {len(occurrences)}, all even: {'yes' if report.all_even else 'no'}")
        print(
            f"negative contexts: {report.negative_count} "
            f"(odd: {'yes' if report.odd_negative else 'no'})"
        )
        print(f"symbol: {symbol}")
        print(f"verdict: {report.verdict}")
    return EXIT_OK if report.verdict is Verdict.VALID_PARITY_PROOF else EXIT_FAIL


def _render_word(point_id: int, coords: bool) -> str:
    word = WORDS[point_id - 1]
    return f"{word}({export._coords(point_id)})" if coords else word


def _cmd_show(args: argparse.Namespace) -> int:
    if not 0 <= args.pentad < _PENTAD_COUNT:
        raise UsageError(f"unknown pentad id {args.pentad}")
    space = Space()
    pentad = next(islice(_search(space), args.pentad, None), None)
    if pentad is None:
        raise TaxonomyViolation(f"the pentad search ended before pentad {args.pentad}")
    w = lambda p: _render_word(p, args.coords)  # noqa: E731
    print(f"pentad {args.pentad}: planes {' '.join(str(p) for p in pentad.planes)}")
    if args.view == "planes":
        for plane_id, line_id in zip(pentad.planes, pentad.distinguished_lines):
            plane = space.planes[plane_id]
            words = " ".join(w(p) for p in plane.points)
            shared = " ".join(w(p) for p in space.flags[plane_id, line_id].affine)
            print(
                f"  plane {plane_id} [{plane.plane_class}] sign {plane.sign:+d}: {words}\n"
                f"    shared points: {shared}  (distinguished line {line_id})"
            )
    elif args.view == "pentagram":
        pentagram = pentad_to_pentagram(space, pentad)
        print(f"  observables: {' '.join(w(p) for p in pentagram.observables)}")
        for edge, sign in zip(pentagram.edges, pentagram.edge_signs):
            print(f"  edge {' '.join(w(p) for p in edge)}   sign {sign:+d}")
        print(f"  negative edges: {pentagram.negative_edges}")
    else:
        config = pentad_to_config(space, pentad)
        print(f"  observables ({len(config.observables)}): "
              f"{' '.join(w(p) for p in config.observables)}")
        print(f"  contexts ({len(config.contexts)}):")
        for ctx, sign in zip(config.contexts, config.context_signs):
            print(f"    {' '.join(w(p) for p in ctx)}   sign {sign:+d}")
        print(f"  negative contexts: {config.negative_contexts}")
    return EXIT_OK


def _out_path(value: str) -> str:
    """An ``--out`` path, which must not be empty."""
    if not value:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="w52",
        description="Three-qubit W(5,2): Fano pentads, Mermin pentagrams, and "
        "their 47 configuration types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate points, lines, planes or pentads")
    p.add_argument("object", choices=["points", "lines", "planes", "pentads"])
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out", type=_out_path, metavar="PATH", help="write the table here")
    p.add_argument("--coords", action="store_true", help="also show GF(2)^6 coordinates")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("census", help="classify all pentad configurations and write the summary")
    p.add_argument("--out", type=_out_path, metavar="PATH",
                   help="summary CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("table1", help="compare the census against the 47 reference rows")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("laws", help="check the five structural laws over the census")
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("verify", help="verify a context file as a parity proof")
    p.add_argument("file", metavar="CONTEXTS.json")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("show", help="pretty-print one pentad")
    p.add_argument("--pentad", type=int, required=True, metavar="ID")
    p.add_argument("--as", dest="view", choices=["planes", "pentagram", "config"],
                   default="planes")
    p.add_argument("--coords", action="store_true", help="also show GF(2)^6 coordinates")
    p.set_defaults(func=_cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe breaks here, not at exit
        return code
    except BrokenPipeError:  # the reader is gone; spare the flush at exit a second failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (OSError, PauliError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TaxonomyViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
