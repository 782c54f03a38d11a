"""Command-line interface.

Exit codes: 0 success/valid, 1 invalid broadcast or failed internal
verification, 2 usage or parse error or an input too large to hold, 3 search
budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .bounds import bound_report, lower_t2, upper_t2
from .construct import best_anchor_construct, construct, letterbox_construct
from .document import BroadcastDocument, load_document, serialize_document
from .grid import BroadcastParams, Coord, GridDims, InvariantError
from .lattice import DiamondLattice, window_density
from .render import document_verdict, render_ascii, render_svg

if TYPE_CHECKING:
    from .solver import SearchBudget, SolveResult


def _parse_coord(text: str) -> Coord:
    try:
        x, y = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a coordinate like 'x,y', got {text!r}") from None
    return Coord(x, y)


def _parse_range(text: str) -> list[range]:
    """Accepts 'a:b' (inclusive), single values, and comma lists thereof.

    Each part stays a range, so a wide one is checked without being expanded.
    """
    parts: list[range] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            parts.append(range(int(lo), int(hi) + 1))
        else:
            value = int(part)
            parts.append(range(value, value + 1))
    if not any(parts):
        raise ValueError(f"empty range: {text!r}")
    if any(part and part.start < 1 for part in parts):
        raise ValueError(f"range values must be positive: {text!r}")
    return parts


def _decimal6(value: Fraction) -> str:
    # Exact rational -> 6 decimal places, round half away from zero.
    scaled = value.numerator * 10**6
    q, rem = divmod(scaled, value.denominator)
    if 2 * rem >= value.denominator:
        q += 1
    return f"{q // 10**6}.{q % 10**6:06d}"


def _emit_document(doc: BroadcastDocument, out: str | None, summary: str) -> None:
    text = serialize_document(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def _cmd_construct(args: argparse.Namespace) -> int:
    dims = GridDims(args.m, args.n)
    if args.anchor is not None and args.best:
        raise ValueError("--anchor and --best are mutually exclusive")
    if args.shear is not None and args.anchor is None:
        raise ValueError("--shear requires --anchor")

    if args.anchor is not None:
        anchor = _parse_coord(args.anchor)
        shear = args.shear if args.shear is not None else args.t - 1
        result = letterbox_construct(dims, DiamondLattice(args.t, anchor, shear))
    else:
        result = best_anchor_construct(dims, args.t)

    metadata: dict = {"generator": result.generator, "tool_version": __version__}
    summary = f"size={len(result.towers)} bound={upper_t2(args.m, args.n, args.t)}"
    if result.anchor is not None:
        metadata.update(anchor=(result.anchor.x, result.anchor.y), raw_count=result.raw_count)
        summary += f" anchor=({result.anchor.x},{result.anchor.y})"
    if args.shear is not None:
        metadata["shear"] = args.shear
    doc = BroadcastDocument(
        m=args.m, n=args.n, t=args.t, r=2, towers=result.towers, metadata=metadata
    )
    _emit_document(doc, args.out, summary)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = load_document(args.path)
    verdict = document_verdict(doc)
    for x, y in verdict.outside_towers.tolist():
        print(f"warning: tower ({x},{y}) lies outside the {doc.m}x{doc.n} grid", file=sys.stderr)
    if verdict.valid:
        print("VALID")
        return 0
    print(f"INVALID: {verdict.count} deficient vertices")
    short, received = verdict.first(10)
    for (x, y), got in zip(short.tolist(), received.tolist()):
        print(f"({x},{y}) signal={got}")
    return 1


def exact_gamma(dims: GridDims, params: BroadcastParams, budget: SearchBudget) -> SolveResult:
    """solver.exact_gamma, with the solver imported on the first call.

    It stays a module attribute because perfbench's SolveCapture and its
    ``solver.exact_gamma`` trace span patch ``cli.exact_gamma``.
    """
    from .solver import exact_gamma as solve

    return solve(dims, params, budget)


def _budget(args: argparse.Namespace) -> SearchBudget:
    from ._budget import DEFAULT_MAX_NODES, SearchBudget

    max_nodes = DEFAULT_MAX_NODES if args.budget is None else args.budget
    return SearchBudget(max_nodes=max_nodes, max_seconds=args.max_seconds)


def _cmd_exact(args: argparse.Namespace) -> int:
    result = exact_gamma(
        GridDims(args.m, args.n),
        BroadcastParams(args.t, args.r),
        _budget(args),
    )
    if result.status == "optimal":
        print(f"gamma={result.gamma} nodes={result.nodes_expanded}")
        return 0
    upper = "?" if result.upper is None else result.upper
    print(f"UNSOLVED lower={result.lower} upper={upper} nodes={result.nodes_expanded}")
    return 3


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = bound_report(args.m, args.n, args.t)
    print("m,n,t,lower,upper,ratio")
    print(
        f"{args.m},{args.n},{args.t},{report.lower_t2},{report.upper_t2},"
        f"{_decimal6(report.ratio)}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    ms = _parse_range(args.m_range)
    ns = _parse_range(args.n_range)
    budget = _budget(args)
    lines = ["m,n,t,construct_size,upper,lower,exact,gap"]
    for m in chain.from_iterable(ms):
        for n in chain.from_iterable(ns):
            dims = GridDims(m, n)
            size = len(construct(dims, args.t))
            upper = upper_t2(m, n, args.t)
            lower = lower_t2(m, n, args.t)
            exact_text = ""
            if args.exact:
                result = exact_gamma(dims, BroadcastParams(args.t, 2), budget)
                # "?" marks an exhausted search; blank means --exact was not given.
                exact_text = str(result.gamma) if result.status == "optimal" else "?"
            lines.append(f"{m},{n},{args.t},{size},{upper},{lower},{exact_text},{upper - size}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    doc = load_document(args.path)
    sys.stdout.write(render_svg(doc) if args.format == "svg" else render_ascii(doc))
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    anchor = _parse_coord(args.anchor) if args.anchor else Coord(0, 0)
    shear = args.shear if args.shear is not None else args.t - 1
    print(window_density(DiamondLattice(args.t, anchor, shear), args.side))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="gridcast",
        description="Broadcast domination on finite grid graphs: construct, "
        "verify, bound, solve exactly, and render.",
    )
    parser.add_argument("--version", action="version", version=f"gridcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a verified (t,2) broadcast")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--anchor", help="letterbox at this pattern anchor, e.g. '1,4'")
    p.add_argument("--best", action="store_true", help="minimize over all anchors (default)")
    p.add_argument("--shear", type=int, help="pattern shear (requires --anchor)")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check a broadcast document")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("exact", help="exact domination number by complete search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget", type=int, help="node expansion cap")
    p.add_argument("--max-seconds", type=float, help="wall-clock cap on the whole solve")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("bounds", help="closed-form (t,2) bounds as one CSV row")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("sweep", help="construction vs bounds over a grid range, CSV")
    p.add_argument("--m-range", required=True, help="e.g. '2:6' or '8,16,32'")
    p.add_argument("--n-range", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="also solve each cell exactly")
    p.add_argument("--budget", type=int)
    p.add_argument("--max-seconds", type=float, help="wall-clock cap on each exact solve")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("render", help="draw a broadcast document")
    p.add_argument("path")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("density", help="exact tower density of a pattern window")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--side", type=int, required=True)
    p.add_argument("--shear", type=int)
    p.add_argument("--anchor", help="pattern anchor, e.g. '0,0'")
    p.set_defaults(handler=_cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
