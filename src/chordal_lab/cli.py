"""Command-line interface: counting, sampling, approximation, and table dumps.

Counts are printed as exact decimal strings.  Graphs stream to stdout (or a
file) either as edge-list records ("n m" header plus one "u v" line per edge,
records separated by a blank line) or as one JSON object per line.  All
randomness is controlled by --seed; identical seeds give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Iterable

from .counting import CountingContext
from .decimal_text import decimal_string
from .graphs import LabeledGraph, to_edge_list_text, to_json_dict
from .sampling import ChordalSampler, RandomStream
from .splits import approx_count_chordal, approx_sampler, as_epsilon


class CliError(Exception):
    """A domain error reported as a one-line diagnostic with exit code 1."""


def allow_huge_decimal_output() -> None:
    """Lift the interpreter's int-to-str digit guard for the whole process.

    The commands do not need it (they print through ``decimal_string``); it
    is for callers that ``str()`` counts of n*n bits themselves.
    """
    try:
        import sys as _sys

        _sys.set_int_max_str_digits(max(_sys.get_int_max_str_digits(), 50_000_000))
    except AttributeError:
        pass  # interpreter without the guard prints any size already


def _make_context(n: int, omega: int | None, allow_large: bool) -> CountingContext:
    if n < 0:
        raise CliError("n must be nonnegative")
    if omega is not None and omega < 1:
        raise CliError("omega must be at least 1")
    if n == 0:
        return CountingContext(0)
    return CountingContext(n, omega if omega is not None else n, allow_large=allow_large)


def _emit_graphs(graphs: Iterable[LabeledGraph], fmt: str, out: IO[str]) -> None:
    first = True
    for g in graphs:
        if fmt == "json":
            out.write(json.dumps(to_json_dict(g), separators=(",", ":")) + "\n")
        else:
            if not first:
                out.write("\n")
            out.write(to_edge_list_text(g))
        first = False


def cmd_count(args: argparse.Namespace, out: IO[str]) -> None:
    ctx = _make_context(args.n, args.omega, args.allow_large)
    if args.connected:
        if args.n < 1:
            raise CliError("--connected requires n >= 1")
        value = ctx.count_connected(args.n)
    else:
        value = ctx.count_all(args.n)
    out.write(decimal_string(value) + "\n")


def _check_count(count: int) -> None:
    if count < 0:
        raise CliError("count must be nonnegative")


def cmd_sample(args: argparse.Namespace, out: IO[str]) -> None:
    _check_count(args.count)
    ctx = _make_context(args.n, args.omega, args.allow_large)
    if args.connected and args.n < 1:
        raise CliError("--connected requires n >= 1")
    sampler = ChordalSampler(ctx)
    rng = RandomStream(args.seed)
    if args.connected and ctx.count_connected(args.n) == 0:
        raise CliError(f"no connected chordal graph on [{args.n}] is {ctx.omega}-colorable")

    def gen():
        for _ in range(args.count):
            if args.connected:
                yield sampler.sample_connected(args.n, rng)
            else:
                yield sampler.sample_chordal(args.n, rng)

    _emit_graphs(gen(), args.format, out)


def _table_row(ctx: CountingContext, n: int, omega: int) -> str:
    return (f"{n},{omega},{decimal_string(ctx.count_connected(n))},"
            f"{decimal_string(ctx.count_all(n))}\n")


def cmd_tables(args: argparse.Namespace, out: IO[str]) -> None:
    if args.n < 1:
        raise CliError("tables require n >= 1")
    # The omega = n fill is the largest; building it first refuses a runaway
    # table before any line is written.
    top = CountingContext(args.n, args.n, allow_large=args.allow_large)
    out.write("n,omega,connected_count,all_count\n")
    if args.by_omega:
        for omega in range(1, args.n + 1):
            ctx = top if omega == args.n else CountingContext(
                args.n, omega, allow_large=args.allow_large)
            for n in range(omega, args.n + 1):
                out.write(_table_row(ctx, n, omega))
    else:
        for n in range(1, args.n + 1):
            out.write(_table_row(top, n, n))


def cmd_approx_count(args: argparse.Namespace, out: IO[str]) -> None:
    eps = _parse_epsilon(args.epsilon)
    value = approx_count_chordal(args.n, eps)
    out.write(decimal_string(value) + "\n")


def cmd_approx_sample(args: argparse.Namespace, out: IO[str]) -> None:
    _check_count(args.count)
    draw = approx_sampler(args.n, _parse_epsilon(args.epsilon))
    rng = RandomStream(args.seed)
    _emit_graphs((draw(rng) for _ in range(args.count)), args.format, out)


def _parse_epsilon(raw: str):
    try:
        return as_epsilon(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"invalid epsilon: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordal-lab",
        description="Count and uniformly sample labeled chordal graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, sampling=False, approx=False):
        p.add_argument("--n", type=int, required=True, help="number of vertices")
        if not approx:
            p.add_argument("--omega", type=int, default=None,
                           help="color budget (default n; clamped to n)")
            p.add_argument("--allow-large", action="store_true",
                           help="run an exact fill larger than the one at n = omega = 30 "
                                "(it may take hours)")
        if sampling:
            p.add_argument("--count", type=int, default=1, help="number of samples")
            p.add_argument("--seed", type=int, default=None,
                           help="64-bit seed (default: fresh entropy)")
            p.add_argument("--format", choices=("edge-list", "json"),
                           default="edge-list", help="graph output format")
        p.add_argument("--out", type=str, default=None,
                       help="output path (default stdout)")

    p = sub.add_parser("count", help="exact count of chordal graphs on [n]")
    add_common(p)
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sample", help="uniform random chordal graphs on [n]")
    add_common(p, sampling=True)
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tables", help="CSV of counts for n' = 1..n")
    add_common(p)
    p.add_argument("--by-omega", action="store_true",
                   help="one row per (n', omega) pair instead of omega = n'")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("approx-count", help="(1 +- eps)-approximate count")
    add_common(p, approx=True)
    p.add_argument("--epsilon", type=str, required=True,
                   help="accuracy target in (0,1), e.g. 1e-6")
    p.set_defaults(func=cmd_approx_count)

    p = sub.add_parser("approx-sample", help="approximately uniform chordal graphs")
    add_common(p, sampling=True, approx=True)
    p.add_argument("--epsilon", type=str, required=True,
                   help="total-variation target in (0,1)")
    p.set_defaults(func=cmd_approx_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            with open(args.out, "w") as fh:
                args.func(args, fh)
        else:
            args.func(args, sys.stdout)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
