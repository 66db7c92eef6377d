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
import os
import sys
from functools import partial
from typing import IO, Callable

from .counting import CountingContext, exact_counts
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
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 50_000_000))
    except AttributeError:
        pass  # interpreter without the guard prints any size already


def _check_n(args: argparse.Namespace) -> None:
    if args.n < 0:
        raise CliError("n must be nonnegative")
    if args.connected and args.n < 1:
        raise CliError("--connected requires n >= 1")


def _emit_samples(draw: Callable[[RandomStream], LabeledGraph], args: argparse.Namespace,
                  out: IO[str]) -> None:
    """Write ``args.count`` draws from one ``RandomStream(args.seed)``."""
    rng = RandomStream(args.seed)
    for i in range(args.count):
        g = draw(rng)
        if args.format == "json":
            out.write(json.dumps(to_json_dict(g), separators=(",", ":")) + "\n")
        else:
            if i:
                out.write("\n")
            out.write(to_edge_list_text(g))


def cmd_count(args: argparse.Namespace, out: IO[str]) -> None:
    _check_n(args)
    connected, total = exact_counts(args.n, args.omega, allow_large=args.allow_large)
    value = (connected if args.connected else total)[args.n]
    out.write(decimal_string(value) + "\n")


def _check_count(count: int) -> None:
    if count < 0:
        raise CliError("count must be nonnegative")


def cmd_sample(args: argparse.Namespace, out: IO[str]) -> None:
    _check_count(args.count)
    _check_n(args)
    ctx = CountingContext(args.n, args.omega, allow_large=args.allow_large)
    if args.connected and ctx.count_connected(args.n) == 0:
        raise CliError(f"no connected chordal graph on [{args.n}] is {ctx.omega}-colorable")
    sampler = ChordalSampler(ctx)
    draw = sampler.sample_connected if args.connected else sampler.sample_chordal
    _emit_samples(partial(draw, args.n), args, out)


def _table_row(counts: tuple[list[int], list[int]], n: int, omega: int) -> str:
    connected, total = counts
    return f"{n},{omega},{decimal_string(connected[n])},{decimal_string(total[n])}\n"


def cmd_tables(args: argparse.Namespace, out: IO[str]) -> None:
    if args.n < 1:
        raise CliError("tables require n >= 1")
    # The omega = n fill is the largest; building it first refuses a runaway
    # table before any line is written.
    top = exact_counts(args.n, args.n, allow_large=args.allow_large)
    out.write("n,omega,connected_count,all_count\n")
    if args.by_omega:
        for omega in range(1, args.n + 1):
            counts = top if omega == args.n else exact_counts(
                args.n, omega, allow_large=args.allow_large)
            for n in range(omega, args.n + 1):
                out.write(_table_row(counts, n, omega))
    else:
        for n in range(1, args.n + 1):
            out.write(_table_row(top, n, n))


def cmd_approx_count(args: argparse.Namespace, out: IO[str]) -> None:
    eps = _parse_epsilon(args.epsilon)
    value = approx_count_chordal(args.n, eps)
    out.write(decimal_string(value) + "\n")


def cmd_approx_sample(args: argparse.Namespace, out: IO[str]) -> None:
    _check_count(args.count)
    _emit_samples(approx_sampler(args.n, _parse_epsilon(args.epsilon)), args, out)


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

    def add_common(p, sampling=False, approx=False, omega=True):
        p.add_argument("--n", type=int, required=True, help="number of vertices")
        if not approx:
            if omega:
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
    add_common(p, omega=False)  # the rows fix omega: n' or, with --by-omega, every value
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


class _OutFile:
    """The ``--out`` file, opened for writing at the first write, so that a
    command refused before it writes leaves an existing file as it was."""

    def __init__(self, path: str):
        self.path = path
        self.file: IO[str] | None = None

    def write(self, text: str) -> int:
        if self.file is None:
            try:
                self.file = open(self.path, "w")
            except OSError as exc:
                raise CliError(f"cannot write {self.path}: {exc.strerror or exc}") from None
        return self.file.write(text)

    def __enter__(self) -> _OutFile:
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is None:
            self.write("")  # a command that wrote nothing still leaves its empty file
        if self.file is not None:
            self.file.close()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            with _OutFile(args.out) as fh:
                args.func(args, fh)
        else:
            args.func(args, sys.stdout)
            sys.stdout.flush()  # a failed write surfaces here, not at exit
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if args.out is None:
            # Send what stdout still buffers to devnull, so that the
            # interpreter's flush at exit does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that left (| head) is no error
            target = "stdout" if args.out is None else args.out
            print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
