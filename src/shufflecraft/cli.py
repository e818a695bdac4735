"""Command line surface.

One binary with subcommands for every operation, plus `verify-paper`, a
one-shot harness that runs the checks of `scorecard` and prints one line
per check.  Exit codes: 0 on success, 1 when a mathematical check fails
(a square found, a certification refuted, a verdict that does not hold),
2 for usage errors.  Machine-readable output sits behind --json / --format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

from . import catalog
from .construct import (
    STRATEGIES,
    UnconstructedLengthError,
    construct_with_strategy,
    coverage_report,
)
from .limits import (
    THEOREMS,
    verify_abelian_periodicity,
    verify_lyndon_example,
    verify_theorem4,
    verify_theorem5,
)
from .morphisms import (
    apply_morphism,
    certify_square_free_morphism,
    certify_square_free_substitution,
    fixed_point_prefix,
    parse_morphism,
    parse_substitution,
)
from .search import enumeration_table, find_self_shuffle_betas, unshuffle_square_free
from .shuffle import shuffle_conducted
from .words import find_square

ENUMERATION_COLUMNS = ("length", "square_free_count", "shuffle_word_count", "shuffleable_u_count")


@dataclasses.dataclass(frozen=True)
class CommandResult:
    exit_code: int
    payload: str


def _digits(text: str, what: str) -> str:
    # str.isdigit alone also accepts the digits of other scripts, such as ² and ٣.
    if text and not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be a string of digits, got {text!r}")
    return text


def _cmd_squarefree(args: argparse.Namespace) -> tuple[str, int]:
    word = _digits(args.word, "word")
    occ = find_square(word)
    if occ is None:
        return "square-free", 0
    half = word[occ.start : occ.start + occ.half_length]
    return f"square at ({occ.start}, {occ.half_length}): {half}", 1


def _cmd_shuffle(args: argparse.Namespace) -> tuple[str, int]:
    u = _digits(args.u, "first operand")
    v = _digits(args.v, "second operand")
    return shuffle_conducted(u, v, args.beta), 0


def _cmd_find_beta(args: argparse.Namespace) -> tuple[str, int]:
    u = _digits(args.u, "operand")
    if args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    limit = None if args.all else args.limit
    found = find_self_shuffle_betas(u, limit=limit)
    if not found:
        return f"no square-free self-shuffle of {u}", 1
    return "\n".join(f"{beta} -> {word}" for beta, word in found), 0


def _cmd_unshuffle(args: argparse.Namespace) -> tuple[str, int]:
    w = _digits(args.w, "word")
    result = unshuffle_square_free(w)
    if result is None:
        return f"{w} is not a self-shuffle of any square-free word", 1
    u, beta = result
    return f"u = {u}\nbeta = {beta}", 0


def _cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    rows = [dataclasses.astuple(row) for row in enumeration_table(args.max_length)]
    if args.format == "csv":
        lines = [",".join(ENUMERATION_COLUMNS)] + [",".join(map(str, cells)) for cells in rows]
        return "\n".join(lines), 0
    widths = [max(len(h), 6) for h in ENUMERATION_COLUMNS]
    lines = ["  ".join(h.rjust(w) for h, w in zip(ENUMERATION_COLUMNS, widths))]
    lines += ["  ".join(str(c).rjust(w) for c, w in zip(cells, widths)) for cells in rows]
    return "\n".join(lines), 0


def _resolve_map(name: str, parse: Callable, get: Callable):
    path = Path(name)
    if path.exists():
        try:
            return parse(path.read_text()), name
        except OSError as exc:
            raise ValueError(f"cannot read {name}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ValueError(f"cannot parse {name}: {exc}") from exc
    try:
        return get(name), name
    except KeyError as exc:
        raise ValueError(str(exc.args[0])) from exc


def _cmd_certify_morphism(args: argparse.Namespace) -> tuple[str, int]:
    h, subject = _resolve_map(args.name, parse_morphism, catalog.get_morphism)
    cert = certify_square_free_morphism(h, subject=subject)
    if cert.certified:
        return (
            f"certified square-free: {cert.checked_count} words checked up to length {cert.bound_used}",
            0,
        )
    word, occ = cert.counterexample
    half = apply_morphism(h, word)[occ.start : occ.start + occ.half_length]
    return f"refuted: image of {word} has the square ({half})^2 at {occ.start}", 1


def _cmd_certify_substitution(args: argparse.Namespace) -> tuple[str, int]:
    s, subject = _resolve_map(args.name, parse_substitution, catalog.get_substitution)
    cert = certify_square_free_substitution(s, subject=subject)
    if cert.certified:
        return (
            f"certified square-free: {cert.checked_count} images checked up to length {cert.bound_used}",
            0,
        )
    word, occ = cert.counterexample
    return f"refuted: an image of {word} has a square at ({occ.start}, {occ.half_length})", 1


def _cmd_fixed_point(args: argparse.Namespace) -> tuple[str, int]:
    try:
        h = catalog.get_morphism(args.name)
    except KeyError as exc:
        raise ValueError(str(exc.args[0])) from exc
    if args.length < 0:
        raise ValueError(f"--length must be non-negative, got {args.length}")
    return fixed_point_prefix(h, 0, args.length), 0


def _cmd_construct(args: argparse.Namespace) -> tuple[str, int]:
    witness, strategy = construct_with_strategy(args.length)
    if args.json:
        payload = {
            "n": args.length,
            "u": witness.u,
            "beta": witness.beta,
            "w": witness.w,
            "strategy": strategy,
        }
        return json.dumps(payload), 0
    return (
        f"u = {witness.u}\nbeta = {witness.beta}\nw = {witness.w}\nstrategy = {strategy}",
        0,
    )


def _cmd_coverage(args: argparse.Namespace) -> tuple[str, int]:
    report = coverage_report(args.max)
    counts = Counter(report.strategies.values())
    if args.json:
        payload = {
            "start": report.start,
            "end": report.end,
            "complete": report.complete,
            "gaps": list(report.gaps),
            "strategy_counts": {s: counts[s] for s in STRATEGIES if counts[s]},
        }
        return json.dumps(payload), 0 if report.complete else 1
    lines = [f"lengths {report.start}..{report.end}: " + ("complete" if report.complete else "INCOMPLETE")]
    for strategy in STRATEGIES:
        if counts[strategy]:
            lines.append(f"  {strategy}: {counts[strategy]}")
    if report.gaps:
        lines.append("gaps: " + ", ".join(map(str, report.gaps)))
    return "\n".join(lines), 0 if report.complete else 1


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.theorem == "theorem4":
        verdict = verify_theorem4(args.prefix)
    elif args.theorem == "theorem5":
        verdict = verify_theorem5(args.prefix)
    elif args.theorem == "abelian":
        verdict = verify_abelian_periodicity(args.prefix, args.period)
    else:
        verdict = verify_lyndon_example()
    if args.json:
        return json.dumps(dataclasses.asdict(verdict)), 0 if verdict.holds else 1
    if verdict.holds:
        return f"{verdict.theorem}: holds to prefix {verdict.prefix_length}", 0
    return f"{verdict.theorem}: FAILS at prefix {verdict.prefix_length}: {verdict.first_violation}", 1


def _cmd_catalog(args: argparse.Namespace) -> tuple[str, int]:
    if args.action == "dump":
        return catalog.dump_catalog(), 0
    report = catalog.verify_catalog()
    if report.ok:
        return f"{len(report.checks)} catalog checks passed", 0
    lines = [f"{check.name}: {check.detail}" for check in report.failures]
    lines.append(f"{len(report.failures)} of {len(report.checks)} catalog checks FAILED")
    return "\n".join(lines), 1


def _cmd_verify_paper(args: argparse.Namespace) -> tuple[str, int]:
    from . import scorecard  # only this command loads the checks and their tables

    results = scorecard.run_checks()
    lines = [
        f"[{'PASS' if passed else 'FAIL'}] {label}: {detail} ({seconds:.1f}s)"
        for label, passed, detail, seconds in results
    ]
    passing = sum(passed for _, passed, _, _ in results)
    lines.append(f"{passing}/{len(results)} checks pass")
    return "\n".join(lines), 0 if passing == len(results) else 1


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflecraft",
        description="Square-free words and conducted shuffles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("squarefree", help="report the first square in a word, if any")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_squarefree)

    p = sub.add_parser("shuffle", help="interleave two words under a conducting sequence")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("beta")
    p.set_defaults(handler=_cmd_shuffle)

    p = sub.add_parser("find-beta", help="conducting sequences giving a square-free self-shuffle")
    p.add_argument("u")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="list every conducting sequence")
    group.add_argument("--limit", type=int, default=1, metavar="K", help="stop after K (default 1)")
    p.set_defaults(handler=_cmd_find_beta)

    p = sub.add_parser("unshuffle", help="write a word as a square-free self-shuffle")
    p.add_argument("w")
    p.set_defaults(handler=_cmd_unshuffle)

    p = sub.add_parser("enumerate", help="count square-free words and self-shuffles by length")
    p.add_argument("--max-length", type=int, required=True, metavar="L")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("certify-morphism", help="certify or refute square-freeness preservation")
    p.add_argument("name", help="stored name or a file of 'letter -> image' lines")
    p.set_defaults(handler=_cmd_certify_morphism)

    p = sub.add_parser("certify-substitution", help="certify a finite-set substitution")
    p.add_argument("name", help="stored name or a file of 'letter -> {image, ...}' lines")
    p.set_defaults(handler=_cmd_certify_substitution)

    p = sub.add_parser("fixed-point", help="prefix of the fixed point of a stored morphism")
    p.add_argument("name")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.set_defaults(handler=_cmd_fixed_point)

    p = sub.add_parser("construct", help="build a verified self-shuffle witness of a length")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("coverage", help="construct witnesses for every length up to a bound")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("verify", help="prefix-verify one of the infinite-word statements")
    p.add_argument("theorem", choices=THEOREMS)
    p.add_argument("--prefix", type=int, default=10_000, metavar="N")
    p.add_argument("--period", type=int, default=48, metavar="P")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("catalog", help="dump or re-verify the stored constants")
    p.add_argument("action", choices=("dump", "verify"))
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("verify-paper", help="run every reproduction check and print a scorecard")
    p.set_defaults(handler=_cmd_verify_paper)

    return parser


def run(argv: Optional[list[str]] = None) -> CommandResult:
    """Run one command in-process and return its exit code and payload.

    The parser is built on the first call and reused by every later one, and
    each subcommand's handler is bound to it when it is built: to change what
    a command does, patch what its handler calls, not the handler itself.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0), "")
    try:
        payload, code = args.handler(args)
    except UnconstructedLengthError as exc:
        return CommandResult(1, f"error: {exc}")
    except ValueError as exc:
        return CommandResult(2, f"error: {exc}")
    return CommandResult(code, payload)


def main(argv: Optional[list[str]] = None) -> int:
    result = run(argv)
    if result.payload:
        stream = sys.stderr if result.exit_code == 2 else sys.stdout
        print(result.payload, file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
