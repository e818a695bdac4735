"""Command line surface.

One binary with subcommands for every operation, plus `verify-paper`, a
one-shot harness that reruns every built-in reproduction check and prints a
scorecard.  Exit codes: 0 on success, 1 when a mathematical check fails
(a square found, a certification refuted, a verdict that does not hold),
2 for usage errors.  Machine-readable output sits behind --json / --format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
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
    check_substitution_properties,
    fixed_point_prefix,
    parse_morphism,
    parse_substitution,
    substitution_test_length,
)
from .search import distinct_self_shuffles, enumeration_table, find_self_shuffle_betas, unshuffle_square_free
from .shuffle import dual_word, find_conducting, perfect_shuffle, shuffle_conducted
from .words import _square_free_words, enumerate_square_free, find_square, is_square_free, parikh

ENUMERATION_COLUMNS = ("length", "square_free_count", "shuffle_word_count", "shuffleable_u_count")

# Reference counts for the enumeration scorecard check: per even length, the
# number of ternary square-free words, of words obtainable as a square-free
# self-shuffle, and of operands admitting one.
REFERENCE_ENUMERATION = (
    (4, 18, 0, 0),
    (6, 42, 6, 6),
    (8, 78, 12, 6),
    (10, 144, 30, 12),
    (12, 264, 24, 18),
    (14, 456, 42, 30),
    (16, 798, 78, 42),
    (18, 1392, 138, 36),
    (20, 2388, 228, 54),
    (22, 4146, 396, 138),
    (24, 7032, 588, 168),
    (26, 11892, 1008, 234),
)

# Reference listing for length 8: every square-free u with prefix 01 that has
# a square-free self-shuffle, with all distinct shuffled words and one
# conducting sequence each.  All other square-free length-8 words with
# prefix 01 admit none; dropping the prefix restriction multiplies by the 6
# letter permutations.
REFERENCE_LENGTH8 = {
    "01021201": (
        ("0102120102012101", "0000001111011011"),
        ("0102120102101201", "0000001111100111"),
        ("0102101201021201", "0000011000111111"),
    ),
    "01201021": (("0102101201020121", "0010100111001011"),),
    "01202101": (
        ("0120210120102101", "0000001110011111"),
        ("0120102101202101", "0001100000111111"),
        ("0102012101202101", "0010010000111111"),
    ),
    "01202102": (("0102120210201202", "0010110001101011"),),
    "01202120": (("0120210201202120", "0000001001111111"),),
    "01210120": (("0121012010210120", "0000000110111111"),),
    "01210201": (
        ("0121020102101201", "0000001101110111"),
        ("0120102012101201", "0001000011110111"),
        ("0120102101210201", "0001000100111111"),
    ),
}

CERTIFIED_NAMES = (
    "alpha", "B", "S", "h17", "h18", "h19", "h23", "h24",
) + tuple(f"sigma_{i}" for i in range(6, 18))

REFUTED_NAMES = ("rho", "tau")


@dataclasses.dataclass(frozen=True)
class CommandResult:
    exit_code: int
    payload: str


class UsageError(Exception):
    """Bad input that is not a mathematical failure."""


def _digits(text: str, what: str) -> str:
    # str.isdigit alone also accepts the digits of other scripts, such as ² and ٣.
    if text and not (text.isascii() and text.isdigit()):
        raise UsageError(f"{what} must be a string of digits, got {text!r}")
    return text


def _bits(text: str, what: str) -> str:
    if not all(c in "01" for c in text):
        raise UsageError(f"{what} must be a string of 0s and 1s, got {text!r}")
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
    beta = _bits(args.beta, "conducting sequence")
    try:
        return shuffle_conducted(u, v, beta), 0
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_find_beta(args: argparse.Namespace) -> tuple[str, int]:
    u = _digits(args.u, "operand")
    if args.limit < 1:
        raise UsageError(f"--limit must be at least 1, got {args.limit}")
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
    if args.max_length < 4:
        raise UsageError(f"enumeration starts at length 4, got {args.max_length}")
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
            raise UsageError(f"cannot read {name}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise UsageError(f"cannot parse {name}: {exc}") from exc
    try:
        return get(name), name
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc


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
        raise UsageError(str(exc.args[0])) from exc
    if args.length < 0:
        raise UsageError(f"--length must be non-negative, got {args.length}")
    try:
        return fixed_point_prefix(h, 0, args.length), 0
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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


# --- scorecard checks -------------------------------------------------------

def _check_enumeration() -> str:
    rows = enumeration_table(REFERENCE_ENUMERATION[-1][0])
    for row, (length, *expected) in zip(rows, REFERENCE_ENUMERATION, strict=True):
        got = [row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count]
        if got != expected:
            raise AssertionError(f"length {length}: expected {expected}, got {got}")
    return f"{len(REFERENCE_ENUMERATION)} rows match"


def _check_image_shuffles() -> str:
    rho = catalog.get_morphism("rho")
    sigma = catalog.get_morphism("sigma")
    for i in range(4):
        beta = catalog.get_beta(f"beta{i}")
        word = shuffle_conducted(rho.images[i], rho.images[i], beta)
        if word != sigma.images[i]:
            raise AssertionError(f"block {i}: shuffle does not match the stored image")
        if not is_square_free(word):
            raise AssertionError(f"block {i}: stored image is not square-free")
    return "4 blocks match and are square-free"


def _check_length8_listing() -> str:
    admitting = 0
    for u in enumerate_square_free(3, 8):
        if not u.startswith("01"):
            continue
        words = distinct_self_shuffles(u)
        expected = REFERENCE_LENGTH8.get(u, ())
        if set(words) != {w for w, _ in expected}:
            raise AssertionError(f"{u}: found {sorted(words)}")
        for w, beta in expected:
            if shuffle_conducted(u, u, beta) != w or not is_square_free(w):
                raise AssertionError(f"listed witness ({u}, {beta}) does not produce {w}")
        if expected:
            admitting += 1
    if admitting != len(REFERENCE_LENGTH8):
        raise AssertionError(f"{admitting} operands admit a shuffle, expected {len(REFERENCE_LENGTH8)}")
    return f"{admitting} operands, {sum(len(v) for v in REFERENCE_LENGTH8.values())} listed words"


def _check_certifications() -> str:
    for name in CERTIFIED_NAMES:
        cert = certify_square_free_morphism(catalog.get_morphism(name), subject=name)
        if not cert.certified:
            raise AssertionError(f"{name} should certify, got {cert.verdict}")
    for name in REFUTED_NAMES:
        cert = certify_square_free_morphism(catalog.get_morphism(name), subject=name)
        if cert.certified:
            raise AssertionError(f"{name} should refute")
    rho20 = apply_morphism(catalog.get_morphism("rho"), "20")
    if "201021" * 2 not in rho20:
        raise AssertionError("image of 20 should contain (201021)^2")
    return f"{len(CERTIFIED_NAMES)} certified, {len(REFUTED_NAMES)} refuted"


def _check_substitution() -> str:
    stretch = catalog.get_substitution("stretch")
    props = check_substitution_properties(stretch)
    if props != (True, True, True):
        raise AssertionError(f"properties came back {props}")
    cert = certify_square_free_substitution(stretch, subject="stretch")
    if not cert.certified:
        raise AssertionError(f"expected certified, got {cert.verdict}")
    return (
        f"3 properties hold; {cert.checked_count} words checked"
        f" up to length {substitution_test_length(stretch)}"
    )


def _check_stored_witnesses() -> str:
    bases = catalog.base_witnesses()
    for n, witness in sorted(bases.items()):
        if not witness.verify():
            raise AssertionError(f"stored witness for length {n} fails")
    composed = 0
    for entry in catalog.composition_rules():
        rule = entry.payload
        witness = catalog.expand_composition(rule)
        if len(witness.u) != rule.target_length or not witness.verify():
            raise AssertionError(f"composition {entry.name} fails")
        composed += 1
    return f"{len(bases)} stored + {composed} composed witnesses verified"


def _check_coverage() -> str:
    report = coverage_report(2000)
    if not report.complete:
        raise AssertionError(f"gaps at {report.gaps}")
    samples = (5202, 5203, 5219, 6000, 9999)
    for n in samples:
        witness, _ = construct_with_strategy(n)
        if len(witness.u) != n:
            raise AssertionError(f"length {n}: got {len(witness.u)}")
    return f"lengths 3..2000 complete; samples {samples} verified"


def _check_theorem4() -> str:
    for n in (96, 10_080):
        verdict = verify_theorem4(n)
        if not verdict.holds:
            raise AssertionError(f"fails at prefix {verdict.prefix_length}: {verdict.first_violation}")
    return "holds to prefix 10080"


def _check_theorem5() -> str:
    verdict = verify_theorem5(10_000)
    if not verdict.holds:
        raise AssertionError(f"fails at prefix {verdict.prefix_length}: {verdict.first_violation}")
    if verdict.prefix_length < 9990:
        raise AssertionError(f"prefix {verdict.prefix_length} below 9990")
    return f"holds to prefix {verdict.prefix_length}"


def _check_abelian() -> str:
    verdict = verify_abelian_periodicity(48 * 50, 48)
    if not verdict.holds:
        raise AssertionError(str(verdict.first_violation))
    block = catalog.get_morphism("B").images[0]
    if parikh(block, 3) != (16, 16, 16):
        raise AssertionError(f"first block has counts {parikh(block, 3)}")
    return "50 blocks of 48 letters, counts (16, 16, 16)"


def _random_balanced(rng: random.Random, half: int) -> str:
    bits = ["0"] * half + ["1"] * half
    rng.shuffle(bits)
    return "".join(bits)


REDUCED_NEXT = {"0": "13", "1": "02", "2": "13", "3": "02"}


def _reduced_square_free(max_length: int):
    """All nonempty square-free words over 0..3 avoiding 02, 20, 13, 31."""
    walk = _square_free_words("0123", max_length)
    for w in walk:
        if len(w) > 1 and w[-1] not in REDUCED_NEXT[w[-2]]:
            walk.send(True)
        else:
            yield w


def _sample_reduced(rng: random.Random, length: int) -> str:
    while True:
        word = rng.choice("0123")
        while len(word) < length:
            options = [c for c in REDUCED_NEXT[word[-1]] if is_square_free(word + c)]
            if not options:
                break
            word += rng.choice(options)
        if len(word) == length:
            return word


def _check_properties() -> str:
    rng = random.Random(0x5F5F)

    for _ in range(10_000):
        n = rng.randint(0, 12)
        u = "".join(rng.choice("012") for _ in range(n))
        beta = _random_balanced(rng, n)
        w = shuffle_conducted(u, u, beta)
        again = find_conducting(u, u, w)
        if again is None or shuffle_conducted(u, u, again) != w:
            raise AssertionError(f"round trip failed for u={u}, beta={beta}")

    for _ in range(10_000):
        n = rng.randint(0, 10)
        u = "".join(rng.choice("012") for _ in range(n))
        m = rng.randint(0, n)
        beta1 = _random_balanced(rng, m)
        beta2 = _random_balanced(rng, n - m)
        joined = shuffle_conducted(u, u, beta1 + beta2)
        split = shuffle_conducted(u[:m], u[:m], beta1) + shuffle_conducted(u[m:], u[m:], beta2)
        if joined != split:
            raise AssertionError(f"concatenation law failed for u={u}, split {m}")

    shuffles = 0
    for length in range(2, 9):
        for u in enumerate_square_free(3, length):
            if not u.startswith("01"):
                continue
            for w in distinct_self_shuffles(u):
                if any(count % 2 for count in parikh(w, 3)):
                    raise AssertionError(f"odd letter count in {w}")
                shuffles += 1

    dean = 0
    for u in _reduced_square_free(20):
        if not is_square_free(perfect_shuffle(u, dual_word(u))):
            raise AssertionError(f"perfect shuffle of {u} and its dual has a square")
        dean += 1
    for length in range(21, 51):
        for _ in range(5):
            u = _sample_reduced(rng, length)
            if not is_square_free(perfect_shuffle(u, dual_word(u))):
                raise AssertionError(f"perfect shuffle of {u} and its dual has a square")
            dean += 1
    return f"20000 random checks, {shuffles} parity checks, {dean} perfect shuffles"


SCORECARD = (
    ("enumeration-table", _check_enumeration),
    ("image-shuffle-table", _check_image_shuffles),
    ("length-8-listing", _check_length8_listing),
    ("morphism-certifications", _check_certifications),
    ("substitution-certification", _check_substitution),
    ("stored-witnesses", _check_stored_witnesses),
    ("construction-coverage", _check_coverage),
    ("block-shuffle-prefix", _check_theorem4),
    ("fixed-point-shuffle-prefix", _check_theorem5),
    ("abelian-periodicity", _check_abelian),
    ("property-suites", _check_properties),
)


def _cmd_verify_paper(args: argparse.Namespace) -> tuple[str, int]:
    lines = []
    failures = 0
    for label, check in SCORECARD:
        started = time.perf_counter()
        try:
            detail = check()
            status = "PASS"
        except AssertionError as exc:
            detail = str(exc)
            status = "FAIL"
            failures += 1
        elapsed = time.perf_counter() - started
        lines.append(f"[{status}] {label}: {detail} ({elapsed:.1f}s)")
    total = len(SCORECARD)
    lines.append(f"{total - failures}/{total} checks pass")
    return "\n".join(lines), 0 if failures == 0 else 1


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
    except UsageError as exc:
        return CommandResult(2, f"error: {exc}")
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
