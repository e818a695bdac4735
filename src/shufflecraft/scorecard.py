"""The reproduction scorecard that `shufflecraft verify-paper` prints.

Eleven checks, in order; each returns its detail or raises AssertionError
with the reason it fails.  Four read the rows of one verify_catalog() report
instead of re-deriving them.  The last suite shuffles each reduced
square-free word over 0-3 (R. Dean's words over x, y and their inverses,
Amer. Math. Monthly 72, 1965) perfectly with its dual.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from typing import Callable, Iterable

from . import catalog
from .construct import construct_with_strategy, coverage_report
from .limits import PrefixVerdict, verify_abelian_periodicity, verify_theorem4, verify_theorem5
from .morphisms import _certificate, apply_morphism
from .search import distinct_self_shuffles, enumeration_table
from .shuffle import ShuffleWitness, dual_word, find_conducting, perfect_shuffle, shuffle_conducted
from .words import (
    _square_free_words,
    _starts_with_square,
    enumerate_square_free,
    is_square_free,
    parikh,
)

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


@lru_cache(maxsize=1)
def _catalog_rows() -> dict[str, catalog.CatalogCheck]:
    # One catalog report per run_checks call, which clears this cache first.
    return {row.name: row for row in catalog.verify_catalog().checks}


def _require_rows(names: Iterable[str]) -> None:
    rows = _catalog_rows()
    failed = [name for name in names if not (name in rows and rows[name].passed)]
    if failed:
        raise AssertionError("catalog rows fail: " + ", ".join(failed))


def _holds(verdict: PrefixVerdict) -> PrefixVerdict:
    if not verdict.holds:
        raise AssertionError(f"fails at prefix {verdict.prefix_length}: {verdict.first_violation}")
    return verdict


def _check_enumeration() -> str:
    rows = enumeration_table(REFERENCE_ENUMERATION[-1][0])
    for row, (length, *expected) in zip(rows, REFERENCE_ENUMERATION, strict=True):
        got = [row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count]
        if got != expected:
            raise AssertionError(f"length {length}: expected {expected}, got {got}")
    return f"{len(REFERENCE_ENUMERATION)} rows match"


def _check_image_shuffles() -> str:
    # Each sigma<i> row re-derives the block shuffle of rho's image i under
    # beta<i>, compares it with sigma's image i and tests it square-free.
    _require_rows(f"sigma{i}" for i in range(4))
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
            if not ShuffleWitness(u, beta, w).verify():
                raise AssertionError(f"listed witness ({u}, {beta}) does not produce {w}")
        if expected:
            admitting += 1
    if admitting != len(REFERENCE_LENGTH8):
        raise AssertionError(f"{admitting} operands admit a shuffle, expected {len(REFERENCE_LENGTH8)}")
    return f"{admitting} operands, {sum(len(v) for v in REFERENCE_LENGTH8.values())} listed words"


def _check_certifications() -> str:
    # The catalog certifies every morphism it does not store as refuted, and
    # refutes rho and tau.  No row checks the square in rho's image of 20.
    _require_rows(CERTIFIED_NAMES + REFUTED_NAMES)
    rho20 = apply_morphism(catalog.get_morphism("rho"), "20")
    if "201021" * 2 not in rho20:
        raise AssertionError("image of 20 should contain (201021)^2")
    return f"{len(CERTIFIED_NAMES)} certified, {len(REFUTED_NAMES)} refuted"


def _check_substitution() -> str:
    # A substitution whose structural properties fail is refuted, so the
    # passing row means all three hold.  The row's certificate, made once
    # per process, counts the square-free source words of the test length.
    _require_rows(("stretch",))
    cert = _certificate(catalog.get_substitution("stretch"))
    return f"3 properties hold; {cert.checked_count} words checked up to length {cert.bound_used}"


def _check_stored_witnesses() -> str:
    stored = [f"w{n}" for n in sorted(catalog.base_witnesses())]
    composed = [entry.name for entry in catalog.composition_rules()]
    _require_rows(stored + composed)
    return f"{len(stored)} stored + {len(composed)} composed witnesses verified"


def _check_coverage() -> str:
    report = coverage_report(2000)
    if not report.complete:
        raise AssertionError(f"gaps at {report.gaps}")
    samples = (5202, 5203, 5219, 6000, 9999)
    for n in samples:  # a witness of length n, verified, or an error
        construct_with_strategy(n)
    return f"lengths 3..2000 complete; samples {samples} verified"


def _check_theorem4() -> str:
    return f"holds to prefix {_holds(verify_theorem4(10_080)).prefix_length}"


def _check_theorem5() -> str:
    verdict = _holds(verify_theorem5(10_000))
    if verdict.prefix_length < 9990:
        raise AssertionError(f"prefix {verdict.prefix_length} below 9990")
    return f"holds to prefix {verdict.prefix_length}"


def _check_abelian() -> str:
    _holds(verify_abelian_periodicity(48 * 50, 48))
    block = catalog.get_morphism("B").images[0]
    if parikh(block, 3) != (16, 16, 16):
        raise AssertionError(f"first block has counts {parikh(block, 3)}")
    return "50 blocks of 48 letters, counts (16, 16, 16)"


def _random_balanced(rng: random.Random, half: int) -> str:
    bits = ["0"] * half + ["1"] * half
    rng.shuffle(bits)
    return "".join(bits)


REDUCED_NEXT = {"0": "13", "1": "02", "2": "13", "3": "02"}


def _dean_walk(max_length: int, dual: Callable[[str], str] = dual_word) -> int:
    # Walks the nonempty square-free words over 0..3 avoiding 02, 20, 13
    # and 31 up to max_length, counts them, and raises at the first whose
    # perfect shuffle with its dual has a square.  Depth first, a word comes
    # after its parent, whose shuffle has passed; its own is the parent's
    # plus a and dual(a), a its last letter, so a square in it ends at one of
    # those two.  Each shuffle on the path is kept reversed, one per length.
    duals = {a: dual(a) for a in "0123"}
    shuffled = [""]  # shuffled[d]: the shuffle of the path's word of length d, reversed
    count = 0
    walk = _square_free_words("0123", max_length)
    for u in walk:  # u reversed, newest letter first
        a = u[0]
        if len(u) > 1 and a not in REDUCED_NEXT[u[1]]:
            walk.send(True)
            continue
        rev = a + shuffled[len(u) - 1]
        if _starts_with_square(rev) or _starts_with_square(duals[a] + rev):
            raise AssertionError(f"perfect shuffle of {u[::-1]} and its dual has a square")
        shuffled[len(u):] = [duals[a] + rev]
        count += 1
    return count


def _sample_reduced(rng: random.Random, length: int) -> str:
    while True:
        word = rng.choice("0123")
        rev = word  # word reversed, for the square test of word + c
        while len(word) < length:
            options = [c for c in REDUCED_NEXT[word[-1]] if not _starts_with_square(c + rev)]
            if not options:
                break
            c = rng.choice(options)
            word, rev = word + c, c + rev
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

    dean = _dean_walk(20)
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


def run_checks() -> list[tuple[str, bool, str, float]]:
    """Run every SCORECARD check in order: (label, passed, detail, seconds).

    A check fails when it raises AssertionError, whose message becomes the
    line's detail; the next check runs regardless.  The lines that read the
    catalog share one catalog.verify_catalog() report, made by the first of
    them, which is charged its time.
    """
    _catalog_rows.cache_clear()
    lines = []
    for label, check in SCORECARD:
        started = time.perf_counter()
        try:
            detail, passed = check(), True
        except AssertionError as exc:
            detail, passed = str(exc), False
        lines.append((label, passed, detail, time.perf_counter() - started))
    return lines
