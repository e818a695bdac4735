"""Backtracking search for conducting sequences and table enumeration.

Everything here rests on one pruning rule: square-freeness is closed under
taking factors, so a partial shuffle output that already contains a square can
never extend to a square-free word.  The depth-first searches therefore test
each appended letter immediately and cut the branch on the first square.
Where both copies of the operand have given the same number of letters, the
copies are interchangeable, so the walks take the branch drawing on the
second copy only as the mirror of the branch drawing on the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .words import _ends_in_square, count_square_free, enumerate_square_free


@dataclass(frozen=True)
class EnumerationRow:
    """One row of the count table: words of length L shuffled from length L/2."""

    length: int
    square_free_count: int
    shuffle_word_count: int
    shuffleable_u_count: int


# Complements a conducting sequence: swaps which copy each letter comes from.
_SWAP_COPIES = str.maketrans("01", "10")


def find_self_shuffle_betas(
    u: str, limit: int | None = None
) -> list[tuple[str, str]]:
    """All conducting sequences shuffling u with itself to a square-free word.

    Returns (beta, word) pairs in lexicographic beta order, truncated to limit
    when given.  u itself does not have to be square-free; only the outputs
    are constrained.

    Copy swap: wherever both copies have given the same number of letters,
    they are interchangeable, so the subtree under bit 1 is the subtree under
    bit 0 with every later bit complemented, which also reverses its order.
    The walk visits only the 0-branch there and lists the 1-branch as its
    mirror; the order and the limit cut-off are those of the full walk.
    """
    n = len(u)
    results: list[tuple[str, str]] = []
    out: list[str] = []
    bits: list[str] = []

    def walk(i: int, j: int) -> None:
        if limit is not None and len(results) >= limit:
            return
        if i + j == 2 * n:
            results.append(("".join(bits), "".join(out)))
            return
        # 0 before 1 keeps the output list in ascending beta order
        first = len(results)
        if i < n:
            out.append(u[i])
            bits.append("0")
            if not _ends_in_square(out):
                walk(i + 1, j)
            out.pop()
            bits.pop()
        if i == j:  # copy swap: the 1-branch is the 0-branch mirrored
            d = i + j
            mirror = (
                (beta[:d] + beta[d:].translate(_SWAP_COPIES), word)
                for beta, word in reversed(results[first:])
            )
            results.extend(mirror if limit is None else islice(mirror, limit - len(results)))
            return
        if j < n:
            out.append(u[j])
            bits.append("1")
            if not _ends_in_square(out):
                walk(i, j + 1)
            out.pop()
            bits.pop()

    walk(0, 0)
    return results


def distinct_self_shuffles(u: str) -> dict[str, str]:
    """Distinct square-free self-shuffle words of u, each with its least beta.

    Swapping the two copies of u complements beta without changing the word,
    so every word appears under several sequences; the first one found in
    ascending beta order is kept.
    """
    found: dict[str, str] = {}
    for beta, word in find_self_shuffle_betas(u):
        if word not in found:
            found[word] = beta
    return found


def _self_shuffle_words(u: str) -> set[str]:
    # The words of find_self_shuffle_betas(u).  By the copy swap, the
    # 1-branch of a node where both copies have given the same number of
    # letters yields the same words as its 0-branch, so it is skipped.
    n = len(u)
    words: set[str] = set()
    out: list[str] = []

    def walk(i: int, j: int) -> None:
        if i + j == 2 * n:
            words.add("".join(out))
            return
        if i < n:
            out.append(u[i])
            if not _ends_in_square(out):
                walk(i + 1, j)
            out.pop()
        if j < n and i != j:
            out.append(u[j])
            if not _ends_in_square(out):
                walk(i, j + 1)
            out.pop()

    walk(0, 0)
    return words


def enumeration_row(length: int) -> EnumerationRow:
    """Count square-free words of the given even length that are self-shuffles.

    The three counts are: all ternary square-free words of that length, those
    expressible as u shuffled with itself for square-free u of half length,
    and the number of such u.  Renaming the three letters permutes all these
    sets freely and fixes the prefix-01 representative of each orbit, so the
    search runs over prefix-01 operands and scales the counts by six.
    """
    if length % 2 != 0:
        raise ValueError(f"table rows have even lengths, got {length}")
    if length < 4:
        raise ValueError(f"table rows start at length 4, got {length}")
    half = length // 2

    square_free_count = count_square_free(3, length)

    shuffle_words: set[str] = set()
    shuffleable = 0
    for u in enumerate_square_free(3, half):
        if not u.startswith("01"):
            continue
        words = _self_shuffle_words(u)
        if words:
            shuffleable += 1
            shuffle_words |= words
    return EnumerationRow(
        length, square_free_count, 6 * len(shuffle_words), 6 * shuffleable
    )


def unshuffle_square_free(w: str) -> tuple[str, str] | None:
    """Decide whether w is a square-free word shuffled with itself.

    Backtracks over the two-pointer consumption of w into two copies of an
    unknown common operand, growing the operand from whichever copy runs
    ahead and pruning as soon as its prefix picks up a square.  Returns the
    operand with the least conducting sequence, or None.
    """
    if len(w) % 2 != 0:
        return None
    n = len(w) // 2
    u: list[str] = []
    bits: list[str] = []
    best: tuple[str, str] | None = None

    def walk(p: int, i: int, j: int) -> None:
        nonlocal best
        if best is not None:
            return
        if p == 2 * n:
            best = ("".join(u), "".join(bits))
            return
        c = w[p]
        if i < n:
            if i < len(u):
                if u[i] == c:
                    bits.append("0")
                    walk(p + 1, i + 1, j)
                    bits.pop()
            else:
                u.append(c)
                bits.append("0")
                if not _ends_in_square(u):
                    walk(p + 1, i + 1, j)
                u.pop()
                bits.pop()
        # With i == j the 1-branch mirrors the 0-branch (the copy swap), so
        # it finds an operand only if the 0-branch did.
        if best is not None or j >= n or i == j:
            return
        if j < len(u):
            if u[j] == c:
                bits.append("1")
                walk(p + 1, i, j + 1)
                bits.pop()
        else:
            u.append(c)
            bits.append("1")
            if not _ends_in_square(u):
                walk(p + 1, i, j + 1)
            u.pop()
            bits.pop()

    walk(0, 0, 0)
    return best
