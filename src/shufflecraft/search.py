"""Backtracking search for conducting sequences and table enumeration.

Everything here rests on one pruning rule: square-freeness is closed under
taking factors, so a partial shuffle output that already contains a square can
never extend to a square-free word.  The depth-first searches therefore test
each appended letter immediately and cut the branch on the first square.
Where both copies of the operand have given the same number of letters, the
copies are interchangeable, so the walks take the branch drawing on the
second copy only as the mirror of the branch drawing on the first.  So the
first copy is never behind, and where the operand is unknown, as in the
count table and unshuffling, the first copy grows it a letter at a time.
The table's walk keeps a letter only while the operand and the output stay
square-free.  It walks each operand prefix once for all its extensions, and
each point where both copies have given the operand so far is a complete
self-shuffle of it, so one walk to half-length H fills every row up to 2H.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .words import _ends_in_square, _square_free_counts


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
        out.append(u[j])  # j < i <= n: the second copy is never ahead
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


def _self_shuffles_by_operand(half: int) -> dict[str, set[str]]:
    # The square-free self-shuffle words of every square-free u with prefix
    # 01 and 2 <= |u| <= half, keyed by u; operands with none are left out.
    found: dict[str, set[str]] = {}
    u: list[str] = []
    out: list[str] = []

    def take(letter: str, i: int, j: int) -> None:
        out.append(letter)
        if not _ends_in_square(out):
            walk(i, j)
        out.pop()

    def walk(i: int, j: int) -> None:
        if i == j and i:
            found.setdefault("".join(u), set()).add("".join(out))
        if i < half:
            for a in "012" if i > 1 else "01"[i]:
                u.append(a)
                if not _ends_in_square(u):
                    take(a, i + 1, j)
                u.pop()
        # Copy swap: with i == j the 1-branch only mirrors the 0-branch.
        if j < i:
            take(u[j], i, j + 1)

    walk(0, 0)
    return found


def enumeration_table(max_length: int) -> list[EnumerationRow]:
    """The count table: one EnumerationRow per even length 4..max_length.

    The row for length L counts all ternary square-free words of length L,
    those that are u shuffled with itself for a square-free u of length
    L/2, and such u.  Renaming the three letters permutes these sets and
    fixes the prefix-01 word of each orbit, so the walks run over prefix-01
    words and scale the counts by six.  Two walks fill every row: one
    counts square-free words at every depth, the other grows u a letter at
    a time while shuffling two copies of it, so the operands of all rows
    share the walk through their common prefixes.
    """
    if max_length < 4:
        raise ValueError(f"table rows start at length 4, got {max_length}")
    half = max_length // 2
    counts = _square_free_counts(3, 2 * half)
    by_length: list[list[set[str]]] = [[] for _ in range(half + 1)]
    for u, shuffles in _self_shuffles_by_operand(half).items():
        by_length[len(u)].append(shuffles)
    return [
        EnumerationRow(2 * k, counts[2 * k], 6 * len(set().union(*by_length[k])), 6 * len(by_length[k]))
        for k in range(2, half + 1)
    ]


def enumeration_row(length: int) -> EnumerationRow:
    """The row of enumeration_table for one even length, at least 4; it
    costs the whole table up to that length, as the walks pass every row."""
    if length % 2 != 0:
        raise ValueError(f"table rows have even lengths, got {length}")
    return enumeration_table(length)[-1]


def unshuffle_square_free(w: str) -> tuple[str, str] | None:
    """Decide whether w is a square-free word shuffled with itself.

    Backtracks over the two-pointer consumption of w into two copies of an
    unknown common operand.  The first copy grows the operand, pruned as
    soon as it picks up a square, and the second copy matches the letters
    grown.  Returns the operand with the least conducting sequence, or None.
    """
    if len(w) % 2 != 0:
        return None
    n = len(w) // 2
    u: list[str] = []
    bits: list[str] = []
    best: tuple[str, str] | None = None

    def walk(i: int, j: int) -> None:
        nonlocal best
        if i + j == 2 * n:
            best = ("".join(u), "".join(bits))
            return
        c = w[i + j]
        if i < n:
            u.append(c)
            bits.append("0")
            if not _ends_in_square(u):
                walk(i + 1, j)
            u.pop()
            bits.pop()
        # With i == j the 1-branch mirrors the 0-branch (the copy swap), so
        # it finds an operand only if the 0-branch did.
        if best is None and j < i and u[j] == c:
            bits.append("1")
            walk(i, j + 1)
            bits.pop()

    walk(0, 0)
    return best
