"""Backtracking search for conducting sequences and table enumeration.

Everything here rests on one pruning rule: square-freeness is closed under
taking factors, so a partial shuffle output that already contains a square can
never extend to a square-free word.  The depth-first searches therefore test
each appended letter immediately and cut the branch on the first square.
One walker serves every search.  It keeps its path on an explicit stack, so
the length of a word is bounded by memory, not by the call stack.
Where both copies of the operand have given the same number of letters, the
copies are interchangeable, so the walk takes the branch drawing on the
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
from typing import Iterator

from .words import _square_free_counts, _starts_with_square


@dataclass(frozen=True)
class EnumerationRow:
    """One row of the count table: words of length L shuffled from length L/2."""

    length: int
    square_free_count: int
    shuffle_word_count: int
    shuffleable_u_count: int


# Complements a conducting sequence: swaps which copy each letter comes from.
_SWAP_COPIES = str.maketrans("01", "10")


def _walk(u: str | list[str], out: str | list[str], bits: list[str]) -> Iterator[int]:
    # The one depth-first walk over the self-shuffles of an operand u of
    # length n = len(u), on an explicit stack of moves into states (i, j):
    # the first copy has given i letters of u, the second j <= i.  u and out
    # are each a str the caller gives, which is not checked, or a list of n
    # or 2n slots that the walk fills and keeps square-free; it fills bits,
    # 2n slots, with the conducting sequence.  In state (i, j) the first i,
    # i + j and i + j slots are current.  The first copy gives u[i] when u
    # is given, else out[i + j] when out is, else 0, 1 or 2 after the
    # prefix 01; the second copy gives u[j].  Yields i on entering each
    # level state (i, i), a complete self-shuffle when i == n, and ~i once
    # the 0-branch below a level state i < n is walked.  The square tests
    # read rev_u and rev_out, the grown u and out reversed, newest letter
    # first.  A move cuts the copy back to the state's length, dropping the
    # letters of the branch it leaves, and puts its letter in front; so the
    # walk keeps one string of at most n or 2n letters each, O(n) memory.
    n = len(u)
    grow_u, grow_out = isinstance(u, list), isinstance(out, list)
    rev_u = rev_out = ""
    stack: list[tuple] = [(0, 0, "", "")]
    while stack:
        i, j, a, b = stack.pop()
        if b is None:
            yield ~i
            continue
        while True:  # enter (i, j) by the move giving a from copy b
            if b:
                d = i + j - 1
                if grow_u and b == "0":
                    u[i - 1] = a
                    rev_u = a + rev_u[len(rev_u) - i + 1:]
                    if _starts_with_square(rev_u):
                        break
                if grow_out:
                    out[d] = a
                    rev_out = a + rev_out[len(rev_out) - d:]
                    if _starts_with_square(rev_out):
                        break
                bits[d] = b
            if i == j:  # copy swap: the 1-branch is the 0-branch mirrored
                yield i
                if i == n:
                    break
                stack.append((i, j, "", None))  # popped once the 0-branch is walked
            elif grow_out or u[j] == out[i + j]:
                stack.append((i, j + 1, u[j], "1"))
            if i == n:
                break
            # the least first-copy move is entered without a trip through the stack
            if not grow_u:
                a = u[i]
            elif not grow_out:
                a = out[i + j]
            elif i > 1:
                stack += (i + 1, j, "2", "0"), (i + 1, j, "1", "0")
                a = "0"
            else:
                a = "01"[i]
            i, b = i + 1, "0"


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
    results: list[tuple[str, str]] = []
    if limit is not None and limit <= 0:
        return results
    out, bits = [""] * (2 * len(u)), [""] * (2 * len(u))
    firsts: list[int] = []  # where each open level state's results start
    for i in _walk(u, out, bits):
        if i < 0:  # the 0-branch is done; its mirror follows it in beta order
            d = 2 * ~i
            mirror = (
                (beta[:d] + beta[d:].translate(_SWAP_COPIES), word)
                for beta, word in reversed(results[firsts.pop():])
            )
            results.extend(mirror if limit is None else islice(mirror, limit - len(results)))
        elif i < len(u):
            firsts.append(len(results))
        else:
            results.append(("".join(bits), "".join(out)))
        if limit is not None and len(results) >= limit:
            break
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
    u, out = [""] * half, [""] * (2 * half)
    for i in _walk(u, out, out.copy()):  # the sequences go unread
        if i > 0:
            found.setdefault("".join(u[:i]), set()).add("".join(out[:2 * i]))
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
    u, bits = [""] * (len(w) // 2), [""] * len(w)
    for i in _walk(u, w, bits):
        if 2 * i == len(w):
            return "".join(u), "".join(bits)
    return None
