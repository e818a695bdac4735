"""Backtracking search for conducting sequences and table enumeration.

Everything here rests on one pruning rule: square-freeness is closed under
taking factors, so a partial shuffle output that already contains a square can
never extend to a square-free word.  The depth-first searches therefore test
each appended letter immediately and cut the branch on the first square.
One walker serves every search for the self-shuffles of an operand or
the operand of a word.  It keeps its path on an explicit stack, so the
length of a word is bounded by memory, not by the call stack.
Where both copies of the operand have given the same number of letters, the
copies are interchangeable, so the walk takes the branch drawing on the
second copy only as the mirror of the branch drawing on the first.  So the
first copy is never behind, and where the operand is unknown, as in
unshuffling, the first copy grows it a letter at a time.
The count table instead walks the square-free words themselves, each once,
and carries along each word every way of reading it as the two copies of
one square-free operand; so one walk to length 2H fills every row up to 2H.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .words import _square_free_words, _starts_with_square


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
    # the first copy has given i letters of u, the second j <= i.  One of u
    # and out is a str the caller gives, which is not checked, and the other
    # a list of n or 2n slots that the walk fills and keeps square-free; it
    # fills bits, 2n slots, with the conducting sequence.  In state (i, j)
    # the first i, i + j and i + j slots are current.  The first copy gives
    # u[i] when u is given, else out[i + j]; the second copy gives u[j].
    # Yields i on entering each level state (i, i), a complete self-shuffle
    # when i == n, and ~i once the 0-branch below a level state i < n is
    # walked.  The square test reads rev_u or rev_out, the grown u or out
    # reversed, newest letter first.  A move cuts it back to the state's
    # length, dropping the letters of the branch it leaves, and puts its
    # letter in front; so the walk keeps one string of at most n or 2n
    # letters, O(n) memory.
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
            # the first-copy move is entered without a trip through the stack
            a, i, b = out[i + j] if grow_u else u[i], i + 1, "0"


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


def _self_shuffle_levels(half: int) -> Iterator[tuple[str, set[str]]]:
    # Every square-free word of at most 2 * half letters that properly
    # extends 01, depth first and reversed as the walk yields it, with the
    # operands u, also reversed, that shuffle with themselves to it.  Each
    # word carries the states (r, j), r = u reversed: the word is all of u
    # from the first copy and u[:j] from the second.  A letter c goes to
    # the first copy while c + r stays square-free and at most half long,
    # and to the second when it is u[j], r[~j]; a level state, j == len(u),
    # reads the word as a self-shuffle of u.  There the second copy cannot
    # move, so the first leads, as the copy swap allows; so u starts with
    # 01, and 01 reads as ("10", 0).  Full-length words get only levels.
    operands = {"10", *_square_free_words("012", half, "01")}
    full = 2 * half
    path: list = [()] * (full + 1)  # path[n]: the states of the path's word of length n
    path[2] = {("10", 0)}
    for rev in _square_free_words("012", full, "01"):
        n, level = len(rev), set()
        if parent := path[n - 1]:  # a word with no states passes none on
            c, states, more = rev[0], set(), n < full
            for r, j in parent:
                m = len(r)
                if j < m and r[~j] == c:
                    if j + 1 == m:
                        level.add(r)
                    if more:
                        states.add((r, j + 1))
                if more and m < half and (v := c + r) in operands:
                    states.add((v, j))
            parent = states
        path[n] = parent
        yield rev, level


def enumeration_table(max_length: int) -> list[EnumerationRow]:
    """The count table: one EnumerationRow per even length 4..max_length.

    The row for length L counts all ternary square-free words of length L,
    those that are u shuffled with itself for a square-free u of length
    L/2, and such u.  Renaming the three letters permutes these sets and
    fixes the prefix-01 word of each orbit, so the walk runs over prefix-01
    words, 204,880 nodes at 38, growing as 1.30^max_length, and scales
    the counts by six.  One walk fills every row: it visits each
    square-free word w once, counts it, and carries the ways of reading w
    as two copies of a growing operand, so a word counted as a
    self-shuffle is counted once, however many sequences give it.
    """
    if max_length < 4:
        raise ValueError(f"table rows start at length 4, got {max_length}")
    half = max_length // 2
    counts = [0] * (2 * half + 1)
    words = [0] * (half + 1)
    operands: list[set[str]] = [set() for _ in range(half + 1)]
    for rev, level in _self_shuffle_levels(half):
        counts[len(rev)] += 6
        if level:
            words[len(rev) // 2] += 1
            operands[len(rev) // 2] |= level
    return [
        EnumerationRow(2 * k, counts[2 * k], 6 * words[k], 6 * len(operands[k]))
        for k in range(2, half + 1)
    ]


def enumeration_row(length: int) -> EnumerationRow:
    """The row of enumeration_table for one even length, at least 4; it
    costs the whole table up to that length, as the walk passes every row."""
    if length % 2 != 0:
        raise ValueError(f"table rows have even lengths, got {length}")
    return enumeration_table(length)[-1]


def unshuffle_square_free(w: str) -> tuple[str, str] | None:
    """Decide whether w is a square-free word shuffled with itself.

    Backtracks over the two-pointer consumption of w into two copies of an
    unknown common operand.  The first copy grows the operand, pruned as
    soon as it picks up a square, and the second copy matches the letters
    grown.  Returns the operand with the least conducting sequence, or None.

    The backtracking is exponential in the worst case, and no polynomial
    bound is known: deciding whether a word is a shuffle square is
    NP-complete (Buss and Soltys, JCSS 80 (2014)).  On prefixes of the h18
    fixed point it took 0.24 s at 150 letters and over 40 s at 400.
    """
    if len(w) % 2 != 0:
        return None
    u, bits = [""] * (len(w) // 2), [""] * len(w)
    for i in _walk(u, w, bits):
        if 2 * i == len(w):
            return "".join(u), "".join(bits)
    return None
