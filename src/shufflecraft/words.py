"""Square-free words over small alphabets.

Words are plain strings of decimal digits: the letter i is the character
str(i), and alphabets have at most 10 letters (check_word enforces it).
The empty word counts as square-free.
"""
from __future__ import annotations

import re
from typing import Generator, Iterator, NamedTuple, Optional

__all__ = [
    "SquareOccurrence",
    "check_word",
    "find_square",
    "is_square_free",
    "enumerate_square_free",
    "count_square_free",
    "parikh",
    "is_lyndon",
    "lex_least_square_free_prefix",
]

DIGITS = "0123456789"


class SquareOccurrence(NamedTuple):
    start: int
    half_length: int


# Translation tables deleting the letters of each alphabet size.
_DELETE_LETTERS = [str.maketrans("", "", DIGITS[:k]) for k in range(len(DIGITS) + 1)]


def _letters(alphabet_size: int) -> str:
    # The letters 0..alphabet_size-1, after checking the size.
    if not 1 <= alphabet_size <= 10:
        raise ValueError("alphabet_size must be between 1 and 10")
    return DIGITS[:alphabet_size]


def check_word(w: str, alphabet_size: int) -> str:
    """Validate that w uses only letters 0..alphabet_size-1, return w."""
    _letters(alphabet_size)
    # Deleting the allowed letters keeps the others in order, so the first
    # one left is the first bad letter of w.
    bad = w.translate(_DELETE_LETTERS[alphabet_size])
    if bad:
        raise ValueError(f"letter {bad[0]!r} not in alphabet of size {alphabet_size}")
    return w


# Halves up to this length are found by byte-wise XOR, one window of the word
# at a time; longer ones by the band scan, which finds the _RUN letters from
# each grid point again with bytes.find and tests only the halves found.
_SHORT_HALF = 64
# In a word over the letters 0-3 the XOR pass goes on to this half, and
# takes the halves from _LANE_HALF on at two bits a letter (_lane_square);
# 7 is the least half whose runs of equal lanes all hold a zero byte.
_PACKED_HALF = 96
_LANE_HALF = 7
_WINDOW = 1 << 14  # letters per window of the short-half pass
_RUN = 32  # at most _SHORT_HALF + 1, so each grid step a - _RUN + 1 is positive
# Matching letters before a boundary past which _closing_prefixes finds the
# halves of squares holding it in their right half by str.rfind of the
# letters before it, not one half at a time.
_TAIL = 8

# Zero bytes that every run of half equal two-bit lanes holds, by half:
# a run starting on the second lane of a byte leaves three lanes before
# its first whole byte.
_LANE_ZEROS = [bytes(max(0, (half - 3) // 4)) for half in range(_PACKED_HALF + 1)]
# Zero lanes at the low end and at the high end of each byte.
_LOW_ZERO_LANES = bytes(next((k for k in range(4) if b >> 2 * k & 3), 4) for b in range(256))
_HIGH_ZERO_LANES = bytes(next((k for k in range(4) if b >> 6 - 2 * k & 3), 4) for b in range(256))


def _letter_bytes(w: str) -> bytes:
    # One byte per letter; squares depend only on which letters are equal.
    if w.isascii():
        return w.encode()
    codes: dict[str, int] = {}
    for c in w:
        codes.setdefault(c, len(codes))
    if len(codes) > 256:
        raise ValueError("square detection supports at most 256 distinct letters")
    return bytes(codes[c] for c in w)


def _match_back(w, i: int, j: int, cap: int) -> int:
    # Length of the longest common suffix of w[:i] and w[:j], at most cap:
    # letter by letter for the usual short match, then by slices whose
    # length doubles and then halves, so a long match costs O(log) steps.
    k = 0
    while k < cap and w[i - 1 - k] == w[j - 1 - k]:
        k += 1
        if k == 8:
            break
    else:
        return k
    step, growing = 8, True
    while step:
        if k + step <= cap and w[i - k - step:i - k] == w[j - k - step:j - k]:
            k += step
            if growing:
                step *= 2
        else:
            growing = False
            step //= 2
    return k


def _anchored_start(w, p: int, half: int) -> int:
    # Leftmost start of a square of this half whose run of matches
    # w[j] == w[j + half] covers position p, or -1.  The caller has checked
    # w[p] == w[p + half].  Backward matches are capped at half - 1, so each
    # run is claimed by one anchor only.
    b = _match_back(w, p, p + half, p if p < half else half - 1)
    need = half - b
    if p + half + need > len(w):
        return -1
    # Most anchors fail within a few letters; the rest take one comparison.
    f = 1
    while f < need and f < 8:
        if w[p + f] != w[p + half + f]:
            return -1
        f += 1
    return p - b if w[p + f:p + need] == w[p + half + f:p + half + need] else -1


def _lane_square(part: bytes, halves: range, limit: int) -> Optional[SquareOccurrence]:
    # The leftmost square of part, a word over 0-3, with its half in halves
    # and its start below limit, the shortest half at that start.
    # int(part, 4) puts letter i in lane pad + i of four per byte, counted
    # from the high end, and lane i of the XOR with a copy shifted by half
    # lanes is zero iff part[i] == part[i - half], for i >= half.  Lanes are
    # exact, so a run of half zero lanes is a square.  Each run holds
    # _LANE_ZEROS[half] zero bytes, which bytes.find looks up; the zero lanes
    # of the bytes on either side then measure the run, so a near-square
    # y a y costs a table lookup or two.  One more byte, past the last lane,
    # lets that lookup read a byte after any run; its lanes are never
    # counted.
    pad = -len(part) % 4
    lanes = len(part) + pad
    x = int(part, 4) << 8
    low, high = _LOW_ZERO_LANES, _HIGH_ZERO_LANES
    best = None
    for half in halves:
        zeros = _LANE_ZEROS[half]
        k = len(zeros)
        gap = half - 4 * k
        diff = (x ^ (x >> 2 * half)).to_bytes(lanes // 4 + 1, "big")
        # A run starts at most four lanes before its first zero byte, and
        # its zero bytes come before the extra one.
        stop = min((limit + half + pad + 3) // 4 + k, lanes // 4)
        j = diff.find(zeros, (pad + half) // 4, stop)
        while j >= 0:
            # Byte j - 1 is not zero, or lies before lane pad + half: the
            # first search starts at the byte of that lane, and a later one
            # just past a byte that is not zero, where the last run ended.
            e = j + k
            if diff[e] and low[diff[j - 1]] + high[diff[e]] < gap:
                j = diff.find(zeros, e + 1, stop)
                continue
            run = max(pad + half, 4 * j - low[diff[j - 1]])
            start = run - pad - half
            if start >= limit or run + half > lanes:
                break
            while 4 * e < run + half and not diff[e]:
                e += 1
            if 4 * e + high[diff[e]] >= run + half:
                limit, best = start, SquareOccurrence(start, half)
                break
            j = diff.find(zeros, e + 1, stop)
    return best


def _leftmost_square(w: str) -> Optional[SquareOccurrence]:
    # The leftmost square, shortest half at that start.  Scratch memory is
    # one byte per letter, a window and slices no longer than a half.
    n = len(w)
    data = _letter_bytes(w)
    best: Optional[SquareOccurrence] = None
    best_start = n
    packed = not data.translate(None, b"0123")
    short = min(_PACKED_HALF if packed else _SHORT_HALF, n // 2)
    bytewise = min(short, _LANE_HALF - 1) if packed else short
    # Short halves, window by window; a square starting in a window ends
    # within 2 * short - 1 letters past it.
    for s in range(0, n, _WINDOW):
        part = data[s:s + _WINDOW + 2 * short - 1]
        x = int.from_bytes(part, "big")
        for half in range(1, bytewise + 1):
            # Byte j >= half of diff is zero iff part[j] == part[j - half], so a
            # square starting at i is a run of half zero bytes starting at i + half.
            diff = (x ^ (x >> (8 * half))).to_bytes(len(part), "big")
            j = diff.find(bytes(half), half, min(best_start - s, _WINDOW) + 2 * half - 1)
            if j >= 0:
                best_start, best = s + j - half, SquareOccurrence(s + j - half, half)
                if best_start == 0:
                    return best
        if bytewise < short:
            found = _lane_square(part, range(bytewise + 1, short + 1),
                                 min(best_start - s, _WINDOW))
            if found is not None:
                best_start, best = s + found.start, SquareOccurrence(s + found.start, found.half_length)
                if best_start == 0:
                    return best
        if best is not None:
            break

    # Longer halves, band by band: halves [a, b) on a grid of step
    # a - _RUN + 1.  A square of half h in the band starting at s has its
    # run of h matches w[j] == w[j + h] cover the first grid point q >= s
    # and, as q + _RUN <= s + a <= s + h, the _RUN letters from it.  So
    # those letters recur at q + h, and bytes.find over the band lists the
    # halves to test; the run also covers [q, s + h), which rejects most of
    # them before the exact test.  Once a square is known, a better one
    # starts before it: the same start with a shorter half was met first,
    # at the same q or in an earlier band.  So the grid stops past
    # best_start + step - 1, and from best_start on the letters looked up
    # begin at best_start - 1, which a repetitive tail does not repeat.
    a = short + 1
    while a <= n // 2:
        step = a - _RUN + 1
        b = min(a + step, n // 2 + 1)
        for q in range(0, n - a - _RUN + 1, step):
            if q - step >= best_start:
                break
            lo = q if q < best_start else best_start - 1
            z = data[lo:q + _RUN]
            end = q + b - 1 + _RUN
            j = data.find(z, lo + a, end)
            while j >= 0:
                half = j - lo
                far = q + half - step + 1  # s > q - step: the run covers [q, far)
                if data[q:far] == data[q + half:far + half]:
                    start = _anchored_start(data, q, half)
                    if 0 <= start and (best is None or (start, half) < best):
                        best_start, best = start, SquareOccurrence(start, half)
                        if start == 0:
                            return best
                j = data.find(z, j + 1, end)
        a = b
    return best


def is_square_free(w: str) -> bool:
    """True iff w contains no factor uu with u non-empty.

    Cost: O(n log n) bytes.find calls and candidate halves for a word of
    length n, each candidate tested in O(log n) steps, so no input is
    quadratic in interpreted steps.  Short halves take one XOR pass over
    the word each.  In a word over the letters 0-3 those are halves up to
    96, and halves 7-96 are tested on the word packed at two bits a letter,
    a quarter of the bytes: each pass is one bytes.find for the zero bytes
    that every run of half equal letters holds, and a table lookup on the
    bytes around each run found.  Halves 1-6, and in other words halves up
    to 64, take one byte per letter.  Longer halves are taken in bands of
    about doubling width: the 32 letters from each point of a grid are
    looked up within the band, and only the halves at which they recur get
    the exact test.  This is find_square's scan: on a word with a square
    it stops at the end of the window holding the first square, and one
    band step past its start.
    """
    return _leftmost_square(w) is None


def find_square(w: str) -> Optional[SquareOccurrence]:
    """Earliest square in w, or None.

    Among occurrences the one with minimal start wins; ties go to the
    minimal half length.  The one scan that is_square_free also runs, with
    the packing of words over 0-3 at two bits a letter.  Once a square is
    known, each band scans the grid only to one step past its start, and
    past the start looks up letters from just before it, so a repetitive
    tail after the first square costs little.
    """
    return _leftmost_square(w)


_SQUARE_PREFIX = re.compile(r"(.+?)\1", re.DOTALL)


def _starts_with_square(rev: str) -> bool:
    """True iff rev starts with a square.

    The kernel of the depth-first walks, which keep their word reversed,
    newest letter first, so this tests every square ending with the new
    letter.  One C scan per call: the lazy group tries each half, shortest
    first, and the back-reference compares it with the next letters up to
    the first mismatch.  On m letters that is m / 2 halves and, on a
    square-free prefix where most halves fail at once, O(m) comparisons
    (1.1 m to 1.3 m on h18 and lexicographically least prefixes);
    quadratic at worst, as a per-half loop is.
    """
    return _SQUARE_PREFIX.match(rev) is not None


def _closing_prefixes(x: str, before: int, longest: int) -> tuple[str, ...]:
    # Strings r such that, for any block b of at most longest letters, x + b
    # has a square that starts before `before` and holds m = len(x) in its
    # right half exactly when b starts with some r.
    #
    # A square of half L at s, s + L <= m < s + 2L, matches the first
    # t = m - L - s letters of its left half with the t letters before m,
    # and b must start with the rest, x[m - L:s + L].  So t <= c, the common
    # suffix of x[:m - L] and x, capped at L - 1 (s > m - 2L) and at m - L
    # (s >= 0), and the least start s = m - L - c gives the r = x[m - L:m - c]
    # that every other r of this half extends.  It counts when s < before
    # and r has at most longest letters, that is when c reaches
    # need = max(span - L, L - longest), span = m - before + 1, which the
    # halves in [lo, hi] have room for.  The least need k is at
    # L = (span + longest) // 2.  When k is at most _TAIL, the halves
    # needing at most _TAIL, [first, last], are tested one by one, with
    # c = 0 and no call when its cap is 0 or x[m - L - 1] != x[m - 1].
    # Each other half needs c >= k, or c > _TAIL, so the last k letters of
    # x, z, recur ending at m - L: str.rfind finds those halves, and a
    # slice compare of the letters its need asks for rejects most before
    # _match_back.  The bounds are taken by comparison, not min and max, as
    # a walk calls this once per node.
    m = len(x)
    span = m - before + 1
    lo = (span + 2) // 2
    if lo < 1:
        lo = 1
    hi = (m + longest) // 2
    if hi > m:
        hi = m
    k = span - (span + longest) // 2
    closing = []
    if k <= _TAIL:
        first = span - _TAIL
        if first < lo:
            first = lo
        last = longest + _TAIL
        if last > hi:
            last = hi
        for half in range(first, last + 1):
            p = m - half
            cap = p if p < half else half - 1
            c = _match_back(x, p, m, cap) if cap and x[p - 1] == x[m - 1] else 0
            if p - c < before and half - c <= longest:
                closing.append(x[p:m - c])
        # m skips the search when the band holds every half
        k = _TAIL + 1 if lo < first or last < hi else m
    if k < m:
        z = x[m - k:]
        start = m - hi - k if m - hi - k > 0 else 0
        q = x.rfind(z, start, m - lo)  # a copy of z ends at m - L
        while q >= 0:
            p = q + k
            half = m - p
            need = span - half if span - half > half - longest else half - longest
            cap = p if p < half else half - 1
            if _TAIL < need <= cap and x[p - need:q] == x[m - need:m - k]:
                closing.append(x[p:m - _match_back(x, p, m, cap)])
            q = x.rfind(z, start, p - 1)
    return tuple(closing)


def _opening_suffixes(b: str) -> tuple[str, ...]:
    # Strings o such that p + b has a square holding len(p) in its left half
    # or at its middle exactly when p ends with some o: the closing prefixes
    # of b reversed, reversed back.  Such a square has no more letters in p
    # than in b.
    return tuple(r[::-1] for r in _closing_prefixes(b[::-1], len(b), len(b)))


def _square_free_words(letters: str, limit: int,
                       start: str = "") -> Generator[Optional[str], Optional[bool], None]:
    # Every square-free word of at most limit letters that properly extends
    # the square-free word start, depth first in letter order, yielded
    # reversed, newest letter first, as _starts_with_square tests it; a
    # letter is followed only by the others.  The path is a stack of letter
    # iterators, one per level below start, so any limit fits in the call
    # stack.  Sending True after a word skips its extensions; the send
    # returns None, and the caller's loop goes on with the next word.
    rev = start[::-1]
    others = {a: letters.replace(a, "") for a in letters}
    levels = [iter(others.get(rev[:1], letters))] if len(rev) < limit else []
    while levels:
        for a in levels[-1]:
            child = a + rev
            if not _starts_with_square(child):
                if (yield child):
                    yield None
                elif len(child) < limit:
                    rev = child
                    levels.append(iter(others[a]))
                    break
        else:
            levels.pop()
            rev = rev[1:]


def enumerate_square_free(alphabet_size: int, length: int) -> Iterator[str]:
    """Yield all square-free words of exactly this length, lexicographically,
    at one walk node and square test per square-free word of at most length
    letters; over three letters they grow as 1.30^length."""
    letters = _letters(alphabet_size)
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        yield ""
    for rev in _square_free_words(letters, length):
        if len(rev) == length:
            yield rev[::-1]


def _square_free_counts(alphabet_size: int, max_length: int) -> list[int]:
    # Entry l counts the square-free words of length l, for all l <= max_length,
    # from one walk over the words starting with 01 as in count_square_free.
    letters = _letters(alphabet_size)
    if max_length < 0:
        raise ValueError("length must be non-negative")
    m = len(letters)
    pairs = m * (m - 1)  # with one letter, 01 weighs 0
    counts = [1, m, pairs] + [0] * (max_length - 2)
    for rev in _square_free_words(letters, max_length, "01"):
        counts[len(rev)] += pairs
    return counts[:max_length + 1]


def count_square_free(alphabet_size: int, length: int) -> int:
    """Number of square-free words of the given length.

    Letter renaming: from length 2 on, a square-free word starts with two
    distinct letters a, b, and renaming the letters so that a becomes 0 and
    b becomes 1 maps the square-free words starting with ab one-to-one onto
    those starting with 01.  So the walk covers only the words starting
    with 01 and multiplies by the m * (m - 1) pairs a, b, m the alphabet
    size: a sixth of the ternary square-free words of at most length
    letters as walk nodes, 204,880 at length 38, growing as 1.30^length.
    """
    return _square_free_counts(alphabet_size, length)[length]


def parikh(w: str, alphabet_size: int) -> tuple[int, ...]:
    """Letter-count vector of w."""
    check_word(w, alphabet_size)
    return tuple(w.count(DIGITS[i]) for i in range(alphabet_size))


def is_lyndon(w: str) -> bool:
    """True iff w is strictly smaller than all of its proper non-empty suffixes."""
    if not w:
        raise ValueError("the empty word is not eligible")
    return all(w < w[i:] for i in range(1, len(w)))


def lex_least_square_free_prefix(alphabet_size: int, n: int) -> str:
    """Lexicographically least square-free word of length n.

    The first word that enumerate_square_free yields, so the first of
    length n in the depth-first walk over square-free words in letter
    order: every letter is the least one that still extends to a
    square-free word of length n.  Raises when no square-free word of that
    length exists.  Cost: the walk's nodes up to that word, its n letters
    and the branches it backtracks from, each tested only for squares
    ending with its new letter by one C scan of the word reversed, O(n)
    comparisons, so about n^2 comparisons in all.
    """
    word = next(enumerate_square_free(alphabet_size, n), None)
    if word is None:
        raise ValueError(f"no square-free word of length {n} over {alphabet_size} letters")
    return word
