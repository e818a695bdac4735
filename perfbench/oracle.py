"""Independent checks of shufflecraft outputs.

Nothing here imports shufflecraft: every verdict the benchmark accepts is
re-derived from the definitions with code of its own, so a fault in the
library's square kernel cannot vouch for itself.
"""

from __future__ import annotations

import random

# Rows of the paper's table: even length L -> (ternary square-free words of
# length L, those that are a square-free self-shuffle, operands admitting one).
ENUMERATION_TABLE = {
    4: (18, 0, 0),
    6: (42, 6, 6),
    8: (78, 12, 6),
    10: (144, 30, 12),
    12: (264, 24, 18),
    14: (456, 42, 30),
    16: (798, 78, 42),
    18: (1392, 138, 36),
    20: (2388, 228, 54),
    22: (4146, 396, 138),
    24: (7032, 588, 168),
    26: (11892, 1008, 234),
}
# Ternary square-free word counts beyond the table (OEIS A006156).
SQUARE_FREE_COUNTS = {28: 20220, 30: 34422}

# Below this half length a shift-and-compare over the whole word is cheap;
# above it only every (h // _SPARSE)-th position is compared first.
_DENSE = 32
_SPARSE = 8


def _xor(a: bytes, b: bytes) -> bytes:
    # Byte i of the result is zero iff a[i] == b[i].
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def square_free(word: str) -> bool:
    """True iff word has no factor xx with x non-empty.

    A square of half h is a run of h positions i with word[i] == word[i+h].
    For small h the whole match mask is searched for such a run.  For larger
    h the run covers at least _SPARSE consecutive multiples of g = h // _SPARSE,
    so the mask is first taken at those positions only and the full mask is
    searched only in windows around matching stretches.
    """
    s = word.encode("ascii")
    n = len(s)
    for h in range(1, min(_DENSE, n // 2) + 1):
        if _xor(s[: n - h], s[h:]).find(bytes(h)) >= 0:
            return False
    stretch = bytes(_SPARSE)
    for h in range(_DENSE + 1, n // 2 + 1):
        g = h // _SPARSE
        marks = _xor(s[0 : n - h : g], s[h:n:g])
        j = marks.find(stretch)
        while j >= 0:
            end = j + _SPARSE
            while end < len(marks) and marks[end] == 0:
                end += 1
            lo, hi = max(0, j * g - h), min(n - h, end * g + h)
            if _xor(s[lo:hi], s[lo + h : hi + h]).find(bytes(h)) >= 0:
                return False
            j = marks.find(stretch, end)
    return True


def square_at(word: str, start: int, half: int) -> bool:
    return (
        half >= 1
        and 0 <= start
        and start + 2 * half <= len(word)
        and word[start : start + half] == word[start + half : start + 2 * half]
    )


def longest_final_square(word: str) -> tuple[int, int] | None:
    """(start, half) of the longest square ending at the last letter."""
    n = len(word)
    for half in range(n // 2, 0, -1):
        if word[n - 2 * half : n - half] == word[n - half :]:
            return n - 2 * half, half
    return None


def interleave(u: str, v: str, beta: str) -> str | None:
    """u and v merged under beta (0 takes from u), None if the counts disagree."""
    if beta.count("0") != len(u) or beta.count("1") != len(v) or set(beta) - {"0", "1"}:
        return None
    sources = (iter(u), iter(v))
    return "".join(next(sources[bit == "1"]) for bit in beta)


def witness_fault(n: int, u: str, beta: str, w: str) -> str | None:
    """Why (u, beta, w) is not a self-shuffle witness of length n, or None."""
    if len(u) != n:
        return f"operand has {len(u)} letters, expected {n}"
    if len(beta) != 2 * n or beta.count("0") != n:
        return "conducting sequence is not balanced"
    if interleave(u, u, beta) != w:
        return "w is not u shuffled with itself under beta"
    if set(u) - set("012"):
        return "operand is not ternary"
    if not square_free(u):
        return "operand has a square"
    if not square_free(w):
        return "shuffled word has a square"
    return None


def _ends_in_square(word: list[str]) -> bool:
    m = len(word)
    return any(word[m - h :] == word[m - 2 * h : m - h] for h in range(1, m // 2 + 1))


def square_free_words(alphabet: int, length: int) -> list[str]:
    """All square-free words of this length over 0..alphabet-1."""
    out: list[str] = []
    word: list[str] = []

    def grow() -> None:
        if len(word) == length:
            out.append("".join(word))
            return
        for a in "0123456789"[:alphabet]:
            word.append(a)
            if not _ends_in_square(word):
                grow()
            word.pop()

    grow()
    return out


def random_square_free(rng: random.Random, length: int) -> str:
    """A ternary square-free word of this length, letters drawn by rng."""
    word: list[str] = []
    while True:
        word.clear()
        while len(word) < length:
            options = [a for a in "012" if not _ends_in_square(word + [a])]
            if not options:
                break
            word.append(rng.choice(options))
        if len(word) == length:
            return "".join(word)


def is_self_shuffle(w: str) -> bool:
    """Whether w is some square-free u shuffled with itself.

    The copy that runs ahead reads new letters of u; the other copy must
    match the letters already read.
    """
    if len(w) % 2:
        return False
    n = len(w) // 2
    u: list[str] = []

    def walk(p: int, i: int, j: int) -> bool:
        if p == 2 * n:
            return True
        c = w[p]
        for k, nxt in ((i, (i + 1, j)), (j, (i, j + 1))):
            if k >= n:
                continue
            if k < len(u):
                if u[k] == c and walk(p + 1, *nxt):
                    return True
            else:
                u.append(c)
                ok = not _ends_in_square(u) and walk(p + 1, *nxt)
                u.pop()
                if ok:
                    return True
        return False

    return walk(0, 0, 0)


def uniform_morphism_fault(images: tuple[str, ...], src: int, image_length: int) -> str | None:
    """Why images do not form a square-free uniform morphism, or None.

    For a uniform morphism the preservation test needs source words of
    length at most 3 only.
    """
    if len(images) != src or any(len(img) != image_length for img in images):
        return "images do not have the requested shape"
    if set("".join(images)) - set("012"):
        return "images are not ternary"
    for length in (1, 2, 3):
        for w in square_free_words(src, length):
            if not square_free("".join(images[int(a)] for a in w)):
                return f"image of {w} has a square"
    return None


class TooLong(Exception):
    """A search passed its step limit."""


def self_shuffles(u: str, limit: int) -> tuple[list[str], int]:
    """Every beta shuffling u with itself to a square-free word, ascending,
    and the number of steps (letters appended) the search took.

    Raises TooLong once the search takes more than limit steps.
    """
    n = len(u)
    out: list[str] = []
    bits: list[str] = []
    found: list[str] = []
    steps = 0

    def walk(i: int, j: int) -> None:
        nonlocal steps
        if i == j == n:
            found.append("".join(bits))
            return
        for bit, k in (("0", i), ("1", j)):
            if k >= n:
                continue
            steps += 1
            if steps > limit:
                raise TooLong
            out.append(u[k])
            bits.append(bit)
            if not _ends_in_square(out):
                walk(i + (bit == "0"), j + (bit == "1"))
            out.pop()
            bits.pop()

    walk(0, 0)
    return found, steps
