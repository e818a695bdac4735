"""Morphisms, substitutions, and square-freeness certification.

A morphism maps each source letter to one word, a substitution to a finite
set of words.  Certification follows the classical test: a morphism is
square-free as soon as it preserves square-freeness of all short words up
to a bound computed from its image lengths, and a substitution with the
three structural image properties needs only a fixed-length exhaustive
sweep on top.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .words import (
    DIGITS,
    SquareOccurrence,
    _closing_prefixes,
    _square_across,
    _square_free_words,
    check_word,
    enumerate_square_free,
    find_square,
    is_square_free,
)

__all__ = [
    "Morphism",
    "Substitution",
    "Certificate",
    "SearchResult",
    "apply_morphism",
    "apply_substitution",
    "compose",
    "crochemore_bound",
    "certify_square_free_morphism",
    "check_substitution_properties",
    "substitution_test_length",
    "certify_square_free_substitution",
    "fixed_point_prefix",
    "search_uniform_square_free_morphism",
    "parse_morphism",
    "morphism_text",
    "parse_substitution",
    "substitution_text",
]


@dataclass(frozen=True)
class Morphism:
    src_size: int
    dst_size: int
    images: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.src_size:
            raise ValueError("need exactly one image per source letter")
        for img in self.images:
            if not img:
                raise ValueError("images must be nonempty")
            check_word(img, self.dst_size)

    @property
    def max_image_length(self) -> int:
        return max(len(img) for img in self.images)

    @property
    def min_image_length(self) -> int:
        return min(len(img) for img in self.images)

    @property
    def is_uniform(self) -> bool:
        return self.max_image_length == self.min_image_length


@dataclass(frozen=True)
class Substitution:
    src_size: int
    dst_size: int
    image_sets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.image_sets) != self.src_size:
            raise ValueError("need exactly one image set per source letter")
        for images in self.image_sets:
            if not images:
                raise ValueError("image sets must be nonempty")
            for img in images:
                if not img:
                    raise ValueError("images must be nonempty")
                check_word(img, self.dst_size)

    @property
    def max_image_length(self) -> int:
        return max(len(img) for images in self.image_sets for img in images)

    @property
    def min_image_length(self) -> int:
        return min(len(img) for images in self.image_sets for img in images)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a square-freeness certification run.

    checked_count counts source words.  For a morphism, the square-free
    source words of at most bound_used letters.  For a substitution, the
    square-free source words of the test length, each tested with every
    choice of images, times k when the letter rotation applies (for stretch,
    78 = 3 * 26).  A refutation counts the words up to and including the
    failing one.
    """

    subject: str
    verdict: str  # "certified" | "refuted"
    bound_used: int
    checked_count: int
    counterexample: Optional[tuple[str, SquareOccurrence]] = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


@dataclass(frozen=True)
class SearchResult:
    morphism: Optional[Morphism]
    status: str  # "found" | "exhausted" | "budget"


def apply_morphism(h: Morphism, w: str) -> str:
    check_word(w, h.src_size)
    return _image(h, w)


def _image(h: Morphism | Substitution, w: str,
           choices: Optional[Sequence[int]] = None) -> str:
    # h(w), for a substitution the image picking choices[i] at position i;
    # the caller has checked w's letters and the choices.
    if isinstance(h, Substitution):
        return "".join(h.image_sets[int(a)][c] for a, c in zip(w, choices))
    return w.translate(str.maketrans(dict(zip(DIGITS, h.images))))


def apply_substitution(s: Substitution, w: str) -> Iterator[str]:
    """All choice-products of images of w, in lexicographic choice order."""
    check_word(w, s.src_size)
    for choice in itertools.product(*(s.image_sets[int(a)] for a in w)):
        yield "".join(choice)


def substitute_with_choices(s: Substitution, w: str, choices: Sequence[int]) -> str:
    """One image of w under s, picking image choices[i] at position i."""
    check_word(w, s.src_size)
    if len(choices) != len(w):
        raise ValueError(f"need {len(w)} image choices, got {len(choices)}")
    return _image(s, w, choices)


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The morphism w -> outer(inner(w))."""
    if inner.dst_size > outer.src_size:
        raise ValueError("alphabet mismatch in composition")
    return Morphism(inner.src_size, outer.dst_size,
                    tuple(apply_morphism(outer, img) for img in inner.images))


def crochemore_bound(h: Morphism) -> int:
    """Test-word length max(3, ceil((M-3)/m + 1)) for the morphism test."""
    big, small = h.max_image_length, h.min_image_length
    return max(3, -(-(big - 3) // small) + 1)


def certify_square_free_morphism(h: Morphism, subject: str = "") -> Certificate:
    """Run the preservation test on all square-free words up to the bound.

    Certified means every image of a square-free source word of length at
    most the bound is square-free, which by the classical criterion makes h
    square-free outright.  A refutation carries the first failing source
    word (shortest, then lexicographic) with the square in its image.

    The letter images are tested first, then the images of the square-free
    two-letter words in order.  Then the depth-first walk over square-free
    words, which keeps its path on an explicit stack, visits the longer
    source words, each image its parent's image plus one block.  A node
    tests only the squares that start in its word's first block and end in
    the last: any other lies in the image of a shorter word, which fails
    first and wins, so the certificate is that of testing every square.
    Such a square holds the last boundary in its right half, and the
    parent's closing prefixes, listed once, decide it: the node fails when
    its block starts with one.  Or it holds the boundary in its left half,
    which needs a parent image shorter than first block + M - 2 letters, M
    the longest image: such a node also fails when its parent image ends
    with one of its block's opening suffixes, listed once per letter.  A
    square found that way may start past the first block, but then it lies
    in the image of a shorter word again.  A two-letter word is the node
    whose parent is one letter, tested the same way.  sigma_17's 66,189
    words take about 0.16 s on a 2-vCPU x86 host.
    The walk's depth is bounded by memory, not by the call stack, but its
    time grows exponentially with the bound.  A failure caps the walk
    below its own length, so the refutation and checked_count are those
    of testing every length in turn, shortest first.  A refuted map costs
    at most what certifying a map with the same bound does, and a failing
    two-letter word is found without the walk.
    """
    bound = crochemore_bound(h)
    subject = subject or morphism_text(h, sep=", ")
    letters = DIGITS[:h.src_size]
    longest = h.max_image_length
    # The closing prefixes of each letter image as a first block, and its
    # opening suffixes, the closing prefixes of the image reversed, reversed
    # back: a word p ends with one of those of h(c) exactly when p + h(c)
    # has a square holding len(p) in its left half or at its middle.
    starts = [_closing_prefixes(img, len(img), longest) for img in h.images]
    opening = [tuple(r[::-1] for r in _closing_prefixes(img[::-1], len(img), len(img)))
               for img in h.images]
    counts = [0] * (bound + 1)  # square-free source words visited per length
    cap = bound
    failure: Optional[tuple[str, int]] = None  # (word, its rank at its length)
    for a, block in enumerate(h.images):
        if not is_square_free(block):
            failure, cap = (letters[a], a + 1), 0
            break
    else:
        # The two-letter words next, in order: a failure among them is the
        # refutation, and depth-first order would meet it only after the
        # whole walk under every earlier letter.
        # The square-free two-letter words are the ab with a != b.  The
        # parent image is the first block, so the left-half test needs only
        # longest > 2.
        pairs = itertools.permutations(range(h.src_size), 2)
        for rank, (a, b) in enumerate(pairs, 1):
            if (h.images[b].startswith(starts[a])
                    or longest > 2 and h.images[a].endswith(opening[b])):
                failure, cap = (letters[a] + letters[b], rank), 1
                break

    images = [""] * (bound + 1)  # images[d]: the image of the walk's word of length d
    # closing[d]: the closing prefixes of that image, once a child needs them
    closing: list[Optional[tuple[str, ...]]] = [None] * (bound + 1)
    walk = _square_free_words(letters, cap)
    for rev in walk:  # each source word reversed, newest letter first
        depth = len(rev)
        if depth <= cap:
            counts[depth] += 1
            prefix = images[depth - 1]
            c = int(rev[0])
            block = h.images[c]
            image = images[depth] = prefix + block
            closing[depth] = None
            if depth > 2:  # the two-letter words were tested before the walk
                first = len(images[1])
                ends = closing[depth - 1]
                if ends is None:
                    ends = closing[depth - 1] = _closing_prefixes(prefix, first, longest)
                if block.startswith(ends) or (len(prefix) < first + longest - 2
                                              and prefix.endswith(opening[c])):
                    failure = (rev[::-1], counts[depth])
                    cap = depth - 1
        if depth >= cap:
            walk.send(True)
    if failure is None:
        return Certificate(subject, "certified", bound, sum(counts))
    w, rank = failure
    occ = find_square(apply_morphism(h, w))
    assert occ is not None
    return Certificate(subject, "refuted", bound, sum(counts[:len(w)]) + rank, (w, occ))


def check_substitution_properties(s: Substitution) -> tuple[bool, bool, bool]:
    """The three structural image properties of a substitution.

    (1) no image of a letter sits properly inside an image of a two-letter
    word, (2) no image of a letter is a prefix of an image of a different
    letter, (3) images of distinct letters end with distinct letters.
    """
    letters = range(s.src_size)

    prop1 = True
    for a, b in itertools.product(letters, repeat=2):
        for xa, xb in itertools.product(s.image_sets[a], s.image_sets[b]):
            pair = xa + xb
            for c in letters:
                for xc in s.image_sets[c]:
                    pos = pair.find(xc, 1)
                    while prop1 and pos != -1:
                        if pos + len(xc) <= len(pair) - 1:
                            prop1 = False
                        pos = pair.find(xc, pos + 1)

    prop2 = all(
        not xb.startswith(xa)
        for a, b in itertools.permutations(letters, 2)
        for xa in s.image_sets[a]
        for xb in s.image_sets[b])

    last = [{img[-1] for img in s.image_sets[a]} for a in letters]
    prop3 = all(last[a].isdisjoint(last[b])
                for a, b in itertools.combinations(letters, 2))

    return prop1, prop2, prop3


def substitution_test_length(s: Substitution) -> int:
    """Source-word length whose images catch every short square.

    A square with half length up to 3*M-2 spans at most
    2 + (2*(3*M-2) - 2) // m consecutive images, so it already shows up in
    the image of a square-free word of that length; longer squares are ruled
    out structurally by the three image properties.
    """
    big, small = s.max_image_length, s.min_image_length
    max_half = 3 * big - 2
    return max(3, 2 + (2 * max_half - 2) // small)


def certify_square_free_substitution(
        s: Substitution,
        test_word_length: Optional[int] = None,
        subject: str = "substitution") -> Certificate:
    """Certify a substitution: structural properties plus exhaustive sweep.

    Certified iff properties (1)-(3) hold and every choice-product image of
    every square-free source word of the test length is square-free.  The
    default length comes from substitution_test_length.  Refuted means the
    test failed; when the failure is a concrete square it is attached as
    the counterexample.

    Letter rotation: when source and target have the same k letters and
    renaming every letter c to c + 1 (mod k) carries the images of each
    letter a, in order, onto those of a + 1, the images of a word rotated
    that way are those of the word rotated the same way, and renaming
    keeps squares.  So every square-free source word fails or passes with
    its rotation starting with 0, and only those words are swept.  The
    rotations map them one-to-one onto the words starting with each other
    letter, so a certified count is k times theirs.  The first failing
    word in lexicographic order starts with 0, as does every word before
    it, so a refutation, its count and its square are those of the full
    sweep.
    """
    length = substitution_test_length(s) if test_word_length is None else test_word_length
    props_ok = all(check_substitution_properties(s))
    clean = {img for images in s.image_sets for img in images if is_square_free(img)}
    classes = _rotation_classes(s) if length else 1
    known: dict = {}  # short boundary verdicts, shared by the whole sweep
    checked = 0
    for w in enumerate_square_free(s.src_size, length):
        if classes > 1 and w[0] != "0":
            break
        checked += 1
        failing = _first_failing_choices(s, w, clean, known)
        if failing is not None:
            # Every image under this choice prefix has a square, so its
            # completion by choice 0 is the first failing image in the
            # lexicographic choice order that apply_substitution follows.
            choices = failing + [0] * (len(w) - len(failing))
            occ = find_square(substitute_with_choices(s, w, choices))
            assert occ is not None
            return Certificate(subject, "refuted", length, checked, (w, occ))
    checked *= classes
    if not props_ok:
        return Certificate(subject, "refuted", length, checked, None)
    return Certificate(subject, "certified", length, checked)


@lru_cache(maxsize=None)
def _certificate(h: Morphism | Substitution) -> Certificate:
    # The certificate of h with the default subject, made once per process
    # and keyed by the map's value: the catalog report and every lift in
    # construct read it, so each map is certified once however often it is
    # checked or lifted through.  The public certify functions stay uncached.
    if isinstance(h, Substitution):
        return certify_square_free_substitution(h)
    return certify_square_free_morphism(h)


def _rotation_classes(s: Substitution) -> int:
    # k when s commutes with the letter rotation c -> c + 1 (mod k) on a
    # k-letter alphabet, image order included; otherwise 1.
    k = s.src_size
    if s.dst_size != k:
        return 1
    rotate = str.maketrans(DIGITS[:k], DIGITS[1:k] + "0")
    for a, images in enumerate(s.image_sets):
        if tuple(img.translate(rotate) for img in images) != s.image_sets[(a + 1) % k]:
            return 1
    return k


def _first_failing_choices(s: Substitution, w: str, clean: set[str],
                           known: dict) -> Optional[list[int]]:
    # Depth-first over image choices for the letters of w, sharing each
    # image prefix among all its completions.  Returns the least choice
    # prefix whose image has a square, or None when every image of w is
    # square-free.  A new block is square-free by itself when it is in
    # clean, so only squares across its left boundary remain to test.
    blocks = [s.image_sets[int(a)] for a in w]
    choices: list[int] = []  # choices[d]: the image chosen for w[d], above the level tried
    prefixes = [""]  # prefixes[d]: the image of w[:d] under those choices
    levels = [iter(enumerate(blocks[0]))] if blocks else []
    while levels:
        for c, block in levels[-1]:
            prefix = prefixes[-1]
            image = prefix + block
            if block not in clean or _square_across(image, len(prefix), known):
                return choices + [c]
            if len(levels) < len(blocks):
                choices.append(c)
                prefixes.append(image)
                levels.append(iter(enumerate(blocks[len(levels)])))
                break
        else:
            levels.pop()
            if levels:
                choices.pop()
                prefixes.pop()
    return None


def fixed_point_prefix(h: Morphism, seed: int, n: int) -> str:
    """First n letters of the fixed point obtained by iterating h on seed."""
    if not 0 <= seed < h.src_size:
        raise ValueError("seed letter out of range")
    if h.src_size > h.dst_size:
        raise ValueError("fixed points need images over the source alphabet")
    image = h.images[seed]
    if len(image) < 2 or image[0] != DIGITS[seed]:
        raise ValueError(f"h is not prolongable at letter {seed}")
    w = DIGITS[seed]
    while len(w) < n:
        w = apply_morphism(h, w[:n])
    return w[:n]


def _boundary_table(word: str, strings: dict, side: int) -> tuple[str, ...]:
    # One of word's boundary tables for neighbours of its length: side 0
    # lists its closing prefixes as a left block, side 1 its opening
    # suffixes as a right block, each string kept once in strings.  A string
    # that extends another of its table is left out, and so is an opening
    # suffix that word starts with: a left neighbour ending with it makes a
    # square that its closing prefixes catch.
    size = len(word)
    least: list[str] = []
    for r in sorted(_closing_prefixes(word[::-1] if side else word, size, size)):
        if not least or not r.startswith(least[-1]):
            least.append(r)
    if side:
        least = [s for s in (r[::-1] for r in least) if not word.startswith(s)]
    return tuple(strings.setdefault(r, r) for r in least)


def _boundary_tables(word: str, strings: dict) -> tuple[tuple[str, ...], tuple[str, ...]]:
    # Both of word's tables at once, as _pair_square reads them.
    return _boundary_table(word, strings, 0), _boundary_table(word, strings, 1)


def _pair_square(x: str, y: str, x_tables: tuple, y_tables: tuple) -> bool:
    # True iff x + y has a square, for square-free x and y of one length.
    return y.startswith(x_tables[0]) or x.endswith(y_tables[1])


def search_uniform_square_free_morphism(
        src_k: int,
        dst_k: int,
        image_length: int,
        budget: Optional[int] = 10 ** 6) -> SearchResult:
    """Backtracking search for a uniform square-free morphism.

    Candidate images are the square-free destination words of the requested
    length, tried in lexicographic order per source letter, with partial
    image tuples pruned by the preservation test on the sub-alphabet placed
    so far.  The first fully certified morphism (lexicographically least
    image tuple) is returned.  The budget caps candidate placements; the
    status tells exhausting the search space apart from the budget.

    Each candidate tried gets boundary tables, once: x + y has a square iff
    y starts with one of x's closing prefixes or x ends with one of y's
    opening suffixes.  A candidate's closing prefixes are listed only once
    no placed image ends with one of its opening suffixes.  The candidates
    that start with a closing prefix of a placed image are ranges of the
    sorted list, marked in a mask per depth that bytearray.find skips, each
    counted as a placement tried, so the result and the budget accounting
    are those of testing every placement.  Only triple images are scanned.
    (5, 3, 22) takes about 0.15 s and peaks at 1.3 MB traced on a 2-vCPU
    x86 host.
    """
    for name, size in (("src_k", src_k), ("dst_k", dst_k)):
        if not 1 <= size <= 10:
            raise ValueError(f"{name} must be between 1 and 10, got {size}")
    if image_length < 1:
        raise ValueError(f"image_length must be positive, got {image_length}")
    candidates = list(enumerate_square_free(dst_k, image_length))
    if not candidates:
        return SearchResult(None, "exhausted")

    # Letter j's image is tested with each placed image, both ways round,
    # then in the square-free three-letter words over 0..j that hold j.
    # Shorter test words passed, so a square straddles the last boundary.
    triple_words = [[tuple(map(int, w)) for w in enumerate_square_free(j + 1, 3) if DIGITS[j] in w]
                    for j in range(src_k)]
    n = len(candidates)
    strings: dict[str, str] = {}
    tables: list = [None] * n  # tables[x]: those of candidates[x], once tried
    placed: list[int] = []  # the candidate index of each image placed
    # levels[j]: the next candidate to try for letter j, and the mask of the
    # candidates that start with a closing prefix of an image placed before.
    levels = [[0, bytearray(n + 1)]]
    spent = 0
    while len(placed) < src_k:
        start, mask = level = levels[-1]
        y = mask.find(0, start)  # the byte past the last candidate stays 0
        # Skipped candidates count as tried, with the budget checked before each.
        spent += y - start
        if budget is not None and spent + (y < n) > budget:
            return SearchResult(None, "budget")
        if y == n:
            levels.pop()
            if not placed:
                return SearchResult(None, "exhausted")
            placed.pop()
            continue
        spent += 1
        level[0] = y + 1
        image = candidates[y]
        table = tables[y] = tables[y] or (None, _boundary_table(image, strings, 1))
        # The mask skipped every image that starts with a closing prefix of a
        # placed x, so x + image has a square only if x ends with an opening
        # suffix of image.  Image's closing side is listed once none does.
        if any(candidates[x].endswith(table[1]) for x in placed):
            continue
        if table[0] is None:
            table = tables[y] = (_boundary_table(image, strings, 0), table[1])
        placed.append(y)
        if (any(_pair_square(image, candidates[x], table, tables[x]) for x in placed[:-1])
                or any(_square_across(candidates[placed[a]] + candidates[placed[b]]
                                      + candidates[placed[c]], 2 * image_length)
                       for a, b, c in triple_words[len(placed) - 1])):
            placed.pop()
        elif len(placed) < src_k:
            mask = bytearray(mask)
            for r in table[0]:
                lo = bisect_left(candidates, r)
                hi = bisect_left(candidates, r + ":", lo)  # ":" follows the digits
                mask[lo:hi] = b"\1" * (hi - lo)
            levels.append([0, mask])
    found = Morphism(src_k, dst_k, tuple(candidates[x] for x in placed))
    cert = certify_square_free_morphism(found)
    if not cert.certified:  # the incremental pruning already is the full test
        raise AssertionError("search produced an uncertifiable morphism")
    return SearchResult(found, "found")


def _digits(number: int, text: str, what: str = "image") -> str:
    # text, once found to be a nonempty string of decimal digits.
    if not text or text.strip(DIGITS):
        raise ValueError(f"line {number}: bad {what} {text!r}")
    return text


def _parse_map(text: str, what: str, images_of) -> tuple[tuple, int]:
    # The right sides images_of(number, right) of the non-blank lines
    # "a -> right" of a map, numbered from 1, in letter order, and the size
    # of the alphabet they use; a right side is an image or a tuple of
    # images, and what names it in the duplicate message.
    table: dict = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        left, _, right = map(str.strip, line.partition("->"))
        letter = int(_digits(number, left, "source letter"))
        if letter in table:
            raise ValueError(f"duplicate {what} for letter {letter}")
        table[letter] = images_of(number, right)
    if not table:
        raise ValueError("no letter images")
    if sorted(table) != list(range(len(table))):
        raise ValueError("source letters must be 0..k-1 without gaps")
    ordered = tuple(table[a] for a in range(len(table)))
    return ordered, int(max("".join(map("".join, ordered)))) + 1


def parse_morphism(text: str) -> Morphism:
    """Parse lines of the form "a -> image" into a Morphism; a malformed
    letter or image raises ValueError naming its line, numbered from 1."""
    ordered, dst = _parse_map(text, "image", _digits)
    return Morphism(len(ordered), dst, ordered)


def morphism_text(h: Morphism, sep: str = "\n") -> str:
    return sep.join(f"{a} -> {img}" for a, img in enumerate(h.images))


def _image_set(number: int, right: str) -> tuple[str, ...]:
    if not (right.startswith("{") and right.endswith("}")):
        raise ValueError(f"line {number}: expected '{{...}}' image set, got {right!r}")
    return tuple(_digits(number, part.strip()) for part in right[1:-1].split(","))


def parse_substitution(text: str) -> Substitution:
    """Parse lines of the form "a -> {image1, image2}", as parse_morphism."""
    ordered, dst = _parse_map(text, "image set", _image_set)
    return Substitution(len(ordered), dst, ordered)


def substitution_text(s: Substitution, sep: str = "\n") -> str:
    return sep.join(
        "{} -> {{{}}}".format(a, ", ".join(images))
        for a, images in enumerate(s.image_sets))
