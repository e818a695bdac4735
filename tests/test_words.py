import itertools
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brute import brute_closing_squares, brute_ends_in_square, brute_find_square, brute_opening_squares
from shufflecraft import catalog, words
from shufflecraft.morphisms import apply_morphism, fixed_point_prefix
from shufflecraft.words import (
    SquareOccurrence,
    _closing_prefixes,
    _square_across,
    _square_free_counts,
    _starts_with_square,
    check_word,
    count_square_free,
    enumerate_square_free,
    find_square,
    is_lyndon,
    is_square_free,
    lex_least_square_free_prefix,
    parikh,
)

ternary = st.text(alphabet="012", max_size=24)

# Square-free and rich in long near-squares: a fixed point of an
# 18-uniform morphism.
H18_WORD = fixed_point_prefix(catalog.get_morphism("h18"), 0, 3000)


@st.composite
def long_half_words(draw):
    """A square-free factor whose last k > 64 letters are repeated, so its
    squares have halves above the byte-scan limit; sometimes the repeat is
    spoiled in its last letter or followed by more letters."""
    start = draw(st.integers(0, 2000))
    length = draw(st.integers(130, 400))
    factor = H18_WORD[start:start + length]
    k = draw(st.integers(65, length))
    w = factor + factor[-k:]
    if draw(st.booleans()):
        w = w[:-1] + draw(st.sampled_from([c for c in "012" if c != w[-1]]))
    return w + H18_WORD[start + length:start + length + draw(st.integers(0, 40))]


def test_check_word_rejects_out_of_range_letters():
    assert check_word("0102", 3) == "0102"
    with pytest.raises(ValueError):
        check_word("013", 3)
    with pytest.raises(ValueError):
        check_word("0a2", 3)


@pytest.mark.parametrize("w, k, bad", [
    ("0123", 3, "3"),
    ("3", 3, "3"),
    ("a01", 3, "a"),
    ("01\u00e92", 3, "\u00e9"),
    ("0192a", 9, "9"),
    ("01a3", 3, "a"),
])
def test_check_word_names_the_first_bad_letter(w, k, bad):
    with pytest.raises(ValueError) as info:
        check_word(w, k)
    assert str(info.value) == f"letter {bad!r} not in alphabet of size {k}"


def test_empty_and_single_letters_are_square_free():
    assert is_square_free("")
    assert is_square_free("0")
    assert is_square_free("012")


def test_find_square_reports_leftmost_shortest():
    assert find_square("00") == SquareOccurrence(0, 1)
    assert find_square("0102") is None
    # 012012 is a square of half-length 3 starting at 0
    assert find_square("012012") == SquareOccurrence(0, 3)
    # leftmost start wins, then the shortest half at that start
    assert find_square("201021201021") == SquareOccurrence(0, 6)
    assert find_square("0101") == SquareOccurrence(0, 2)


@given(ternary)
def test_find_square_agrees_with_is_square_free(w):
    occ = find_square(w)
    assert (occ is None) == is_square_free(w)
    if occ is not None:
        start, half = occ
        assert w[start : start + half] == w[start + half : start + 2 * half]


def ends_in_square(w):
    """The walkers' suffix test: a square starts the reversed word."""
    return _starts_with_square(w[::-1])


@given(st.integers(1, 4).flatmap(lambda k: st.text(alphabet="0123"[:k], max_size=40)))
def test_kernel_matches_brute_force(w):
    expected = brute_find_square(w)
    assert find_square(w) == expected
    assert is_square_free(w) == (expected is None)
    # w and each of its prefixes, as a walk grows w a letter at a time
    for k in range(len(w) + 1):
        assert ends_in_square(w[:k]) == brute_ends_in_square(w[:k])


def examples(words):
    """Run a @given test on each of words as well."""
    def decorate(test):
        for w in words:
            test = example(w)(test)
        return test
    return decorate


# Inputs a per-half test finds hard: unary words; a period-2 word that a
# new letter ends; a square-free factor x followed by x[:-1] and each
# letter c, one of which closes the long square xx.  Also a square whose
# half holds a newline, a letter like any other.
ADVERSARIAL = (["0" * n for n in (2, 3, 301)] + ["0\n0\n"]
               + ["01" * k + "2" for k in (1, 2, 150)]
               + [H18_WORD[s:s + n] + H18_WORD[s:s + n - 1] + c
                  for s, n in ((0, 70), (900, 260)) for c in "012"])


@settings(deadline=None, max_examples=60)
@given(long_half_words())
@examples(ADVERSARIAL)
def test_kernel_matches_brute_force_on_long_halves(w):
    expected = brute_find_square(w)
    assert find_square(w) == expected
    assert is_square_free(w) == (expected is None)
    assert ends_in_square(w) == brute_ends_in_square(w)


def test_long_half_square_is_found_exactly():
    factor = H18_WORD[:500]
    assert is_square_free(factor)
    w = factor + factor[-200:]
    assert find_square(w) == brute_find_square(w)
    assert find_square(w).half_length > 64
    assert not is_square_free(w)
    assert _square_across(w, len(factor))
    spoiled = w[:-1] + ("0" if w[-1] != "0" else "1")
    assert _square_across(spoiled, len(factor)) == (brute_find_square(spoiled) is not None)
    assert is_square_free(H18_WORD)


@pytest.mark.parametrize("half", [65, 72])
def test_long_squares_at_every_offset_from_an_anchor(half):
    # squares of one long half starting at each residue modulo the half,
    # so the backward match from the anchor takes every length up to its cap
    for start in range(half + 2):
        u = H18_WORD[start:start + half]
        w = H18_WORD[:start] + u + u
        assert find_square(w) == brute_find_square(w)
        assert _square_across(w, start + half) == (brute_find_square(w) is not None)


@pytest.mark.parametrize("half", [65, 80])
def test_long_square_just_before_a_short_one(half):
    # uu starts at half + 1, the first start its anchor 2 * half allows,
    # and u opens with a letter then a doubled letter: the short square
    # found first starts one letter after the long one
    start = half + 1
    u = H18_WORD[start:start + half]
    u = u[:2] + u[1] + u[3:]
    w = H18_WORD[:start] + u + u
    assert find_square(w) == SquareOccurrence(start, half) == brute_find_square(w)


@pytest.mark.parametrize("half", [65, 100])
@pytest.mark.parametrize("extra", [1, 20, 2 * 100, 3 * 100 + 5])
def test_long_squares_sharing_a_start(half, extra):
    # p u u u u with |p| > |u|: squares of half |u|, 2|u| and 3|u| start
    # at |p|, and the longer halves meet their anchors first
    for offset in (0, 500, 1000):
        p = H18_WORD[offset:offset + half + extra]
        u = H18_WORD[offset + len(p):offset + len(p) + half]
        w = p + u * 4
        expected = brute_find_square(w)
        assert find_square(w) == expected
        assert expected.half_length == half


def plant(start, half, tail=""):
    """An h18 prefix of start letters, its last one changed to 3, then u u
    with u the next half letters, then tail: the 3 keeps the run of uu from
    reaching back, so the leftmost square starts at start."""
    u = H18_WORD[start:start + half]
    prefix = H18_WORD[:start - 1] + "3" if start else ""
    return prefix + u + u + tail


def test_kernel_across_window_band_and_grid_edges(monkeypatch):
    # A shrunk window puts short squares across its edges; _RUN = 2 makes
    # the long-half bands [65, 129) and [129, 257) on grids of step 64 and
    # 128, so their edges fall inside words of a few hundred letters.  These
    # words are over 0-3, so the XOR pass is held to halves up to 64 too,
    # and run twice: halves 7-64 on lanes, then with _LANE_HALF = 65 all of
    # them byte-wise, the pass that words with other letters take.
    monkeypatch.setattr(words, "_WINDOW", 37)
    monkeypatch.setattr(words, "_RUN", 2)
    monkeypatch.setattr(words, "_PACKED_HALF", 64)
    for lane in (words._LANE_HALF, 65):
        monkeypatch.setattr(words, "_LANE_HALF", lane)
        for start, half in [(36, 64), (73, 64), (36, 1), (40, 63)]:
            # the longest short half, starting on a window's last letter
            w = plant(start, half)
            assert find_square(w) == brute_find_square(w)
        for half in (64, 65, 128, 129, 256, 257):  # a - 1, a, b - 1, b of both bands
            for start in (63, 64, 65, 127, 128, 129):  # q - 1, q, q + 1 of grid points
                w = plant(start, half)
                assert find_square(w) == SquareOccurrence(start, half) == brute_find_square(w)
                assert not is_square_free(w)
        rng = random.Random(7)
        for _ in range(300):
            start = rng.randrange(2000)
            factor = H18_WORD[start:start + rng.randint(20, 300)]
            w = factor + factor[-rng.randint(1, len(factor)):]
            if rng.random() < 0.5:
                w += H18_WORD[start + len(factor):][:rng.randint(0, 60)]
            expected = brute_find_square(w)
            assert find_square(w) == expected
            assert is_square_free(w) == (expected is None)


def band_scan_cases():
    """Words for the long-half scan: h18 factors with planted long squares;
    a square-free prefix then a unary, period-3 or period-100 tail; words
    over 10 letters; and non-ASCII letters, which are renamed to bytes."""
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        start = rng.randrange(1500)
        factor = H18_WORD[start:start + rng.randint(10, 250)]
        w = factor + factor[-rng.randint(1, len(factor)):]
        cases.append(w + H18_WORD[start + len(factor):][:rng.randint(0, 30)])
    for half in (9, 14, 15, 26, 27, 33, 64, 65, 66, 97, 98, 99, 130, 131):
        for start in rng.sample(range(140), 4):
            cases.append(plant(start, half, H18_WORD[:rng.randint(0, 8)]))
        cases.append(plant(0, half))  # the whole word, half n // 2
        # u opens with a letter then a doubled letter, so a short square
        # starts one letter after the long one
        u = H18_WORD[half + 1:2 * half + 1]
        u = u[:2] + u[1] + u[3:]
        cases.append(H18_WORD[:half + 1] + u + u)
    for size in (40, 150, 400):
        prefix = H18_WORD[500:500 + size]
        period = H18_WORD[900:1000]
        for tail in ("1" * 300, "012" * 100, period * 3):
            cases.append(prefix + tail)
    for letters in ("0123456789", "aéα€ßжñøλ\U0001d11e"):
        # Renamed by its position modulo 3, h18 stays square-free: letters
        # at distances not divisible by 3 never match.
        renamed = "".join(letters[3 * (i % 3) + int(c)] for i, c in enumerate(H18_WORD[:600]))
        for _ in range(15):
            start = rng.randrange(300)
            factor = renamed[start:start + rng.randint(10, 250)]
            w = factor + factor[-rng.randint(1, len(factor)):]
            cases.append(w + letters[9] * rng.randint(0, 2))
        cases.append("".join(rng.choice(letters) for _ in range(200)))
    return cases


BAND_SCAN_CASES = band_scan_cases()


LANE_HALVES = range(words._LANE_HALF, words._PACKED_HALF + 1)


def assert_kernel_finds(w, expected):
    """find_square gives expected, and is_square_free agrees with it."""
    assert find_square(w) == expected
    assert is_square_free(w) == (expected is None)


@pytest.mark.parametrize("short, run", [(64, 32), (64, 2), (64, 4), (8, 2), (8, 4), (3, 4),
                                        (96, 32), (96, 2), (12, 2), (7, 4)])
def test_band_scan_matches_brute_force(monkeypatch, short, run):
    # The XOR pass takes halves up to short in every word, then the bands
    # start at a = short + 1: as shipped (64 for most words, 96 for words
    # over 0-3), and with _RUN and short shrunk so that many band and grid
    # edges fall inside these words; (3, 4) gives a grid of step 1 in the
    # first band.  Over 0-3, short >= 7 puts halves 7..short on lanes and
    # short = 3 leaves no lane pass.  Squares are planted at the halves
    # a - 1, a, b - 1, b of the first band [a, b), starting around its grid
    # point q = a - _RUN + 1.
    monkeypatch.setattr(words, "_SHORT_HALF", short)
    monkeypatch.setattr(words, "_PACKED_HALF", short)
    monkeypatch.setattr(words, "_RUN", run)
    a = short + 1
    step = a - run + 1
    planted = [plant(start, half) for half in (a - 1, a, a + step - 1, a + step)
               for start in (step - 1, step, step + 1)]
    for w in BAND_SCAN_CASES + planted:
        assert_kernel_finds(w, brute_find_square(w))


def planted_square(start, half, tail="3"):
    """plant(start, half, tail) and its leftmost square.  The prefix and u
    are over 0-2, so the two 3s around u u are the only ones, and a square
    holding either would hold both at distance 2 * half + 1; no such square
    fits.  So every square lies in u u, and the leftmost is that of u u."""
    w = plant(start, half, tail)
    s, h = brute_find_square(w[start:start + 2 * half])
    return w, SquareOccurrence(start + s, h)


def lane_cases():
    """A square of each lane half ending 1-4 letters before the end of a
    one-window word.  The packing aligns the last letter with the end of a
    byte, so the four tails put the run of the square's half equal lanes at
    each of the four offsets within a byte."""
    return [planted_square(9 + half % 13, half, "3" + "010"[:t])
            for half in LANE_HALVES for t in range(4)]


LANE_CASES = lane_cases()


def test_lane_pass_finds_squares_at_every_byte_offset():
    for w, expected in LANE_CASES:
        assert expected.half_length >= words._LANE_HALF
        assert_kernel_finds(w, expected)


def test_lane_pass_finds_squares_across_the_window_edge():
    # Squares of every lane half starting on the last two letters of the
    # first window and the first two of the next: the window's packing
    # ends with it, so the four starts give the four offsets in a byte.
    edge = words._WINDOW
    long_word = fixed_point_prefix(catalog.get_morphism("h18"), 0, edge + 200)
    for half in LANE_HALVES:
        for start in range(edge - 2, edge + 2):
            u = long_word[start:start + half]
            w = long_word[:start - 1] + "3" + u + u + "3"
            s, h = brute_find_square(u + u)
            assert_kernel_finds(w, SquareOccurrence(start + s, h))


def test_lane_pass_rejects_near_squares():
    # x y 3 y z with x y and y z factors of h18: any square would hold the
    # one 3 twice, so there is none, yet at each lane half the half - 1
    # letters of y are half - 1 equal lanes, one short of a square.  The
    # letters after z put that run at each offset within a byte.
    for half in LANE_HALVES:
        for t in range(4):
            w = H18_WORD[half - 1:2 * half - 1] + "3" + H18_WORD[half:2 * half + t]
            assert brute_find_square(w) is None
            assert_kernel_finds(w, None)


def test_lane_pass_finds_a_square_just_past_a_near_square():
    # x y 3 y b y b: at each lane half the near-square y 3 y gives half - 1
    # equal lanes, the 3 one unequal lane, and the square y b y b half
    # equal lanes, so the square's run starts in the byte where the
    # rejected run ends.  Every square lies in y b y b, after the one 3.
    for half in LANE_HALVES:
        y = H18_WORD[half:2 * half]
        for t in range(4):
            w = H18_WORD[half - 1] + y[:-1] + "3" + y + y + "3" + "010"[:t]
            s, h = brute_find_square(y + y)
            assert_kernel_finds(w, SquareOccurrence(half + 1 + s, h))


def test_lane_pass_needs_no_more_zero_bytes(monkeypatch):
    # Asking for one zero byte more than a run of half lanes is sure to
    # hold misses the squares whose run starts on a byte's second lane.
    monkeypatch.setattr(words, "_LANE_ZEROS", [bytes(len(z) + 1) for z in words._LANE_ZEROS])
    missed = {expected.half_length for w, expected in LANE_CASES if find_square(w) != expected}
    assert missed == set(LANE_HALVES)


def test_letters_beyond_three_take_the_byte_pass(monkeypatch):
    calls = []
    lane_square = words._lane_square
    monkeypatch.setattr(words, "_lane_square", lambda *args: calls.append(args) or lane_square(*args))
    w, expected = planted_square(40, 30)
    assert_kernel_finds(w, expected)
    assert calls
    calls.clear()
    for letter in "49":
        other = w[:10] + letter + w[11:]
        assert_kernel_finds(other, expected)
        assert not calls


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on int/str conversion digits, where
    it has one: base 4 is exempt from it, base 10 is not."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_lane_pass_on_a_long_word(default_digit_limit):
    # Windows of 16,384 letters and more are parsed from base 4.
    w = fixed_point_prefix(catalog.get_morphism("h18"), 0, 10 ** 5)
    assert is_square_free(w)
    planted = w + "3" + w[:50] * 2 + "3"
    assert find_square(planted) == SquareOccurrence(len(w) + 1, 50)


@given(st.text(alphabet="012", min_size=1, max_size=30), st.data())
def test_square_across_a_boundary(w, data):
    m = data.draw(st.integers(0, len(w) - 1))
    if is_square_free(w[:m]) and is_square_free(w[m:]):
        assert _square_across(w, m) == (brute_find_square(w) is not None)


@st.composite
def long_boundaries(draw):
    """An h18 factor of 60-300 letters, then a square-free right part of
    1-40 letters, often the factor's continuation shifted back by a period
    and sometimes changed in one letter, so long squares cross the boundary."""
    start = draw(st.integers(0, 2500))
    left = H18_WORD[start:start + draw(st.integers(60, 300))]
    size = draw(st.integers(1, 40))
    if draw(st.booleans()):
        at = start + len(left) - draw(st.integers(1, len(left)))
    else:
        at = draw(st.integers(0, len(H18_WORD) - size))
    right = H18_WORD[at:at + size]
    if draw(st.booleans()):
        i = draw(st.integers(0, size - 1))
        right = right[:i] + draw(st.sampled_from("012")) + right[i + 1:]
    return left, right


@settings(deadline=None, max_examples=300)
@given(long_boundaries())
def test_square_across_long_words(case):
    left, right = case
    assume(is_square_free(right))
    w = left + right
    assert _square_across(w, len(left)) == (brute_find_square(w) is not None)


@pytest.mark.parametrize("tail", [None, 1, 20])
def test_square_across_planted_long_halves(monkeypatch, tail):
    # p u u t with the boundary m at every offset j inside the second u:
    # x[:m] = p u u[:j] and x[m:] = u[j:] t, both square-free as factors of
    # h18 images of square-free words (b v v[:-1] and v a).  The halves
    # above n - m + _TAIL come from str.rfind.  The cases kill these
    # mutants: its end bound one short (j = len(t) + _TAIL + 1), its start
    # bound one late (p empty, where the half is n // 2), the per-half loop
    # stopping at n - m (j up to _TAIL).
    if tail is not None:
        monkeypatch.setattr(words, "_TAIL", tail)
    h18 = catalog.get_morphism("h18")
    through_rfind = 0
    for b, v, a in [("2", "01", "0"), ("1", "012", "1"), ("2", "0121", "0")]:
        before, u, after = (apply_morphism(h18, x) for x in (b, v, a))
        for p_size, t_size in [(0, 0), (0, 3), (1, 0), (9, 0), (4, 11)]:
            w = before[len(before) - p_size:] + u + u + after[:t_size]
            expected = brute_find_square(w) is not None
            for j in range(len(u)):
                m = p_size + len(u) + j
                assert is_square_free(w[:m]) and is_square_free(w[m:])
                through_rfind += len(u) > len(w) - m + words._TAIL
                assert _square_across(w, m) == expected, (v, p_size, t_size, j)
    assert through_rfind >= 100


@st.composite
def boundary_streams(draw):
    """Boundary tests that share windows: square-free parts over 2 or 3
    letters.  Each test splits one of a few base words at one of its
    boundaries and keeps a suffix, so one window recurs at boundaries of
    different absolute positions, one word is split at different
    boundaries, and windows are clamped by the start of the word.  A base
    word is a binary one, an h18 factor and a right part, or b u u t from
    h18 images of square-free words with its boundaries in the second u,
    so that squares of half |u| cross the boundary with most of their
    right half before it."""
    h18 = catalog.get_morphism("h18")
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["binary", "factor", "planted"]))
        if kind == "binary":
            w = draw(st.sampled_from(["010", "101", "01", "10"]))
            ms = range(1, len(w))
        elif kind == "factor":
            left, right = draw(long_boundaries())
            if not is_square_free(right):
                continue
            w, ms = left + right, [len(left)]
        else:
            v = draw(st.sampled_from(["01", "012", "0121", "01210"]))
            b = draw(st.sampled_from([c for c in "012" if c != v[0]]))
            a = draw(st.sampled_from([c for c in "012" if c not in (v[0], v[-1])]))
            before, u, after = (apply_morphism(h18, x) for x in (b, v, a))
            w = before[-draw(st.integers(0, len(before))):] + u + u
            ms = range(len(w) - len(u) + 1, len(w))
            w += after[:draw(st.integers(0, 10))]
            ms = [m for m in ms if is_square_free(w[:m]) and is_square_free(w[m:])]
        bases.append((w, ms))
    assume(any(ms for _, ms in bases))
    bases = [(w, ms) for w, ms in bases if ms]
    stream = []
    for _ in range(draw(st.integers(1, 12))):
        w, ms = draw(st.sampled_from(bases))
        m = draw(st.one_of(st.just(ms[-1]), st.sampled_from(ms)))
        cut = draw(st.one_of(st.just(0), st.integers(0, m)))
        stream.append((w[cut:], m - cut))
    return stream


def assert_memo_agrees(known, x, m):
    expected = brute_find_square(x) is not None
    assert _square_across(x, m, known) == _square_across(x, m) == expected, (x, m)


@settings(deadline=None, max_examples=300)
@given(boundary_streams())
def test_memoized_square_across_matches_brute_force(stream):
    known = {}
    for x, m in stream:
        assert_memo_agrees(known, x, m)


def test_memo_windows_across_boundaries():
    # b u u with the boundary m late in the second u, so the square uu
    # has a half above reach = n - m + _TAIL and starts before the window
    # w[lo:], lo = m - 2 * reach.
    h18 = catalog.get_morphism("h18")
    before, u = apply_morphism(h18, "2"), apply_morphism(h18, "0121")
    w = before[-9:] + u + u
    m = len(w) - 12
    reach = len(w) - m + words._TAIL
    lo = m - 2 * reach
    assert is_square_free(w[:m]) and is_square_free(w[m:]) and 9 < lo
    known = {}
    # the window itself, its boundary at 2 * reach: no square
    assert_memo_agrees(known, w[lo:], 2 * reach)
    assert len(known) == 1
    # the same window at boundary m: the short verdict is read back, and
    # the square of half len(u) > reach still comes from the long halves;
    # then at m - lo + 1 in a suffix that cuts the square off
    assert_memo_agrees(known, w, m)
    assert_memo_agrees(known, w[lo - 1:], m - lo + 1)
    assert len(known) == 1 and _square_across(w, m, known)
    # a clamped window, m < 2 * reach: the whole word is the window
    assert_memo_agrees(known, w[lo + 1:], m - lo - 1)
    assert len(known) == 2
    # one clamped window at two boundaries: the square uu has a long half
    # at the first and a short one at the second
    for j in (18, 3):
        assert_memo_agrees(known, u + u, len(u) + j)


def random_square_free(rng, size):
    """A square-free ternary word of this many letters, letter by letter
    at random, starting again when no letter fits."""
    w = ""
    while len(w) < size:
        fits = [c for c in "012" if is_square_free(w + c)]
        w = w + rng.choice(fits) if fits else ""
    return w


def closing_case(rng, longest):
    """A prefix x, a block b of at most longest letters and a bound
    `before`.  x is an h18 factor of 5-300 letters, whose near-squares
    send many halves through str.rfind.  b is x's continuation with its
    last letter changed, which can close a long square, or a random
    square-free word; or x ends with v u v, |v| >= 9, after fewer than
    `before` letters, and b continues the first v, so x + b holds v u v u
    unless b's changed last letter falls in u."""
    kind = rng.randrange(3)
    before = rng.choice([1, 3, 10, 29, None])  # None: len(x)
    if kind == 2:
        # the earlier copies of x's last 9 letters whose gap b can fill
        end = rng.randrange(300, len(H18_WORD))
        z = H18_WORD[end - 9:end]
        repeats = []
        q = H18_WORD.rfind(z, end - 120, end - 10)
        while q >= 0:
            half, c = end - 9 - q, 9
            while H18_WORD[end - half - c - 1] == H18_WORD[end - c - 1]:
                c += 1
            if half - c <= longest:
                repeats.append((half, c))
            q = H18_WORD.rfind(z, end - 120, q + 8)
        if repeats:
            half, c = rng.choice(repeats)
            x = H18_WORD[end - half - c - rng.randrange(before or 29):end]
            b = H18_WORD[end - half:end - half + rng.randint(half - c, longest)]
        else:
            kind = 0
    if kind < 2:
        start = rng.randrange(2500)
        x = H18_WORD[start:start + rng.randint(5, 300)]
        size = rng.randint(1, longest)
        b = H18_WORD[start + len(x):start + len(x) + size] if kind == 0 else random_square_free(rng, size)
    if kind != 1 and rng.random() < 0.5:
        b = b[:-1] + rng.choice([c for c in "012" if c != b[-1]])
    return x, b, before or len(x)


def test_closing_prefixes_match_brute_force():
    # b starts with a closing prefix exactly when x + b has a square from
    # before `before` with len(x) in its right half.
    rng = random.Random(23)
    longest = 30
    squares = through_rfind = 0
    for _ in range(3000):
        x, b, before = closing_case(rng, longest)
        closing = _closing_prefixes(x, before, longest)
        assert all(len(r) <= longest for r in closing)
        halves = brute_closing_squares(x, b, before)
        assert b.startswith(closing) == bool(halves), (x, b, before)
        squares += bool(halves)
        through_rfind += bool(halves) and halves[0] <= len(x) - before - words._TAIL
    assert squares >= 500 and through_rfind >= 200


def opening_case(rng):
    """A prefix p and a block b.  Either p is an h18 factor and b its
    continuation or a random square-free word, or p + b holds the square
    x x of an h18 factor x with the boundary at offset j of its left half,
    1 <= j <= |x|, and p keeps 0-9 letters before x, so that p is often
    shorter than b; b is x[j:] x and a few more letters, kept only when it
    is square-free.  Half the cases then change one of b's letters or one
    of p's last three."""
    x_size = rng.randint(2, 16)
    i = rng.randrange(20, len(H18_WORD) - 60)
    x = H18_WORD[i:i + x_size]
    j = rng.randint(1, x_size)
    p = H18_WORD[i - rng.randrange(10):i + j]
    b = x[j:] + x + H18_WORD[i + x_size:i + x_size + rng.randrange(5)]
    if rng.randrange(3) == 0 or not is_square_free(b):
        start = rng.randrange(2500)
        p = H18_WORD[start:start + rng.randint(1, 60)]
        size = rng.randint(1, 30)
        b = (H18_WORD[start + len(p):start + len(p) + size] if rng.randrange(2)
             else random_square_free(rng, size))
    if rng.random() < 0.5:
        if rng.randrange(2):
            k = rng.randrange(len(b))
            b = b[:k] + rng.choice([c for c in "012" if c != b[k]]) + b[k + 1:]
        else:
            k = len(p) - 1 - rng.randrange(min(3, len(p)))
            p = p[:k] + rng.choice([c for c in "012" if c != p[k]]) + p[k + 1:]
    return p, b


def test_opening_suffixes_match_brute_force():
    # The opening suffixes of a block b, as the morphism walk lists them:
    # the closing prefixes of b reversed, with any start and up to |b|
    # letters, each reversed back.  p ends with one exactly when p + b has
    # a square with len(p) in its left half or at its middle.
    rng = random.Random(24)
    squares = short_prefixes = 0
    for _ in range(3000):
        p, b = opening_case(rng)
        opening = tuple(r[::-1] for r in _closing_prefixes(b[::-1], len(b), len(b)))
        assert all(len(r) <= len(b) for r in opening)
        halves = brute_opening_squares(p, b)
        assert p.endswith(opening) == bool(halves), (p, b)
        squares += bool(halves)
        short_prefixes += bool(halves) and len(p) < len(b)
    assert squares >= 1000 and short_prefixes >= 200


def test_letters_beyond_ascii():
    assert find_square("éaéa") == SquareOccurrence(0, 2)
    assert find_square("xéyéz") is None
    assert is_square_free("αβγβα")


@given(ternary, ternary)
def test_square_freeness_is_factor_closed(u, v):
    if is_square_free(u + v):
        assert is_square_free(u)
        assert is_square_free(v)


def test_known_ternary_counts():
    # 3 singles, 6 square-free pairs, then the classic sequence
    expected = {0: 1, 1: 3, 2: 6, 3: 12, 4: 18, 5: 30, 6: 42, 7: 60}
    for length, count in expected.items():
        assert count_square_free(3, length) == count


def test_enumeration_is_sorted_and_complete():
    words = list(enumerate_square_free(3, 4))
    assert words == sorted(words)
    assert len(words) == 18
    assert all(is_square_free(w) and len(w) == 4 for w in words)
    assert words[0] == "0102"


@pytest.mark.parametrize("k, start", [(k, start) for k in range(1, 5)
                                      for start in ("", "0", "01") if k > 1 or start != "01"])
def test_square_free_walk_matches_brute_force(k, start):
    # every square-free proper extension of start up to the limit, in
    # depth-first letter order, which is sorted order, each yielded
    # reversed; pruned words keep their place and lose exactly their
    # extensions
    letters = "0123"[:k]
    rng = random.Random(f"{k}/{start}")
    for limit in range(8):
        expected = sorted(start + "".join(t)
                          for n in range(1, limit - len(start) + 1)
                          for t in itertools.product(letters, repeat=n)
                          if is_square_free(start + "".join(t)))
        for share in (0, 0.2, 0.5):
            pruned = {w for w in expected if rng.random() < share}
            walk = words._square_free_words(letters, limit, start)
            seen = []
            for rev in itertools.islice(walk, len(expected) + 1):
                seen.append(rev)
                if rev[::-1] in pruned:
                    assert walk.send(True) is None
            assert seen == [w[::-1] for w in expected
                            if not any(w.startswith(p) and w != p for p in pruned)]


def test_binary_square_free_words_die_out():
    assert count_square_free(2, 3) == 2  # 010 and 101
    assert count_square_free(2, 4) == 0


@given(st.integers(min_value=0, max_value=9))
def test_count_matches_enumeration(length):
    assert count_square_free(3, length) == len(list(enumerate_square_free(3, length)))


@pytest.mark.parametrize("k", range(1, 6))
def test_count_matches_enumeration_over_alphabets(k):
    for length in range(10 if k <= 3 else 7):
        assert count_square_free(k, length) == len(list(enumerate_square_free(k, length)))


@pytest.mark.parametrize("k", range(1, 6))
def test_counts_at_every_depth_match_enumeration(k):
    expected = [len(list(enumerate_square_free(k, length))) for length in range(10)]
    for max_length in range(10):
        assert _square_free_counts(k, max_length) == expected[:max_length + 1]


def test_long_ternary_counts():
    # A006156 at 28 and 30
    assert count_square_free(3, 28) == 20220
    assert count_square_free(3, 30) == 34422


def test_negative_length_is_rejected():
    with pytest.raises(ValueError, match="length must be non-negative"):
        count_square_free(3, -1)
    with pytest.raises(ValueError, match="length must be non-negative"):
        list(enumerate_square_free(3, -1))


@pytest.mark.parametrize("k", [0, 11, -3])
def test_alphabet_size_out_of_range_is_rejected(k):
    message = "alphabet_size must be between 1 and 10"
    with pytest.raises(ValueError, match=message):
        count_square_free(k, 4)
    with pytest.raises(ValueError, match=message):
        list(enumerate_square_free(k, 4))
    with pytest.raises(ValueError, match=message):
        check_word("", k)


def test_parikh_counts_letters():
    assert parikh("0102", 3) == (2, 1, 1)
    assert parikh("", 3) == (0, 0, 0)
    assert parikh("33", 4) == (0, 0, 0, 2)


def test_lyndon_examples():
    assert is_lyndon("01202102")
    assert is_lyndon("0102120210201202")
    assert not is_lyndon("10")
    assert not is_lyndon("0101")
    assert is_lyndon("0")
    with pytest.raises(ValueError):
        is_lyndon("")


@given(ternary.filter(lambda w: len(w) >= 1))
def test_lyndon_means_least_rotation_strictly(w):
    rotations = {w[i:] + w[:i] for i in range(len(w))}
    expected = len(rotations) == len(w) and w == min(rotations)
    assert is_lyndon(w) == expected


@example(n=1)
@example(n=27)
@given(st.integers(min_value=0, max_value=40))
def test_lex_least_prefix_is_least(n):
    word = lex_least_square_free_prefix(3, n)
    assert len(word) == n
    assert is_square_free(word)
    first = next(iter(enumerate_square_free(3, n)), None)
    assert word == first if n else word == ""


def test_lex_least_prefix_opening():
    assert lex_least_square_free_prefix(3, 9) == "010201202"


@pytest.mark.parametrize("alphabet_size", [1, 2, 3, 4])
def test_lex_least_prefix_matches_first_enumerated_word(alphabet_size):
    for n in range(0, 301 if alphabet_size > 2 else 6):
        first = next(iter(enumerate_square_free(alphabet_size, n)), None)
        if first is None:
            with pytest.raises(ValueError, match="no square-free word"):
                lex_least_square_free_prefix(alphabet_size, n)
        else:
            assert lex_least_square_free_prefix(alphabet_size, n) == first


def test_lex_least_prefix_past_the_recursion_limit():
    word = lex_least_square_free_prefix(3, 2000)
    assert len(word) == 2000
    assert is_square_free(word)
    assert next(enumerate_square_free(3, 1500)) == lex_least_square_free_prefix(3, 1500)
