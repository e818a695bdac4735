"""Backtracking searches: self-shuffles, the counting table, unshuffling."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from brute import brute_find_square
from shufflecraft import catalog
from shufflecraft.morphisms import fixed_point_prefix
from shufflecraft.search import (
    EnumerationRow,
    _self_shuffle_levels,
    distinct_self_shuffles,
    enumeration_row,
    enumeration_table,
    find_self_shuffle_betas,
    unshuffle_square_free,
)
from shufflecraft.shuffle import shuffle_conducted
from shufflecraft.words import count_square_free, enumerate_square_free, is_square_free, parikh


def test_single_triangle_word():
    found = find_self_shuffle_betas("012")
    assert found == [("001011", "010212"), ("110100", "010212")]


def test_results_are_witnesses():
    for beta, word in find_self_shuffle_betas("01021201"):
        assert shuffle_conducted("01021201", "01021201", beta) == word
        assert is_square_free(word)


def test_limit_cuts_off_in_beta_order():
    all_found = find_self_shuffle_betas("012")
    assert find_self_shuffle_betas("012", limit=1) == all_found[:1]


def test_square_operand_still_shuffles():
    # the operand itself need not be square-free
    found = dict(
        (beta, word) for beta, word in find_self_shuffle_betas("012012")
    )
    assert found["000001011111"] == "012010212012"
    assert found["001001101011"] == "010201210212"
    assert found["001010011011"] == "010210120212"


def test_no_self_shuffle_for_010():
    assert find_self_shuffle_betas("010") == []
    assert distinct_self_shuffles("010") == {}


def test_distinct_words_keep_least_beta():
    words = distinct_self_shuffles("012")
    assert words == {"010212": "001011"}


def test_distinct_words_for_a_rich_operand():
    words = distinct_self_shuffles("01021201")
    assert set(words) == {
        "0102120102012101",
        "0102120102101201",
        "0102101201021201",
    }
    for word, beta in words.items():
        assert shuffle_conducted("01021201", "01021201", beta) == word


def test_enumeration_row_counts():
    row = enumeration_row(8)
    assert (row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count) == (78, 12, 6)
    row = enumeration_row(4)
    assert (row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count) == (18, 0, 0)


def test_enumeration_rows_28_and_30():
    counts = {}
    for length in (28, 30):
        row = enumeration_row(length)
        counts[length] = (row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count)
    assert counts == {28: (20220, 1494, 294), 30: (34422, 2634, 390)}


def test_enumeration_rows_32_and_34():
    # past the paper's table; the square-free column is OEIS A006156
    counts = [(row.length, row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count)
              for row in enumeration_table(34)[-2:]]
    assert counts == [(32, 58446, 4296, 540), (34, 99276, 6654, 732)]


def test_enumeration_rows_36_and_38():
    # the rows as the walk that kept a forward copy of each word counted
    # them
    counts = [(row.length, row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count)
              for row in enumeration_table(38)[-2:]]
    assert counts == [(36, 168546, 12000, 1152), (38, 285750, 19218, 1452)]


def test_enumeration_table_matches_find_beta_oracle():
    # Each row rebuilt from find-beta's walk over every operand, which
    # shares only the square test with the table's walk, and from
    # count_square_free.
    oracle = []
    for length in range(4, 29, 2):
        shuffles = [distinct_self_shuffles(u) for u in enumerate_square_free(3, length // 2)
                    if u.startswith("01")]
        words = set().union(*shuffles)
        oracle.append(EnumerationRow(length, count_square_free(3, length), 6 * len(words),
                                     6 * sum(1 for found in shuffles if found)))
        assert enumeration_table(length) == oracle


@pytest.mark.parametrize("max_length", range(4, 22))
def test_enumeration_table_rows_are_enumeration_rows(max_length):
    rows = [enumeration_row(length) for length in range(4, max_length + 1, 2)]
    assert enumeration_table(max_length) == rows


def test_enumeration_row_rejects_bad_lengths():
    with pytest.raises(ValueError):
        enumeration_row(7)
    with pytest.raises(ValueError):
        enumeration_row(2)
    with pytest.raises(ValueError):
        enumeration_table(3)


def test_every_counted_shuffle_word_has_even_parikh():
    for u in enumerate_square_free(3, 6):
        if not u.startswith("01"):
            continue
        for word in distinct_self_shuffles(u):
            assert all(c % 2 == 0 for c in parikh(word, 3))


def test_unshuffle_round_trip_examples():
    assert unshuffle_square_free("010212") == ("012", "001011")
    assert unshuffle_square_free("01") is None  # odd per-copy length
    assert unshuffle_square_free("0102") is None


def test_unshuffle_rejects_odd_length():
    assert unshuffle_square_free("010") is None


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(enumerate_square_free(3, 6))))
def test_unshuffle_inverts_shuffle(u):
    for beta, word in find_self_shuffle_betas(u, limit=2):
        recovered = unshuffle_square_free(word)
        assert recovered is not None
        v, gamma = recovered
        assert shuffle_conducted(v, v, gamma) == word


# Brute-force references for the depth-first walkers, straight from the
# definitions: every conducting sequence, every square.


def balanced_betas(n):
    """Every binary word with n zeros and n ones, in ascending order."""
    betas = []
    for ones in combinations(range(2 * n), n):
        bits = ["0"] * (2 * n)
        for p in ones:
            bits[p] = "1"
        betas.append("".join(bits))
    return sorted(betas)


def copies(w, beta):
    """The letters of w taken at the 0s of beta, and at its 1s."""
    return ("".join(c for c, b in zip(w, beta) if b == "0"),
            "".join(c for c, b in zip(w, beta) if b == "1"))


def reference_betas(u):
    found = []
    for beta in balanced_betas(len(u)):
        word = shuffle_conducted(u, u, beta)
        if brute_find_square(word) is None:
            found.append((beta, word))
    return found


def reference_unshuffle(w):
    if len(w) % 2:
        return None
    for beta in balanced_betas(len(w) // 2):
        first, second = copies(w, beta)
        if first == second and brute_find_square(first) is None:
            return first, beta
    return None


LIMITS = (None, 0, 1, 2, 5)
# Operands where both copies stand level again after the first step, so the
# copy swap applies in the middle of the walk.
LEVEL_AGAIN = ["012012", "0102", "0101", "01210121", "0120"]


def check_walkers(u):
    expected = reference_betas(u)
    for limit in LIMITS:
        assert find_self_shuffle_betas(u, limit) == expected[:limit]
    assert {word for _, word in find_self_shuffle_betas(u)} == {word for _, word in expected}


@pytest.mark.parametrize("length", range(8))
def test_walkers_match_brute_force_on_square_free_operands(length):
    for u in enumerate_square_free(3, length):
        check_walkers(u)


def test_table_walk_matches_brute_force():
    # the operands the walk reads to length 7, and the words of each; the
    # walk yields both reversed
    found = {}
    for rev, level in _self_shuffle_levels(7):
        for r in level:
            assert len(rev) == 2 * len(r)
            found.setdefault(r[::-1], set()).add(rev[::-1])
    operands = [u for length in range(2, 8)
                for u in enumerate_square_free(3, length) if u.startswith("01")]
    assert set(found) <= set(operands)
    for u in operands:
        assert found.get(u, set()) == {word for _, word in reference_betas(u)}


@pytest.mark.parametrize("u", LEVEL_AGAIN)
def test_walkers_match_brute_force_where_copies_level_again(u):
    check_walkers(u)


@settings(deadline=None, max_examples=60)
@given(st.text(alphabet="0123", max_size=6))
def test_walkers_match_brute_force_on_words_with_squares(u):
    check_walkers(u)


@st.composite
def unshuffle_inputs(draw):
    """Even-length words up to 14 letters: self-shuffles of random
    operands, square-free or not, and words drawn at random."""
    n = draw(st.integers(0, 7))
    if draw(st.booleans()):
        return draw(st.text(alphabet="012", min_size=2 * n, max_size=2 * n))
    u = draw(st.text(alphabet="012", min_size=n, max_size=n))
    return shuffle_conducted(u, u, draw(st.sampled_from(balanced_betas(n))))


@settings(deadline=None, max_examples=150)
@given(unshuffle_inputs())
@example("010212")
@example("01020102")
@example("012012012012")
def test_unshuffle_matches_brute_force(w):
    assert unshuffle_square_free(w) == reference_unshuffle(w)


def test_walkers_answer_on_a_long_operand():
    # 1,200 letters: the walk backtracks over long reversed copies, which
    # each move cuts back to its state; the output is checked by the
    # byte-wise kernel, which shares no code with the walk's square test
    u = fixed_point_prefix(catalog.get_morphism("h18"), 0, 1200)
    [(beta, word)] = find_self_shuffle_betas(u, limit=1)
    assert shuffle_conducted(u, u, beta) == word
    assert is_square_free(word)
    v, gamma = unshuffle_square_free(word)
    assert shuffle_conducted(v, v, gamma) == word
