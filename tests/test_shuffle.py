"""Conducted shuffles: the interleaving engine and its inverses."""

import pytest
from hypothesis import assume, given, strategies as st

from shufflecraft.shuffle import (
    PeriodicConductingSequence,
    ShuffleWitness,
    check_beta,
    decompose_blocks,
    dual_word,
    expand_runs,
    find_conducting,
    lift_conducting,
    perfect_shuffle,
    shuffle_conducted,
    verify_witness,
)
from shufflecraft.morphisms import Morphism
from shufflecraft.words import is_square_free

words = st.text(alphabet="012", max_size=12)


@st.composite
def word_with_beta(draw, max_size=12):
    u = draw(st.text(alphabet="012", max_size=max_size))
    v = draw(st.text(alphabet="012", max_size=max_size))
    bits = draw(st.permutations(["0"] * len(u) + ["1"] * len(v)))
    return u, v, "".join(bits)


def test_check_beta():
    assert check_beta("0011") == "0011"
    assert check_beta("") == ""
    with pytest.raises(ValueError):
        check_beta("012")


def test_shuffle_interleaves_in_order():
    # 0 pulls from the first operand, 1 from the second
    assert shuffle_conducted("0102", "1201", "00101110") == "01102012"
    assert shuffle_conducted("ab", "cd", "0101") == "acbd"
    assert shuffle_conducted("", "", "") == ""


def test_shuffle_requires_matching_counts():
    with pytest.raises(ValueError):
        shuffle_conducted("01", "2", "011")
    with pytest.raises(ValueError):
        shuffle_conducted("01", "20", "0011x")


def test_expand_runs():
    assert expand_runs("0^3 1^2 0") == "000110"
    assert expand_runs("01") == "01"
    assert expand_runs("") == ""


def test_periodic_prefix():
    beta = PeriodicConductingSequence("0" * 6 + "1" + "0" * 11)
    assert beta.prefix(18) == "000000100000000000"
    assert beta.prefix(20) == "000000100000000000" + "00"
    assert PeriodicConductingSequence.parse("(01)^w").prefix(5) == "01010"
    assert beta.text() == "(000000100000000000)^w"


@given(word_with_beta())
def test_decompose_blocks_round_trip(case):
    u, v, beta = case
    w = shuffle_conducted(u, v, beta)
    blocks = decompose_blocks(u, v, beta)
    assert blocks.first_operand == u
    assert blocks.second_operand == v
    assert blocks.interleaved == w


@given(word_with_beta())
def test_find_conducting_round_trip(case):
    u, v, beta = case
    w = shuffle_conducted(u, v, beta)
    again = find_conducting(u, v, w)
    assert again is not None
    assert shuffle_conducted(u, v, again) == w


def test_find_conducting_is_least():
    # several conducting sequences exist; the DP prefers bit 0 at each tie
    assert find_conducting("012", "012", "010212") == "001011"
    assert find_conducting("01", "01", "0011") == "0101"
    assert find_conducting("01", "01", "0101") == "0011"
    # 0110 would need a copy to hold its first 0 back until the end
    assert find_conducting("01", "01", "0110") is None


def test_find_conducting_example_word():
    u = "012102010212"
    w = "011021012020101212"  # length mismatch: no conducting sequence
    assert find_conducting(u, u, w) is None


@given(words, st.data())
def test_concatenation_law(u, data):
    m = data.draw(st.integers(min_value=0, max_value=len(u)))
    beta1 = "".join(data.draw(st.permutations(["0"] * m + ["1"] * m))) if m else ""
    rest = len(u) - m
    beta2 = "".join(data.draw(st.permutations(["0"] * rest + ["1"] * rest))) if rest else ""
    left = shuffle_conducted(u, u, beta1 + beta2)
    right = shuffle_conducted(u[:m], u[:m], beta1) + shuffle_conducted(u[m:], u[m:], beta2)
    assert left == right


def test_lift_conducting_stretches_runs():
    double = Morphism(3, 3, ("00", "11", "22"))
    assert lift_conducting("0011", "01", double) == "00001111"
    uneven = Morphism(2, 2, ("0", "111"))
    lifted = lift_conducting("0101", "01", uneven)
    assert lifted == "01000111"


@given(st.text(alphabet="012", max_size=8), st.data())
def test_lift_commutes_with_images(u, data):
    from shufflecraft.morphisms import apply_morphism

    h = Morphism(3, 3, ("021", "10", "2012"))
    beta = "".join(data.draw(st.permutations(["0"] * len(u) + ["1"] * len(u))))
    w = shuffle_conducted(u, u, beta)
    lifted = lift_conducting(beta, u, h)
    assert shuffle_conducted(apply_morphism(h, u), apply_morphism(h, u), lifted) == apply_morphism(h, w)


def test_lift_conducting_validates_operand():
    h = Morphism(3, 3, ("0", "1", "2"))
    with pytest.raises(ValueError):
        lift_conducting("0011", "012", h)


def test_witness_verify():
    good = ShuffleWitness("012", "001011", "010212")
    assert good.verify()
    assert verify_witness(good)
    # square-free operand, right word, but the word has a square
    assert not ShuffleWitness("012", "000111", "012012").verify()
    # wrong interleaving
    assert not ShuffleWitness("012", "001011", "010221").verify()


def test_perfect_shuffle_and_dual():
    assert perfect_shuffle("01", "23") == "0213"
    assert dual_word("010301210") == "232123032"
    assert dual_word(dual_word("0123")) == "0123"


def test_dean_words_shuffle_square_free():
    for u in ("0", "01", "010", "0103", "010301210"):
        assert is_square_free(perfect_shuffle(u, dual_word(u)))


def _reference_shuffle(u, v, beta):
    # Letter by letter, straight from the definition.
    out, i, j = [], 0, 0
    for b in beta:
        if b == "0":
            out.append(u[i])
            i += 1
        else:
            out.append(v[j])
            j += 1
    return "".join(out)


def _reference_runs(beta):
    # Maximal runs of beta as (bit, length), one letter at a time.
    runs = []
    for b in beta:
        if runs and runs[-1][0] == b:
            runs[-1][1] += 1
        else:
            runs.append([b, 1])
    return runs


def _reference_blocks(u, v, beta):
    blocks, i, j = ([""] if beta.startswith("1") else []), 0, 0
    for b, length in _reference_runs(beta):
        if b == "0":
            blocks.append(u[i:i + length])
            i += length
        else:
            blocks.append(v[j:j + length])
            j += length
    return tuple(blocks + [""] * (len(blocks) % 2))


def _reference_lift(beta, u, h):
    lengths = [len(h.images[int(a)]) for a in u]
    out, taken = [], {"0": 0, "1": 0}
    for b, length in _reference_runs(beta):
        start = taken[b]
        taken[b] += length
        out.append(b * sum(lengths[start:start + length]))
    return "".join(out)


@given(word_with_beta(max_size=16))
def test_run_walker_matches_letter_by_letter_reference(case):
    u, v, beta = case
    assert shuffle_conducted(u, v, beta) == _reference_shuffle(u, v, beta)
    assert decompose_blocks(u, v, beta).blocks == _reference_blocks(u, v, beta)


@given(st.text(alphabet="012", max_size=10), st.data())
def test_lift_matches_reference_on_self_shuffles(u, data):
    h = Morphism(3, 3, ("021", "10", "2012"))
    beta = "".join(data.draw(st.permutations(["0"] * len(u) + ["1"] * len(u))))
    assert lift_conducting(beta, u, h) == _reference_lift(beta, u, h)


@given(st.text(alphabet="012", max_size=8), st.text(alphabet="012", max_size=8),
       st.text(alphabet="01x2", max_size=18))
def test_run_walker_rejects_bad_betas(u, v, beta):
    binary = set(beta) <= {"0", "1"}
    assume(not (binary and beta.count("0") == len(u) and beta.count("1") == len(v)))
    with pytest.raises(ValueError):
        shuffle_conducted(u, v, beta)
    with pytest.raises(ValueError):
        decompose_blocks(u, v, beta)
    if not (binary and beta.count("0") == beta.count("1") == len(u)):
        with pytest.raises(ValueError):
            lift_conducting(beta, u, Morphism(3, 3, ("0", "1", "2")))


def test_run_walker_messages():
    with pytest.raises(ValueError, match="binary, got letter 'x'"):
        shuffle_conducted("0", "1", "0x")
    with pytest.raises(ValueError, match="beta has 2 zeros but the first operand has 1 letters"):
        decompose_blocks("0", "1", "001")
    with pytest.raises(ValueError, match="beta has 1 ones but the second operand has 2 letters"):
        lift_conducting("001", "01", Morphism(3, 3, ("0", "1", "2")))
