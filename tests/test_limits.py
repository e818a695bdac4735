import pytest

from shufflecraft import catalog
from shufflecraft.limits import (
    PrefixVerdict,
    verify_abelian_periodicity,
    verify_lyndon_example,
    verify_theorem4,
    verify_theorem5,
)
from shufflecraft.morphisms import apply_morphism, fixed_point_prefix
from shufflecraft.words import parikh


def test_theorem4_single_block():
    verdict = verify_theorem4(96)
    assert verdict == PrefixVerdict("theorem4", 96, True)


def test_theorem4_deep_prefix():
    verdict = verify_theorem4(10_000)
    assert verdict.holds
    assert verdict.prefix_length == 9984  # whole 96-letter blocks only
    assert verdict.first_violation is None


def test_theorem4_block_zero_matches_stored_image():
    # the first carrier letter is 0 and alpha(0) = 1013, so the conducting
    # block is beta1 beta0 beta1 beta3
    from shufflecraft.shuffle import shuffle_conducted

    b = catalog.get_morphism("B")
    s = catalog.get_morphism("S")
    beta = "".join(catalog.get_beta(f"beta{j}") for j in "1013")
    assert shuffle_conducted(b.images[0], b.images[0], beta) == s.images[0]


def test_theorem4_below_one_block_is_vacuous():
    verdict = verify_theorem4(95)
    assert verdict.holds
    assert verdict.prefix_length == 0


def test_theorem5_one_period():
    assert verify_theorem5(18) == PrefixVerdict("theorem5", 18, True)


def test_theorem5_deep_prefix():
    verdict = verify_theorem5(10_000)
    assert verdict.holds
    assert verdict.prefix_length == 9990


def test_theorem5_marked_letters():
    h18 = catalog.get_morphism("h18")
    u = fixed_point_prefix(h18, 0, 18 * 40)
    assert all(u[18 * t + 6] == u[t] for t in range(40))
    # image of letter 0: the marked letter sits at index 6
    assert h18.images[0] == "012021" + "0" + "20102120210"


def test_theorem5_companion_is_marked_complement():
    h18 = catalog.get_morphism("h18")
    h17 = catalog.get_morphism("h17")
    for a in range(3):
        img = h18.images[a]
        assert h17.images[a] == img[:6] + img[7:]


def test_theorem5_companion_of_wrong_length_is_a_value_error(monkeypatch):
    from shufflecraft import limits

    monkeypatch.setattr(limits, "apply_morphism", lambda h, w: apply_morphism(h, w)[:-1])
    with pytest.raises(ValueError, match="zeros but the first operand"):
        verify_theorem5(18 * 5)


def test_abelian_blocks_of_48():
    verdict = verify_abelian_periodicity(48 * 50, 48)
    assert verdict.holds
    assert verdict.prefix_length == 2400


def test_abelian_common_parikh_is_flat():
    b = catalog.get_morphism("B")
    tau = catalog.get_morphism("tau")
    word = apply_morphism(b, fixed_point_prefix(tau, 0, 50))
    for t in range(50):
        assert parikh(word[48 * t : 48 * (t + 1)], 3) == (16, 16, 16)


def test_abelian_trivial_and_failing_periods():
    assert verify_abelian_periodicity(3, 3, word="012").holds
    verdict = verify_abelian_periodicity(3, 1, word="012")
    assert not verdict.holds
    assert "block 1" in verdict.first_violation


def test_abelian_rejects_zero_period():
    with pytest.raises(ValueError):
        verify_abelian_periodicity(100, 0)


def test_abelian_word_shorter_than_blocks():
    with pytest.raises(ValueError):
        verify_abelian_periodicity(10, 2, word="010")


def test_lyndon_example_holds():
    verdict = verify_lyndon_example()
    assert verdict.holds
    witness = catalog.get_witness("lyndon8")
    assert witness.w < witness.u


def test_violations_carry_detail():
    # equal blocks up to letter order pass; a changed count is reported
    verdict = verify_abelian_periodicity(4, 2, word="0110")
    assert verdict.holds
    verdict = verify_abelian_periodicity(4, 2, word="0122")
    assert not verdict.holds
    assert verdict.first_violation is not None
