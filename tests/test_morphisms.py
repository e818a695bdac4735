import pytest
from hypothesis import given, settings, strategies as st

from shufflecraft import catalog
from shufflecraft.morphisms import (
    Certificate,
    Morphism,
    Substitution,
    apply_morphism,
    apply_substitution,
    certify_square_free_morphism,
    certify_square_free_substitution,
    check_substitution_properties,
    compose,
    crochemore_bound,
    fixed_point_prefix,
    morphism_text,
    parse_morphism,
    parse_substitution,
    search_uniform_square_free_morphism,
    substitute_with_choices,
    substitution_test_length,
    substitution_text,
)
from shufflecraft.words import SquareOccurrence, enumerate_square_free, is_square_free

HALL = Morphism(3, 3, ("012", "02", "1"))


def brute_find_square(w):
    """Leftmost square, shortest half at that start, straight from the definition."""
    for i in range(len(w)):
        for h in range(1, (len(w) - i) // 2 + 1):
            if w[i:i + h] == w[i + h:i + 2 * h]:
                return SquareOccurrence(i, h)
    return None


def reference_certify_morphism(h):
    """Every image of every square-free word up to the bound, shortest then lex."""
    bound = crochemore_bound(h)
    subject = morphism_text(h, sep=", ")
    checked = 0
    for length in range(1, bound + 1):
        for w in enumerate_square_free(h.src_size, length):
            checked += 1
            occ = brute_find_square(apply_morphism(h, w))
            if occ is not None:
                return Certificate(subject, "refuted", bound, checked, (w, occ))
    return Certificate(subject, "certified", bound, checked)


def reference_certify_substitution(s, length):
    """The product-order loop: every image of every square-free word of the length."""
    props_ok = all(check_substitution_properties(s))
    checked = 0
    for w in enumerate_square_free(s.src_size, length):
        checked += 1
        for image in apply_substitution(s, w):
            occ = brute_find_square(image)
            if occ is not None:
                return Certificate("substitution", "refuted", length, checked, (w, occ))
    verdict = "certified" if props_ok else "refuted"
    return Certificate("substitution", verdict, length, checked, None)


images = st.text(alphabet="012", min_size=1, max_size=5)
image_sets = st.lists(st.text(alphabet="012", min_size=2, max_size=6), min_size=1, max_size=2)


def test_apply_morphism():
    assert apply_morphism(HALL, "0") == "012"
    assert apply_morphism(HALL, "012") == "012021"
    assert apply_morphism(HALL, "") == ""
    with pytest.raises(ValueError):
        apply_morphism(HALL, "3")


def test_compose_applies_outer_after_inner():
    squared = compose(HALL, HALL)
    assert squared.images[0] == apply_morphism(HALL, "012")
    assert apply_morphism(squared, "01") == apply_morphism(HALL, apply_morphism(HALL, "01"))


def test_crochemore_bound_small():
    # uniform images of one letter: bound floor of 3
    assert crochemore_bound(Morphism(3, 3, ("0", "1", "2"))) == 3
    # M=18, m=18: max(3, ceil(15/18)+1) = 3
    assert crochemore_bound(Morphism(3, 3, ("0" * 18, "1" * 18, "2" * 18))) == 3
    # M=4, m=1: max(3, ceil(1/1)+1) = 3
    assert crochemore_bound(Morphism(2, 2, ("0101", "1"))) == 3


def test_identity_is_square_free_morphism():
    cert = certify_square_free_morphism(Morphism(3, 3, ("0", "1", "2")))
    assert cert.certified
    assert cert.counterexample is None


def test_hall_morphism_is_refuted():
    # tau preserves its fixed point but maps some square-free words onto squares
    cert = certify_square_free_morphism(HALL)
    assert not cert.certified
    word, occ = cert.counterexample
    img = apply_morphism(HALL, word)
    assert img[occ.start : occ.start + occ.half_length] == img[occ.start + occ.half_length : occ.start + 2 * occ.half_length]


def test_refutation_is_shortest_then_lex():
    cert = certify_square_free_morphism(HALL)
    word, _ = cert.counterexample
    assert word == "010"


def test_fixed_point_prefix():
    assert fixed_point_prefix(HALL, 0, 27) == "012021012102012021020121012"
    assert fixed_point_prefix(HALL, 0, 0) == ""
    assert fixed_point_prefix(HALL, 0, 1) == "0"
    # seed letter whose image does not start with itself
    with pytest.raises(ValueError):
        fixed_point_prefix(HALL, 1, 5)
    # erasing or short cycles cannot reach the length
    with pytest.raises(ValueError):
        fixed_point_prefix(Morphism(1, 1, ("0",)), 0, 2)


def test_fixed_point_is_square_free_for_hall():
    assert is_square_free(fixed_point_prefix(HALL, 0, 1000))


def test_morphism_text_round_trip():
    text = morphism_text(HALL)
    assert parse_morphism(text) == HALL
    assert "0 -> 012" in text


@given(st.lists(st.text(alphabet="012", min_size=1, max_size=5), min_size=1, max_size=4))
def test_parse_round_trip_random(images):
    h = Morphism(len(images), 3, tuple(images))
    assert parse_morphism(morphism_text(h)).images == h.images


def test_parse_morphism_rejects_gaps():
    with pytest.raises(ValueError):
        parse_morphism("0 -> 01\n2 -> 10")
    with pytest.raises(ValueError):
        parse_morphism("0 -> 01\n0 -> 10")


def test_substitution_application():
    s = Substitution(2, 3, (("0", "00"), ("1",)))
    assert sorted(apply_substitution(s, "01")) == ["001", "01"]
    assert substitute_with_choices(s, "00", [1, 0]) == "000"
    with pytest.raises(ValueError):
        substitute_with_choices(s, "00", [0])


def test_substitution_text_round_trip():
    s = Substitution(2, 3, (("0", "00"), ("1",)))
    parsed = parse_substitution(substitution_text(s))
    assert parsed.image_sets == s.image_sets
    assert parsed.dst_size == 2  # inferred from the letters actually used


def test_substitution_test_length_window():
    # image lengths 17 and 18 per letter: the window bound lands on 8
    images = tuple(
        ("0" * 17, "0" * 18) for _ in range(3)
    )
    s = Substitution(3, 3, images)
    assert substitution_test_length(s) == 8


def test_certify_substitution_small():
    # single-image substitution behaves like the identity morphism
    s = Substitution(3, 3, (("0",), ("1",), ("2",)))
    assert certify_square_free_substitution(s).certified
    bad = Substitution(3, 3, (("00",), ("1",), ("2",)))
    cert = certify_square_free_substitution(bad)
    assert not cert.certified


def test_check_substitution_properties_identity():
    s = Substitution(3, 3, (("0",), ("1",), ("2",)))
    assert check_substitution_properties(s) == (True, True, True)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2))
def test_search_trivial_uniform(k):
    result = search_uniform_square_free_morphism(3, 3, 1)
    assert result.status == "found"
    assert result.morphism.images == ("0", "1", "2")


def test_search_exhausts_impossible_length():
    # no square-free ternary morphism has uniform image length 2
    result = search_uniform_square_free_morphism(3, 3, 2)
    assert result.status == "exhausted"
    assert result.morphism is None


def test_search_finds_eleven_uniform():
    result = search_uniform_square_free_morphism(3, 3, 11)
    assert result.status == "found"
    assert certify_square_free_morphism(result.morphism).certified


@settings(deadline=None, max_examples=150)
@given(st.lists(images, min_size=2, max_size=3))
def test_morphism_certificate_matches_exhaustive_check(imgs):
    h = Morphism(len(imgs), 3, tuple(imgs))
    assert certify_square_free_morphism(h) == reference_certify_morphism(h)


@settings(deadline=None, max_examples=150)
@given(st.lists(image_sets, min_size=3, max_size=3), st.integers(3, 4))
def test_substitution_certificate_matches_product_order(sets, length):
    s = Substitution(3, 3, tuple(tuple(images) for images in sets))
    assert certify_square_free_substitution(s, length) == reference_certify_substitution(s, length)


@st.composite
def stretch_variants(draw):
    """The stretch substitution with some images dropped or changed in one
    letter: certified often enough, and refuted deep in the choice order."""
    sets = []
    for images in catalog.get_substitution("stretch").image_sets:
        kept = list(draw(st.sampled_from([images, images[:1], images[1:]])))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(kept) - 1))
            pos = draw(st.integers(0, len(kept[i]) - 1))
            kept[i] = kept[i][:pos] + draw(st.sampled_from("012")) + kept[i][pos + 1:]
        sets.append(tuple(kept))
    return Substitution(3, 3, tuple(sets))


@settings(deadline=None, max_examples=40)
@given(stretch_variants(), st.integers(3, 4))
def test_stretch_variant_certificate_matches_product_order(s, length):
    assert certify_square_free_substitution(s, length) == reference_certify_substitution(s, length)
