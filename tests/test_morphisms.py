import ast
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brute import brute_find_square
from shufflecraft import catalog, morphisms, search, shuffle, words
from shufflecraft.morphisms import (
    Certificate,
    Morphism,
    SearchResult,
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
from shufflecraft.words import (
    DIGITS,
    SquareOccurrence,
    enumerate_square_free,
    find_square,
    is_square_free,
    lex_least_square_free_prefix,
)

HALL = Morphism(3, 3, ("012", "02", "1"))


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


def reference_search(src_k, dst_k, image_length, budget=10 ** 6):
    """The backtracking search with every test word of lengths 1-3 checked whole."""
    candidates = list(enumerate_square_free(dst_k, image_length))
    if not candidates:
        return SearchResult(None, "exhausted")
    test_words = [[w for length in (1, 2, 3)
                   for w in enumerate_square_free(j + 1, length) if DIGITS[j] in w]
                  for j in range(src_k)]
    images = []
    spent = 0

    def extend():
        nonlocal spent
        if len(images) == src_k:
            return "done"
        for cand in candidates:
            if budget is not None and spent >= budget:
                return "budget"
            spent += 1
            images.append(cand)
            if all(is_square_free("".join(images[int(a)] for a in w))
                   for w in test_words[len(images) - 1]):
                outcome = extend()
                if outcome is not None:
                    return outcome
            images.pop()
        return None

    outcome = extend()
    if outcome == "done":
        return SearchResult(Morphism(src_k, dst_k, tuple(images)), "found")
    return SearchResult(None, outcome or "exhausted")


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


@pytest.mark.parametrize("parse", [parse_morphism, parse_substitution])
def test_parsers_reject_text_without_images(parse):
    with pytest.raises(ValueError, match="no letter images"):
        parse(" \n\n")


@pytest.mark.parametrize("parse, text, message", [
    (parse_morphism, "x -> 01", "line 1: bad source letter 'x'"),
    (parse_morphism, "0 -> 01\n\n1 -> 12x", "line 3: bad image '12x'"),
    (parse_morphism, "0 -> {01, }", "line 1: bad image '{01, }'"),
    (parse_morphism, " -> 01", "line 1: bad source letter ''"),
    (parse_morphism, "0 01", "line 1: bad source letter '0 01'"),
    (parse_morphism, "0 -> 1\n1 ->", "line 2: bad image ''"),
    (parse_substitution, "0 -> {0}\n1x -> {1}", "line 2: bad source letter '1x'"),
    (parse_substitution, "0 -> {01, 2y}", "line 1: bad image '2y'"),
    (parse_substitution, "0 -> {01, }", "line 1: bad image ''"),
    (parse_substitution, "0 -> {0}\n1 -> 01", "line 2: expected '{...}' image set, got '01'"),
])
def test_parsers_name_the_bad_line(parse, text, message):
    with pytest.raises(ValueError) as raised:
        parse(text)
    assert str(raised.value) == message


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
    # a source word deeper than the default call stack: the first image
    # that fails doubles the last 2 of the least square-free word
    bad = Substitution(3, 3, (("0",), ("1",), ("2", "22")))
    cert = certify_square_free_substitution(bad, test_word_length=1200)
    w, occ = cert.counterexample
    assert (cert.verdict, cert.checked_count) == ("refuted", 1)
    assert w == lex_least_square_free_prefix(3, 1200)
    last = w.rindex("2")
    image = w[:last] + "22" + w[last + 1:]
    square = image[occ.start:occ.start + 2 * occ.half_length]
    assert square[:occ.half_length] == square[occ.half_length:] and len(square) == 2 * occ.half_length
    assert occ == find_square(image)


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


@settings(deadline=None, max_examples=100)
@given(st.lists(images, min_size=4, max_size=4))
def test_four_letter_morphism_certificate_matches_exhaustive_check(imgs):
    h = Morphism(4, 3, tuple(imgs))
    assert certify_square_free_morphism(h) == reference_certify_morphism(h)


def test_failing_letter_beats_longer_failures():
    # "010" fails at length 3 and comes before "3" in depth-first order,
    # but the image of the letter "3" is a square by itself.
    h = Morphism(4, 3, ("012", "02", "1", "00"))
    cert = certify_square_free_morphism(h)
    assert cert == reference_certify_morphism(h)
    assert cert.counterexample == ("3", (0, 1))
    assert cert.checked_count == 4


def test_deeper_failure_found_first_gives_way_to_shorter_one():
    # The walk meets the length-3 failure "021" under "0" before it reaches
    # "12"; the 3 letters and "01", "02", "10" come before "12".
    h = Morphism(3, 3, ("2", "1", "12"))
    cert = certify_square_free_morphism(h)
    assert cert == reference_certify_morphism(h)
    assert cert.counterexample == ("12", (0, 1))
    assert cert.checked_count == 7


def test_first_failing_letter_ends_the_walk():
    # "1" fails too, but "0" comes first at length 1.
    h = Morphism(3, 3, ("122220", "0200", "1"))
    cert = certify_square_free_morphism(h)
    assert cert == reference_certify_morphism(h)
    assert cert.counterexample == ("0", (1, 1))
    assert cert.checked_count == 1


def test_square_holding_the_last_boundary_in_its_left_half():
    # h(012) = 0.1.2012 is the square 012012, whose left half holds the
    # last block boundary: the prefix image 01 has first block + M - 3
    # letters, M = 4, so the node 012 also reads the opening suffixes of
    # its block 2012, and 01 ends with one of them, 01 itself.
    h = Morphism(3, 3, ("0", "1", "2012"))
    cert = certify_square_free_morphism(h)
    assert cert == reference_certify_morphism(h)
    assert cert.counterexample == ("012", (0, 3))


@pytest.mark.parametrize("extra", range(2, 8))
def test_two_letter_refutation_needs_no_walk(monkeypatch, extra):
    # sigma_17 with a prefix of its image of 2 appended to its image of 1
    # fails at "10" or "12", late in depth-first order under "0"; the
    # two-letter pass finds it, and the walk only counts the letters
    images = list(catalog.get_morphism("sigma_17").images)
    images[1] += images[2][:extra]
    h = Morphism(3, 3, tuple(images))
    events = []
    square_free_words = morphisms._square_free_words
    monkeypatch.setattr(morphisms, "_square_free_words", lambda letters, limit:
                        events.append(("walk", limit)) or square_free_words(letters, limit))
    tables = []
    for name in ("_closing_prefixes", "_opening_suffixes"):
        listing = getattr(morphisms, name)
        monkeypatch.setattr(morphisms, name, lambda x, *rest, name=name, listing=listing:
                            tables.append((name, x)) or listing(x, *rest))
    cert = certify_square_free_morphism(h)
    # The pair pass refutes by the closing prefixes and opening suffixes
    # listed once per letter image, and the walk stops at one letter.
    assert events == [("walk", 1)]
    assert tables == [(name, img) for name in ("_closing_prefixes", "_opening_suffixes")
                      for img in images]
    assert cert == reference_certify_morphism(h)
    assert cert.counterexample[0] in ("10", "12")


def endswith_reads(f, *args):
    """f(*args) and the strings that called str.endswith in f's own frame,
    seen as c_call events of a profile function."""
    read = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is f.__code__ and arg.__name__ == "endswith":
            read.append(arg.__self__)

    sys.setprofile(profile)
    try:
        result = f(*args)
    finally:
        sys.setprofile(None)
    return result, read


def test_deep_nodes_test_only_their_closing_prefixes(monkeypatch):
    # Certifying sigma_17 lists the closing prefixes of each letter image
    # as a first block, then those of each image reversed, its opening
    # suffixes.  Every walk node from depth 3 on reads its parent's closing
    # prefixes, computed once per parent that has a child.  The opening
    # suffixes are read by the 6 two-letter words and by the shallow nodes
    # only, 101, 102, 201 and 202, whose prefix images are shorter than
    # first block + 29 - 2 letters.
    h = catalog.get_morphism("sigma_17")
    shallow = [w for length in (3, 4) for w in enumerate_square_free(3, length)
               if len(apply_morphism(h, w[:-1])) < len(h.images[int(w[0])]) + 29 - 2]
    assert shallow == ["101", "102", "201", "202"]
    closing = []
    closing_prefixes = morphisms._closing_prefixes
    recording = lambda *args: closing.append(args[0]) or closing_prefixes(*args)
    # the opening suffixes are listed through words, and so is every other
    # boundary test: these are all of them
    monkeypatch.setattr(morphisms, "_closing_prefixes", recording)
    monkeypatch.setattr(words, "_closing_prefixes", recording)
    cert, read = endswith_reads(certify_square_free_morphism, h)
    assert cert == Certificate(cert.subject, "certified", 27, 66189)
    assert closing[:6] == list(h.images) + [img[::-1] for img in h.images]
    # each pair ab reads the first block h(a)
    assert read == [h.images[a] for a in (0, 0, 1, 1, 2, 2)] + [apply_morphism(h, w[:-1]) for w in shallow]
    # the images of distinct source words differ, as no image of sigma_17
    # is a prefix of another; the parents 10 and 20 of the shallow nodes
    # are among them
    walk = closing[6:]
    assert len(walk) == len(set(walk)) == 48912
    assert {apply_morphism(h, w) for w in ("10", "20")} <= set(walk)


# (verdict, bound_used, checked_count, counterexample) of every catalog
# morphism, as the length-by-length enumeration gave them.
CATALOG_CERTIFICATES = {
    "tau": ("refuted", 3, 10, ("010", (2, 2))),
    "rho": ("refuted", 3, 9, ("12", (8, 6))),
    "alpha": ("certified", 3, 21, None),
    "sigma": ("refuted", 3, 9, ("12", (20, 6))),
    "B": ("certified", 3, 21, None),
    "S": ("certified", 3, 21, None),
    "h19": ("certified", 3, 105, None),
    "h23": ("certified", 3, 105, None),
    "h24": ("certified", 3, 105, None),
    "h18": ("certified", 3, 21, None),
    "h17": ("certified", 3, 21, None),
    "u11": ("certified", 3, 21, None),
    "u12": ("certified", 3, 21, None),
    "u13": ("certified", 3, 21, None),
    "u18": ("certified", 3, 105, None),
    "u22": ("certified", 3, 105, None),
    "sigma_1": ("certified", 3, 21, None),
    "sigma_2": ("certified", 3, 21, None),
    "sigma_3": ("certified", 3, 21, None),
    "sigma_4": ("certified", 3, 21, None),
    "sigma_5": ("certified", 3, 21, None),
    "sigma_6": ("certified", 3, 21, None),
    "sigma_7": ("certified", 3, 21, None),
    "sigma_8": ("certified", 3, 21, None),
    "sigma_9": ("certified", 4, 39, None),
    "sigma_10": ("certified", 4, 39, None),
    "sigma_11": ("certified", 16, 3183, None),
    "sigma_12": ("certified", 16, 3183, None),
    "sigma_13": ("certified", 3, 21, None),
    "sigma_14": ("certified", 3, 21, None),
    "sigma_15": ("certified", 5, 69, None),
    "sigma_16": ("certified", 3, 21, None),
    "sigma_17": ("certified", 27, 66189, None),
}


def call_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_catalog_certificates_are_frozen():
    names = {name for name in catalog.entry_names()
             if catalog.get_entry(name).kind == "morphism"}
    assert names == set(CATALOG_CERTIFICATES)
    maps = {name: catalog.get_morphism(name) for name in CATALOG_CERTIFICATES}
    # 15 frames to spare: a walk that took a frame per source letter would
    # overflow on sigma_17, whose bound is 27
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(call_depth() + 15)
    try:
        certs = {name: certify_square_free_morphism(h, subject=name) for name, h in maps.items()}
    finally:
        sys.setrecursionlimit(limit)
    for name, expected in CATALOG_CERTIFICATES.items():
        cert = certs[name]
        assert cert.subject == name
        assert (cert.verdict, cert.bound_used, cert.checked_count, cert.counterexample) == expected


# One-letter mutants of the catalog maps with the longest bounds, keyed
# (name, letter, i, j, text): the image of the letter has its letters
# [i, j) replaced by text, which substitutes, deletes or inserts one
# letter.  These are the mutants that reach the walk, certified or
# refuted at three letters, with the certificates the length-by-length
# enumeration gave them; every other mutant is refuted at one or two
# letters, before the walk.
MUTANT_CERTIFICATES = {
    ("sigma_10", 2, 8, 8, "2"): ("certified", 4, 39, None),
    ("sigma_11", 1, 14, 15, ""): ("refuted", 15, 14, ("101", (8, 7))),
    ("sigma_11", 1, 9, 9, "0"): ("certified", 17, 4227, None),
    ("sigma_11", 2, 3, 3, "0"): ("refuted", 16, 17, ("121", (12, 12))),
    ("sigma_12", 1, 3, 4, ""): ("refuted", 16, 21, ("212", (12, 11))),
    ("sigma_12", 2, 3, 3, "0"): ("refuted", 17, 21, ("212", (13, 12))),
    ("sigma_12", 2, 6, 6, "1"): ("certified", 17, 4227, None),
    ("sigma_12", 2, 9, 9, "1"): ("refuted", 17, 15, ("102", (4, 12))),
    ("sigma_15", 1, 5, 5, "2"): ("refuted", 5, 14, ("101", (4, 11))),
    ("sigma_15", 1, 8, 8, "2"): ("certified", 5, 69, None),
    ("sigma_15", 1, 11, 11, "1"): ("certified", 5, 69, None),
    ("sigma_15", 1, 14, 14, "1"): ("refuted", 5, 14, ("101", (17, 11))),
    ("sigma_17", 0, 1, 1, "2"): ("refuted", 14, 14, ("101", (19, 6))),
    ("sigma_17", 1, 9, 9, "2"): ("certified", 27, 66189, None),
    ("sigma_17", 2, 14, 14, "0"): ("refuted", 28, 15, ("102", (25, 11))),
    ("sigma_17", 2, 20, 20, "1"): ("refuted", 28, 18, ("201", (16, 8))),
}


def one_letter_mutants(name):
    """(key, map) for each distinct one-letter mutant of a catalog map,
    keyed as in MUTANT_CERTIFICATES: per image and position, the other
    letters there, then its deletion; then each insertion."""
    h = catalog.get_morphism(name)
    seen = {h.images}
    for a, img in enumerate(h.images):
        edits = [(i, i + 1, t) for i in range(len(img))
                 for t in [c for c in "012" if c != img[i]] + [""]]
        edits += [(i, i, c) for i in range(len(img) + 1) for c in "012"]
        for i, j, text in edits:
            images = h.images[:a] + (img[:i] + text + img[j:],) + h.images[a + 1:]
            if images[a] and images not in seen:
                seen.add(images)
                yield (name, a, i, j, text), Morphism(3, 3, images)


def test_mutant_certificates_are_frozen():
    mutants = [m for name in ("sigma_9", "sigma_10", "sigma_11", "sigma_12", "sigma_15",
                              "sigma_17") for m in one_letter_mutants(name)]
    assert len(mutants) == 1091
    walked = set()
    for key, h in mutants:
        cert = certify_square_free_morphism(h)
        got = (cert.verdict, cert.bound_used, cert.checked_count, cert.counterexample)
        if key in MUTANT_CERTIFICATES:
            walked.add(key)
            assert got == MUTANT_CERTIFICATES[key], key
        else:
            assert len(cert.counterexample[0]) <= 2 and cert == reference_certify_morphism(h), key
    assert walked == set(MUTANT_CERTIFICATES)


# Images over ten letters with no letter twice in one image: about half of
# such maps certify, enough for the filter below.
wide_images = st.lists(st.sampled_from(DIGITS), min_size=1, max_size=5, unique=True).map("".join)


@settings(deadline=None, max_examples=60)
@given(st.lists(wide_images, min_size=3, max_size=3))
def test_certified_morphism_holds_past_the_bound(imgs):
    h = Morphism(3, 10, tuple(imgs))
    cert = certify_square_free_morphism(h)
    assume(cert.certified)
    for length in (cert.bound_used + 1, cert.bound_used + 2):
        for w in enumerate_square_free(3, length):
            assert brute_find_square(apply_morphism(h, w)) is None, w


@pytest.mark.parametrize("image_length", range(1, 11))
def test_search_matches_whole_word_placement(image_length):
    expected = reference_search(3, 3, image_length)
    assert search_uniform_square_free_morphism(3, 3, image_length) == expected


@pytest.mark.parametrize("src_k, image_length, budget", [
    (3, 11, 50), (3, 12, 200), (3, 13, 1000), (3, 13, 20000), (5, 18, 3000)])
def test_search_matches_whole_word_placement_under_budget(src_k, image_length, budget):
    expected = reference_search(src_k, 3, image_length, budget)
    assert expected.status == "budget"
    assert search_uniform_square_free_morphism(src_k, 3, image_length, budget) == expected


@pytest.mark.parametrize("src_k, image_length", [(3, 11), (3, 12), (3, 13), (5, 18)])
def test_search_matches_whole_word_placement_long_images(src_k, image_length):
    expected = reference_search(src_k, 3, image_length)
    assert expected.status == "found"
    assert search_uniform_square_free_morphism(src_k, 3, image_length) == expected
    # the catalog stores the search's map for construct to read
    assert catalog.get_morphism(f"u{image_length}") == expected.morphism


@pytest.mark.parametrize("src_k, dst_k, image_length", [(3, 4, 4), (3, 4, 5), (3, 4, 6), (4, 4, 3)])
def test_search_over_four_letters_matches_whole_word_placement(src_k, dst_k, image_length):
    # Each of these searches meets a triple word whose squares all start
    # at the last letter of its first image.
    expected = reference_search(src_k, dst_k, image_length)
    assert search_uniform_square_free_morphism(src_k, dst_k, image_length) == expected


def test_search_finds_the_longest_catalog_map():
    assert search_uniform_square_free_morphism(5, 3, 22).morphism == catalog.get_morphism("u22")


@pytest.mark.parametrize("args, name", [
    ((3, 3, 0), "image_length"), ((0, 3, 5), "src_k"), ((11, 3, 5), "src_k"),
    ((3, 0, 5), "dst_k"), ((3, 11, 5), "dst_k")])
def test_search_rejects_bad_arguments_up_front(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        search_uniform_square_free_morphism(*args)


def test_pair_tables_match_brute_force():
    # x + y has a square exactly when the search's pair test says so, for
    # every ordered pair of ternary square-free words of 5-9 letters and
    # 3,000 random pairs each of 13, 18 and 22 letters.  Some squares only
    # the opening suffixes of y catch, and some pairs are square-free.
    rng = random.Random(25)
    total = squares = opening_only = 0
    for length in (5, 6, 7, 8, 9, 13, 18, 22):
        candidates = list(enumerate_square_free(3, length))
        if length < 10:
            pairs = list(itertools.product(candidates, repeat=2))
        else:
            pairs = [(rng.choice(candidates), rng.choice(candidates)) for _ in range(3000)]
        strings = {}
        tables = {x: morphisms._boundary_tables(x, strings) for pair in pairs for x in pair}
        total += len(pairs)
        for x, y in pairs:
            square = morphisms._pair_square(x, y, tables[x], tables[y])
            assert square == (brute_find_square(x + y) is not None), (x, y)
            squares += square
            opening_only += square and not y.startswith(tables[x][0])
    assert squares >= 25000 and opening_only >= 2500 and total - squares >= 3000


# The least budget at which each search comes back found, and the number
# of placements each exhausting search makes, found by bisection with
# reference_search.  Outcomes are monotone in the budget, so agreeing one
# below the count and at it pins the count.
BUDGET_PINS = [(3, 11, "found", 1337), (3, 12, "found", 819), (3, 13, "found", 55892),
               (5, 18, "found", 64106), (3, 8, "exhausted", 9906),
               (3, 9, "exhausted", 38988), (3, 10, "exhausted", 64080)]


@pytest.mark.parametrize("src_k, image_length, status, count", BUDGET_PINS)
def test_search_spends_what_whole_word_placement_spends(src_k, image_length, status, count):
    for budget, expected in ((count - 1, "budget"), (count, status)):
        result = reference_search(src_k, 3, image_length, budget)
        assert result.status == expected
        assert search_uniform_square_free_morphism(src_k, 3, image_length, budget) == result


def test_uniform_ternary_maps_of_14_to_17_letters():
    # No square-free ternary map is 14- or 15-uniform.  The first 16-uniform
    # map found is pinned, and the first 17-uniform one is the catalog's h17.
    for image_length in (14, 15):
        assert search_uniform_square_free_morphism(3, 3, image_length, None).status == "exhausted"
    assert search_uniform_square_free_morphism(3, 3, 16).morphism.images == (
        "0102012101202102", "0102120210120212", "0121021201021012")
    assert search_uniform_square_free_morphism(3, 3, 17).morphism == catalog.get_morphism("h17")


def test_no_function_calls_itself():
    # The walks, the shuffle engine and the search keep their paths on
    # explicit stacks, so input size never meets the recursion limit.
    for module in (words, search, shuffle, morphisms):
        tree = ast.parse(Path(module.__file__).read_text())
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {node.func.id for node in ast.walk(function)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
                assert function.name not in called, f"{module.__name__}.{function.name}"


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


def test_square_holding_the_boundary_in_its_left_half():
    # The image 012012 of 01 under 0 -> 0, 1 -> 12012 is a square whose left
    # half holds the boundary, so only the opening suffixes of 12012 see it.
    s = Substitution(2, 3, (("0",), ("12012",)))
    cert = certify_square_free_substitution(s, 2)
    assert cert == reference_certify_substitution(s, 2)
    assert cert.counterexample == ("01", SquareOccurrence(0, 3))


def failing_blocks(s, w):
    """The blocks of the first image of w with a square, in product order,
    up to the first block that closes a square."""
    for blocks in itertools.product(*(s.image_sets[int(a)] for a in w)):
        for depth in range(1, len(w) + 1):
            if brute_find_square("".join(blocks[:depth])):
                return blocks[:depth]
    return None


def test_long_sweeps_match_product_order():
    # Source words of 5 and 6 letters, so that nodes from the third block
    # on list closing prefixes for squares starting before their last two
    # blocks: stretch with images dropped or changed in one letter, and
    # images u18(v) of square-free words v of 1-2 letters out of five, whose
    # squares have halves of whole images.  The floors count certificates
    # and refutations by a square that starts before the last two blocks
    # of the node whose block closes it.
    rng = random.Random(26)
    u18 = catalog.get_morphism("u18")
    certified = early_starts = 0
    for case in range(100):
        if case % 2:
            sets = []
            for images in catalog.get_substitution("stretch").image_sets:
                kept = list(rng.choice([images, images[:1], images[1:]]))
                if rng.random() < 0.5:
                    i = rng.randrange(len(kept))
                    pos = rng.randrange(len(kept[i]))
                    kept[i] = kept[i][:pos] + rng.choice("012") + kept[i][pos + 1:]
                sets.append(tuple(kept))
            s = Substitution(3, 3, tuple(sets))
        else:
            sets = []
            for _ in range(rng.choice((3, 4))):
                images = []
                for _ in range(rng.randint(1, 2)):
                    v = rng.choice("01234")
                    if rng.randrange(2):
                        v += rng.choice("01234".replace(v[-1], ""))
                    images.append(apply_morphism(u18, v))
                sets.append(tuple(images))
            s = Substitution(len(sets), 3, tuple(sets))
        length = rng.choice((5, 6))
        cert = certify_square_free_substitution(s, length)
        assert cert == reference_certify_substitution(s, length), s
        certified += cert.certified
        if cert.counterexample is not None:
            blocks = failing_blocks(s, cert.counterexample[0])
            early_starts += brute_find_square("".join(blocks)).start < len("".join(blocks[:-3]))
    assert certified >= 15 and early_starts >= 8


ROTATE = str.maketrans("012", "120")


def rotated_sets(images):
    """Image sets of letters 0, 1, 2 that commute with the rotation c -> c + 1 (mod 3)."""
    sets = [tuple(images)]
    for _ in range(2):
        sets.append(tuple(img.translate(ROTATE) for img in sets[-1]))
    return tuple(sets)


@st.composite
def rotation_invariant_stretch_variants(draw):
    """stretch with one letter of one image of letter 0 changed, and the
    same change rotated into the images of letters 1 and 2."""
    images = list(catalog.get_substitution("stretch").image_sets[0])
    i = draw(st.integers(0, len(images) - 1))
    pos = draw(st.integers(0, len(images[i]) - 1))
    images[i] = images[i][:pos] + draw(st.sampled_from("012")) + images[i][pos + 1:]
    return Substitution(3, 3, rotated_sets(images))


def count_sweeps(monkeypatch):
    """Record the source words the substitution sweep tests."""
    swept = []
    first_failing = morphisms._first_failing_choices

    def counting(s, w, *rest):
        swept.append(w)
        return first_failing(s, w, *rest)

    monkeypatch.setattr(morphisms, "_first_failing_choices", counting)
    return swept


@settings(deadline=None, max_examples=60)
@given(rotation_invariant_stretch_variants(), st.integers(3, 4))
@example(Substitution(3, 3, catalog.get_substitution("stretch").image_sets), 4)
@example(Substitution(3, 3, rotated_sets(("01202120102120210", "012021020102120010"))), 4)
@example(Substitution(3, 3, rotated_sets(("01210",))), 4)  # refuted at the fourth word, 0201
def test_rotation_invariant_certificate_matches_product_order(s, length):
    assert morphisms._rotation_classes(s) == 3
    assert certify_square_free_substitution(s, length) == reference_certify_substitution(s, length)


def test_rotation_sweeps_only_words_starting_with_0(monkeypatch):
    swept = count_sweeps(monkeypatch)
    cert = certify_square_free_substitution(catalog.get_substitution("stretch"))
    assert cert.certified and cert.checked_count == 78
    assert len(swept) == 26 and all(w[0] == "0" for w in swept)


def test_sweep_without_rotation_covers_every_word(monkeypatch):
    # image order is part of the rotation: swapping one pair breaks it
    sets = list(catalog.get_substitution("stretch").image_sets)
    sets[1] = sets[1][::-1]
    s = Substitution(3, 3, tuple(sets))
    assert morphisms._rotation_classes(s) == 1
    swept = count_sweeps(monkeypatch)
    cert = certify_square_free_substitution(s)
    assert cert.certified and cert.checked_count == 78
    assert swept == list(enumerate_square_free(3, 8))


def test_rotation_needs_one_alphabet(monkeypatch):
    # the stretch images over a declared four-letter target
    s = Substitution(3, 4, catalog.get_substitution("stretch").image_sets)
    assert morphisms._rotation_classes(s) == 1
    swept = count_sweeps(monkeypatch)
    assert certify_square_free_substitution(s, 4) == reference_certify_substitution(s, 4)
    assert len(swept) == 18


@pytest.mark.parametrize("images", [("0",), ("00",), ("0", "00")])
@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_one_letter_substitution_matches_product_order(images, length):
    s = Substitution(1, 1, (images,))
    assert certify_square_free_substitution(s, length) == reference_certify_substitution(s, length)


def test_refutation_through_a_window_of_an_earlier_word(monkeypatch):
    # Images u18(3), u18(40), u18(1201), u18(2): the first failing image of
    # the sweep is that of 123, u18(4012012), whose only square has half 54
    # (that of u18(012012), moved left), above 18 + _TAIL.  The earlier
    # word 023 ends with the same window of the last boundary and has no
    # square.  The square of 123 starts in the last two blocks of its node
    # 12, so the closing prefixes of those two blocks, listed once, catch
    # it.  Over the letters u18(3), u18(4), u18(0), u18(1201), u18(2), the
    # first failing word of length 4 is 0234, u18(3012012), with the same
    # square.  It starts in the first block, before the last two blocks of
    # the node 023, and the closing prefixes that node lists for starts
    # before those blocks catch it.
    listed = {}
    closing_prefixes = morphisms._closing_prefixes

    def recording(x, before, longest):
        listed[x, before] = closing_prefixes(x, before, longest)
        return listed[x, before]

    monkeypatch.setattr(morphisms, "_closing_prefixes", recording)
    u18 = catalog.get_morphism("u18")
    s = Substitution(4, 3, tuple((apply_morphism(u18, v),) for v in ("3", "40", "1201", "2")))
    cert = certify_square_free_substitution(s, 3)
    assert cert == reference_certify_substitution(s, 3)
    assert cert.checked_count == 15 and cert.counterexample == ("123", SquareOccurrence(13, 54))
    early, late = (substitute_with_choices(s, w, [0, 0, 0]) for w in ("023", "123"))
    window = 2 * (18 + words._TAIL) + 18
    assert early[-window:] == late[-window:] and 13 < len(late) - window
    block = apply_morphism(u18, "2")
    node = early[:-18]
    assert is_square_free(early) and not block.startswith(listed[node, len(node)] + listed[node, 0])
    node = late[:-18]
    assert block.startswith(listed[node, len(node)]) and listed[node, 0] == ()

    s = Substitution(5, 3, tuple((apply_morphism(u18, v),) for v in ("3", "4", "0", "1201", "2")))
    cert = certify_square_free_substitution(s, 4)
    assert cert == reference_certify_substitution(s, 4)
    assert cert.counterexample == ("0234", SquareOccurrence(13, 54))
    node = substitute_with_choices(s, "023", [0, 0, 0])
    assert block.startswith(listed[node, 18])
