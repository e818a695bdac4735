"""End-to-end acceptance checks.

One test per headline claim, each against data frozen here rather than
against the package's own stored copies, so a regression in either the
algorithms or the catalog shows up as a plain assertion failure.
"""

import random
from collections import Counter

import pytest

from shufflecraft import catalog
from shufflecraft.cli import run
from shufflecraft.construct import construct_with_strategy, coverage_report
from shufflecraft.limits import (
    verify_abelian_periodicity,
    verify_lyndon_example,
    verify_theorem4,
    verify_theorem5,
)
from shufflecraft.morphisms import (
    apply_morphism,
    certify_square_free_morphism,
    certify_square_free_substitution,
    check_substitution_properties,
    substitution_test_length,
)
from shufflecraft.search import distinct_self_shuffles, enumeration_row
from shufflecraft.shuffle import (
    dual_word,
    find_conducting,
    perfect_shuffle,
    shuffle_conducted,
    verify_witness,
)
from shufflecraft.words import enumerate_square_free, is_square_free, parikh

# Counts per even length: square-free words, square-free self-shuffle words,
# operands admitting at least one.
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

# Every length-8 square-free word with prefix 01 admitting a square-free
# self-shuffle, with all its distinct shuffled words and a conducting
# sequence for each.
LENGTH8_LISTING = {
    "01021201": (
        ("0102120102012101", "0000001111011011"),
        ("0102120102101201", "0000001111100111"),
        ("0102101201021201", "0000011000111111"),
    ),
    "01201021": (("0102101201020121", "0010100111001011"),),
    "01202101": (
        ("0120210120102101", "0000001110011111"),
        ("0120102101202101", "0001100000111111"),
        ("0102012101202101", "0010010000111111"),
    ),
    "01202102": (("0102120210201202", "0010110001101011"),),
    "01202120": (("0120210201202120", "0000001001111111"),),
    "01210120": (("0121012010210120", "0000000110111111"),),
    "01210201": (
        ("0121020102101201", "0000001101110111"),
        ("0120102012101201", "0001000011110111"),
        ("0120102101210201", "0001000100111111"),
    ),
}


def test_criterion_01_enumeration_table():
    for length, expected in ENUMERATION_TABLE.items():
        row = enumeration_row(length)
        assert (row.square_free_count, row.shuffle_word_count, row.shuffleable_u_count) == expected
    # and through the documented interface
    result = run(["enumerate", "--max-length", "26", "--format", "csv"])
    assert result.exit_code == 0
    body = result.payload.splitlines()[1:]
    assert body == [
        f"{length},{a},{b},{c}" for length, (a, b, c) in sorted(ENUMERATION_TABLE.items())
    ]


def test_criterion_02_image_shuffle_table():
    rho = catalog.get_morphism("rho")
    sigma = catalog.get_morphism("sigma")
    for i in range(4):
        beta = catalog.get_beta(f"beta{i}")
        word = shuffle_conducted(rho.images[i], rho.images[i], beta)
        assert word == sigma.images[i]
        assert is_square_free(word)


def test_criterion_03_length8_listing():
    admitting = {}
    for u in enumerate_square_free(3, 8):
        if not u.startswith("01"):
            continue
        words = distinct_self_shuffles(u)
        if words:
            admitting[u] = set(words)
    assert sorted(admitting) == sorted(LENGTH8_LISTING)
    assert len(admitting) == 7
    for u, rows in LENGTH8_LISTING.items():
        assert admitting[u] == {word for word, _ in rows}
        for word, beta in rows:
            assert shuffle_conducted(u, u, beta) == word
            assert is_square_free(word)


def test_criterion_04_morphism_certifications():
    certified = ("alpha", "B", "S", "h19", "h23", "h24", "h18", "h17") + tuple(
        f"sigma_{i}" for i in range(6, 18)
    )
    for name in certified:
        cert = certify_square_free_morphism(catalog.get_morphism(name), subject=name)
        assert cert.certified, name
    for name in ("rho", "tau"):
        cert = certify_square_free_morphism(catalog.get_morphism(name), subject=name)
        assert not cert.certified, name
        word, occ = cert.counterexample
        img = apply_morphism(catalog.get_morphism(name), word)
        half = img[occ.start : occ.start + occ.half_length]
        assert img[occ.start : occ.start + 2 * occ.half_length] == half * 2
    assert "201021201021" in apply_morphism(catalog.get_morphism("rho"), "20")


def test_criterion_05_substitution_certification():
    stretch = catalog.get_substitution("stretch")
    assert check_substitution_properties(stretch) == (True, True, True)
    assert substitution_test_length(stretch) == 8
    assert len(list(enumerate_square_free(3, 8))) == 78
    cert = certify_square_free_substitution(stretch, subject="stretch")
    assert cert.certified
    assert cert.bound_used == 8


def test_criterion_06_stored_witness_tables():
    bases = catalog.base_witnesses()
    assert sorted(bases) == [*range(3, 18), 19, 20, 21, 26]
    for witness in bases.values():
        assert witness.verify()
    rules = catalog.composition_rules()
    assert len(rules) == 316
    by_name = {entry.name: entry.payload for entry in rules}
    first = catalog.expand_composition(by_name["w18"])
    assert len(first.u) == 18 and first.verify()
    last = catalog.expand_composition(by_name["w1831"])
    assert len(last.u) == 1831 and last.verify()
    for entry in rules:
        witness = catalog.expand_composition(entry.payload)
        assert len(witness.u) == entry.payload.target_length
        assert witness.verify()


def test_criterion_07_full_length_coverage():
    report = coverage_report(2000)
    assert report.complete, report.gaps
    assert report.attained == tuple(range(3, 2001))
    # The count of each strategy is pinned, so a change in the strategy
    # construction picks for some length shows here.
    assert Counter(report.strategies.values()) == {
        "base": 19, "composition": 316, "factor": 707,
        "sigma5-pipeline": 484, "substitution-interval": 446, "direct-search": 26,
    }
    # construct checks a lifted witness by its derivation; every witness is
    # verified here again from the definitions.
    for n in (*range(3, 2001), 5202, 5203, 5219, 6000):
        witness, _ = construct_with_strategy(n)
        assert len(witness.u) == n
        assert verify_witness(witness)


def test_criterion_08_block_shuffle_prefix():
    assert verify_theorem4(96).holds
    deep = verify_theorem4(10_080)
    assert deep.holds
    assert deep.prefix_length >= 10_000


def test_criterion_09_fixed_point_shuffle_prefix():
    verdict = verify_theorem5(10_000)
    assert verdict.holds
    assert verdict.prefix_length >= 9990


def test_criterion_10_abelian_periodicity():
    verdict = verify_abelian_periodicity(48 * 50, 48)
    assert verdict.holds
    block = catalog.get_morphism("B").images[0]
    assert parikh(block, 3) == (16, 16, 16)
    assert verify_lyndon_example().holds


def _balanced(rng, half):
    bits = ["0"] * half + ["1"] * half
    rng.shuffle(bits)
    return "".join(bits)


def test_criterion_11a_round_trips():
    rng = random.Random(1101)
    for _ in range(10_000):
        n = rng.randint(0, 12)
        u = "".join(rng.choice("012") for _ in range(n))
        beta = _balanced(rng, n)
        w = shuffle_conducted(u, u, beta)
        again = find_conducting(u, u, w)
        assert again is not None
        assert shuffle_conducted(u, u, again) == w


def test_criterion_11b_concatenation_law():
    rng = random.Random(1102)
    for _ in range(10_000):
        n = rng.randint(0, 10)
        u = "".join(rng.choice("012") for _ in range(n))
        m = rng.randint(0, n)
        beta1 = _balanced(rng, m)
        beta2 = _balanced(rng, n - m)
        assert shuffle_conducted(u, u, beta1 + beta2) == (
            shuffle_conducted(u[:m], u[:m], beta1) + shuffle_conducted(u[m:], u[m:], beta2)
        )


def test_criterion_11c_even_parity():
    seen = 0
    for length in range(2, 9):
        for u in enumerate_square_free(3, length):
            if not u.startswith("01"):
                continue
            for word in distinct_self_shuffles(u):
                assert all(count % 2 == 0 for count in parikh(word, 3))
                seen += 1
    assert seen > 0
    for name in ("w3", "w10", "w26", "lyndon8"):
        witness = catalog.get_witness(name)
        assert all(count % 2 == 0 for count in parikh(witness.w, 3))


REDUCED_NEXT = {"0": "13", "1": "02", "2": "13", "3": "02"}


def _suffix_ok(word):
    n = len(word)
    for half in range(1, n // 2 + 1):
        if word[n - 2 * half : n - half] == word[n - half :]:
            return False
    return True


def _all_reduced(max_length):
    word = []

    def rec():
        if word:
            yield "".join(word)
        if len(word) == max_length:
            return
        for c in REDUCED_NEXT[word[-1]] if word else "0123":
            word.append(c)
            if _suffix_ok(word):
                yield from rec()
            word.pop()

    yield from rec()


def test_criterion_11d_perfect_shuffle_of_duals():
    count = 0
    for u in _all_reduced(20):
        assert is_square_free(perfect_shuffle(u, dual_word(u))), u
        count += 1
    assert count > 40_000
    rng = random.Random(1104)
    for length in range(21, 51):
        for _ in range(5):
            word = [rng.choice("0123")]
            while len(word) < length:
                options = [c for c in REDUCED_NEXT[word[-1]] if _suffix_ok(word + [c])]
                if not options:
                    word = [rng.choice("0123")]
                    continue
                word.append(rng.choice(options))
            u = "".join(word)
            assert is_square_free(perfect_shuffle(u, dual_word(u))), u
