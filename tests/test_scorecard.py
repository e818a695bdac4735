"""The verify-paper scorecard: formatting, failure paths and the Dean walk."""

import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

from shufflecraft import catalog, cli, scorecard
from shufflecraft.shuffle import perfect_shuffle
from shufflecraft.words import is_square_free

CATALOG_LINES = {
    "image-shuffle-table": "4 blocks match and are square-free",
    "morphism-certifications": "20 certified, 2 refuted",
    "substitution-certification": "3 properties hold; 78 words checked up to length 8",
    "stored-witnesses": "19 stored + 316 composed witnesses verified",
}


@pytest.fixture(autouse=True)
def _fresh_catalog_rows():
    # A patched verify_catalog must not leave its rows to later tests.
    scorecard._catalog_rows.cache_clear()
    yield
    scorecard._catalog_rows.cache_clear()


def only(monkeypatch, *labels):
    checks = tuple(entry for entry in scorecard.SCORECARD if entry[0] in labels)
    monkeypatch.setattr(scorecard, "SCORECARD", checks)


def test_verify_paper_formats_pass_and_fail_lines(monkeypatch):
    def broken():
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(scorecard, "SCORECARD", (("fine", lambda: "all good"), ("bad", broken)))
    result = cli.run(["verify-paper"])
    assert result.exit_code == 1
    assert result.payload.splitlines() == [
        "[PASS] fine: all good (0.0s)",
        "[FAIL] bad: broken on purpose (0.0s)",
        "1/2 checks pass",
    ]


def test_enumeration_row_mismatch_names_its_length(monkeypatch):
    table = list(scorecard.REFERENCE_ENUMERATION)
    table[3] = (10, 144, 31, 12)
    monkeypatch.setattr(scorecard, "REFERENCE_ENUMERATION", tuple(table))
    only(monkeypatch, "enumeration-table")
    [(_, passed, detail, _)] = scorecard.run_checks()
    assert not passed
    assert detail.startswith("length 10:")


def test_failing_catalog_row_fails_the_image_shuffle_line(monkeypatch):
    row = catalog.CatalogCheck("sigma2", False, "block shuffle re-derived from rho image")
    monkeypatch.setattr(catalog, "verify_catalog", lambda: catalog.CatalogReport((row,)))
    only(monkeypatch, "image-shuffle-table")
    [(label, passed, detail, _)] = scorecard.run_checks()
    assert (label, passed) == ("image-shuffle-table", False)
    assert "sigma2" in detail


def test_catalog_lines_share_one_report(monkeypatch):
    reports = []
    verify = catalog.verify_catalog

    def counting():
        reports.append(verify())
        return reports[-1]

    monkeypatch.setattr(catalog, "verify_catalog", counting)
    only(monkeypatch, *CATALOG_LINES)
    lines = scorecard.run_checks()
    assert {label: detail for label, _, detail, _ in lines} == CATALOG_LINES
    assert all(passed for _, passed, _, _ in lines)
    assert len(reports) == 1


def _reduced_words(max_length):
    # Depth first in letter order, as the square-free walk visits them.
    def grow(word):
        for c in scorecard.REDUCED_NEXT[word[-1]] if word else "0123":
            if is_square_free(word + c):
                yield word + c
                if len(word) + 1 < max_length:
                    yield from grow(word + c)

    yield from grow("")


def _full_test_walk(max_length, dual):
    count = 0
    for u in _reduced_words(max_length):
        if not is_square_free(perfect_shuffle(u, dual(u))):
            return u
        count += 1
    return count


@pytest.mark.parametrize("images", ["2302", "2331", "1032", "2301"])  # 2301: dual_word
def test_dean_suffix_walk_matches_full_tests(images):
    table = str.maketrans("0123", images)
    dual = lambda u: u.translate(table)  # noqa: E731
    expected = _full_test_walk(12, dual)
    if isinstance(expected, int):
        assert scorecard._dean_walk(12, dual) == expected
    else:
        with pytest.raises(AssertionError) as raised:
            scorecard._dean_walk(12, dual)
        assert str(raised.value) == f"perfect shuffle of {expected} and its dual has a square"


def _full_test_sample(rng, length):
    while True:
        word = rng.choice("0123")
        while len(word) < length:
            options = [c for c in scorecard.REDUCED_NEXT[word[-1]] if is_square_free(word + c)]
            if not options:
                break
            word += rng.choice(options)
        if len(word) == length:
            return word


def test_sample_reduced_draws_the_full_test_words():
    suffix, full = random.Random(0x5F5F), random.Random(0x5F5F)
    for length in range(21, 51):
        for _ in range(5):
            assert scorecard._sample_reduced(suffix, length) == _full_test_sample(full, length)
    assert suffix.random() == full.random()


def test_cli_imports_no_private_name():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if any(part.startswith("_") for part in alias.name.split("."))
    ]
    assert private == []


def test_importing_cli_does_not_load_the_scorecard():
    code = "import sys, shufflecraft.cli; print('shufflecraft.scorecard' in sys.modules)"
    shown = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert shown.stdout.strip() == "False"
