"""The length-coverage constructor and its strategies."""

import json
import logging

import pytest

from shufflecraft import catalog, construct
from shufflecraft.construct import (
    STRATEGIES,
    UnconstructedLengthError,
    apply_morphism_to_witness,
    cache_dir,
    construct_with_strategy,
    construct_witness,
    coverage_report,
    sigma5_witness,
    substitution_interval_witness,
)
from shufflecraft.morphisms import Morphism, SearchResult, search_uniform_square_free_morphism
from shufflecraft.shuffle import ShuffleWitness, shuffle_conducted
from shufflecraft.words import is_square_free


def test_sigma5_smallest():
    w = sigma5_witness(3)
    assert (w.u, w.beta, w.w) == ("034", "001011", "030434")


def test_sigma5_structure():
    w = sigma5_witness(5)
    assert w.u == "01034"
    assert w.w == "0103010434"
    assert shuffle_conducted(w.u, w.u, w.beta) == w.w
    with pytest.raises(ValueError):
        sigma5_witness(2)


def test_sigma5_various_lengths_verify():
    for n in (3, 4, 7, 12, 30):
        w = sigma5_witness(n)
        assert len(w.u) == n
        assert w.verify()


def test_lift_through_certified_morphism():
    w3 = catalog.get_witness("w3")
    sigma6 = catalog.get_morphism("sigma_6")
    lifted = apply_morphism_to_witness(w3, sigma6)
    assert len(lifted.u) == 18
    assert lifted.verify()


def test_lift_refuses_refuted_morphisms():
    w3 = catalog.get_witness("w3")
    with pytest.raises(ValueError):
        apply_morphism_to_witness(w3, catalog.get_morphism("tau"))


def test_substitution_interval_endpoints():
    base = catalog.get_witness("w3")
    assert len(substitution_interval_witness(base, 51).u) == 51
    assert len(substitution_interval_witness(base, 54).u) == 54
    with pytest.raises(ValueError):
        substitution_interval_witness(base, 50)
    with pytest.raises(ValueError):
        substitution_interval_witness(base, 55)


def test_substitution_interval_needs_choices_count():
    base = catalog.get_witness("w4")
    for target in range(17 * 4, 18 * 4 + 1):
        witness = substitution_interval_witness(base, target)
        assert len(witness.u) == target
        assert witness.verify()


def test_construct_smallest():
    w = construct_witness(3)
    assert (w.u, w.beta, w.w) == ("012", "001011", "010212")


def test_construct_rejects_short_lengths():
    with pytest.raises(ValueError):
        construct_witness(2)
    with pytest.raises(ValueError):
        construct_witness(0)


def test_strategies_for_known_lengths():
    cases = {3: "base", 26: "base", 18: "composition", 51: "factor"}
    for n, expected in cases.items():
        witness, strategy = construct_with_strategy(n)
        assert strategy == expected, n
        assert len(witness.u) == n
        assert witness.verify()


def test_all_strategy_labels_known():
    for n in range(3, 120):
        _, strategy = construct_with_strategy(n)
        assert strategy in STRATEGIES


def test_witnesses_are_ternary_and_square_free():
    for n in (3, 10, 29, 75, 100):
        w = construct_witness(n)
        assert set(w.u) <= set("012")
        assert is_square_free(w.u)
        assert is_square_free(w.w)


def test_coverage_report_small_window():
    report = coverage_report(40)
    assert report.complete
    assert report.gaps == ()
    assert report.attained == tuple(range(3, 41))
    assert set(report.strategies.values()) <= set(STRATEGIES)


def test_coverage_rejects_below_start():
    with pytest.raises(ValueError):
        coverage_report(2)


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    assert cache_dir() == tmp_path
    construct_witness(19)
    stored = json.loads((tmp_path / "witness-00019.json").read_text())
    assert stored["strategy"] == "base"
    assert len(stored["u"]) == 19


def test_corrupt_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    path = tmp_path / "witness-00019.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json")
    w = construct_witness(19)
    assert len(w.u) == 19
    assert json.loads(path.read_text())["u"] == w.u


def test_tampered_cache_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    construct_witness(19)
    path = tmp_path / "witness-00019.json"
    stored = json.loads(path.read_text())
    stored["w"] = stored["w"][:-1] + "0"  # no longer the conducted shuffle
    path.write_text(json.dumps(stored))
    w = construct_witness(19)
    assert w.verify()


def test_factor_beats_interval_for_5202():
    witness, strategy = construct_with_strategy(5202)
    assert strategy == "factor"
    assert len(witness.u) == 5202
    assert witness.verify()


def test_cached_budget_outcome_is_searched_again(tmp_path, monkeypatch):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    calls = []

    def search(*args):
        calls.append(args)
        return search_uniform_square_free_morphism(*args)

    monkeypatch.setattr(construct, "search_uniform_square_free_morphism", search)
    path = tmp_path / "uniform-3-3-1.json"
    path.write_text(json.dumps({"status": "budget"}))
    h = construct._searched_morphism(3, 3, 1)
    assert calls == [(3, 3, 1)]
    assert h.images == ("0", "1", "2")
    assert json.loads(path.read_text())["status"] == "found"

    # an exhausted search space is final
    path = tmp_path / "uniform-3-3-2.json"
    path.write_text(json.dumps({"status": "exhausted"}))
    assert construct._searched_morphism(3, 3, 2) is None
    assert calls == [(3, 3, 1)]


def test_unwritable_cache_falls_back_to_computing(tmp_path, monkeypatch, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(blocker / "sub"))
    with caplog.at_level(logging.WARNING, logger="shufflecraft"):
        witness, strategy = construct_with_strategy(50)
    assert len(witness.u) == 50
    assert witness.verify()
    assert strategy in STRATEGIES
    [record] = [r for r in caplog.records if r.name.startswith("shufflecraft")]
    assert record.levelno == logging.WARNING
    assert str(blocker / "sub" / "witness-00050.json") in record.getMessage()


@pytest.mark.parametrize("payload", [
    {"status": "found"},
    [1, 2],
    "found",
    {"status": "found", "images": ["0", "1"]},
    {"status": "found", "images": "012"},
    {"status": "found", "images": [0, 1, 2]},
    {"status": "found", "images": ["0", "1", "3"]},
    {"status": "found", "images": ["00", "11", "22"]},
    {"status": "found", "images": ["0", "0", "0"]},  # right shape, not square-free
])
def test_corrupt_uniform_cache_is_searched_again(tmp_path, monkeypatch, payload):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    identity = Morphism(3, 3, ("0", "1", "2"))
    calls = []

    def search(*args):
        calls.append(args)
        return SearchResult(identity, "found")

    monkeypatch.setattr(construct, "search_uniform_square_free_morphism", search)
    path = tmp_path / "uniform-3-3-1.json"
    path.write_text(json.dumps(payload))
    assert construct._searched_morphism(3, 3, 1) == identity
    assert calls == [(3, 3, 1)]
    assert json.loads(path.read_text()) == {"status": "found", "images": ["0", "1", "2"]}


@pytest.mark.parametrize("payload", [
    [1],
    "witness",
    {"u": 5, "beta": "01", "w": "00", "strategy": "base"},
    {"u": "012", "beta": None, "w": "010212", "strategy": "base"},
    {"u": "012", "beta": "001011", "w": "010212", "strategy": ["base"]},
])
def test_corrupt_witness_cache_is_a_miss(tmp_path, monkeypatch, payload):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    path = tmp_path / "witness-00019.json"
    path.write_text(json.dumps(payload))
    witness, strategy = construct_with_strategy(19)
    assert strategy == "base"
    assert witness.verify()
    assert json.loads(path.read_text())["u"] == witness.u


def test_construct_boundary_rejects_a_bad_build(tmp_path, monkeypatch):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    good = catalog.base_witnesses()[19]
    tampered = ShuffleWitness(good.u, good.beta, good.w[:-1] + "0")
    assert not tampered.verify()
    monkeypatch.setattr(construct, "_build", lambda n: (tampered, "base"))
    with pytest.raises(AssertionError):
        construct_with_strategy(19)
    assert list(tmp_path.iterdir()) == []
