"""The length-coverage constructor and its strategies."""

import json
import logging
from collections import Counter

import pytest

from shufflecraft import catalog, construct, morphisms, shuffle
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


def test_sigma5_past_the_recursion_limit():
    w = sigma5_witness(1202)
    assert len(w.u) == 1202
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


def test_lift_checks_choices_and_letters():
    w3 = catalog.get_witness("w3")
    stretch = catalog.get_substitution("stretch")
    with pytest.raises(ValueError, match="needs one image choice per position"):
        apply_morphism_to_witness(w3, stretch)
    with pytest.raises(ValueError, match="choices must match the length of u"):
        apply_morphism_to_witness(w3, stretch, [0, 1])
    with pytest.raises(ValueError, match="letter '3' not in alphabet of size 3"):
        apply_morphism_to_witness(sigma5_witness(3), catalog.get_morphism("sigma_6"))


@pytest.mark.parametrize("name, choices", [("sigma_6", None), ("stretch", [0, 1, 1])])
def test_a_lift_checks_u_once(monkeypatch, name, choices):
    # lift_conducting checks u's letters and the choices; mapping u does
    # not check them again
    w3 = catalog.get_witness("w3")
    h = catalog.get_entry(name).payload
    expected = apply_morphism_to_witness(w3, h, choices)  # certifies h first
    checked = []
    for module in (shuffle, morphisms):
        monkeypatch.setattr(module, "check_word", lambda w, k, check=module.check_word:
                            checked.append(w) or check(w, k))
    assert apply_morphism_to_witness(w3, h, choices) == expected
    assert checked == [w3.u]


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
    assert stored["version"] == construct.CACHE_VERSION
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


@pytest.mark.parametrize("version", [None, 2])
def test_other_cache_versions_are_a_miss(tmp_path, monkeypatch, version):
    # A verified witness under another strategy label: a hit would return
    # the label, a miss rebuilds from the stored base table.
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    good = catalog.base_witnesses()[19]
    payload = {"n": 19, "u": good.u, "beta": good.beta, "w": good.w, "strategy": "composition"}
    if version is not None:
        payload["version"] = version
    path = tmp_path / "witness-00019.json"
    path.write_text(json.dumps(payload))
    witness, strategy = construct_with_strategy(19)
    assert (witness, strategy) == (good, "base")
    stored = json.loads(path.read_text())
    assert stored["version"] == construct.CACHE_VERSION
    assert stored["strategy"] == "base"


def test_construct_boundary_rejects_a_bad_build(tmp_path, monkeypatch):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    good = catalog.base_witnesses()[19]
    tampered = ShuffleWitness(good.u, good.beta, good.w[:-1] + "0")
    assert not tampered.verify()
    monkeypatch.setattr(construct, "_build", lambda n: (tampered, "base", None))
    with pytest.raises(AssertionError):
        construct_with_strategy(19)
    assert list(tmp_path.iterdir()) == []


def test_construct_boundary_rejects_a_bad_lift(tmp_path, monkeypatch):
    # The same tampering on a witness lifted through h17: the derivation
    # check, not verify_witness, must refuse it.
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    step = construct._Lift("h17", catalog.get_morphism("h17"), None, catalog.base_witnesses()[19])
    good = construct._lifted(step)
    assert construct._check_lift(good, step)
    tampered = ShuffleWitness(good.u, good.beta, good.w[:-1] + ("1" if good.w[-1] == "0" else "0"))
    assert not tampered.verify()
    monkeypatch.setattr(construct, "_build", lambda n: (tampered, "factor", step))
    with pytest.raises(AssertionError):
        construct_with_strategy(17 * 19)
    assert list(tmp_path.iterdir()) == []


LIFTED = [(57, "factor"), (301, "substitution-interval"), (919, "sigma5-pipeline")]


def _flip(word, i):
    return word[:i] + "012"[(int(word[i]) + 1) % 3] + word[i + 1:]


def _swap(beta, i):
    return beta[:i] + beta[i + 1] + beta[i] + beta[i + 2:]


@pytest.fixture
def lift_of(tmp_path, monkeypatch):
    # The witness _build makes for n, checked by its step.
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))

    def build(n, strategy):
        witness, got, step = construct._build(n)
        assert got == strategy and step is not None
        assert construct._check_lift(witness, step)
        return witness, step
    return build


@pytest.mark.parametrize("n, strategy", LIFTED)
def test_lift_check_refuses_a_tampered_witness(lift_of, n, strategy):
    witness, step = lift_of(n, strategy)
    u, beta, w = witness.u, witness.beta, witness.w
    # Swapping two adjacent bits keeps beta balanced; take the first swap
    # past the middle that changes what beta conducts, so w is left wrong.
    i = next(i for i in range(n, 2 * n - 1) if shuffle_conducted(u, u, _swap(beta, i)) != w)
    for bad in (ShuffleWitness(_flip(u, n // 2), beta, w), ShuffleWitness(u, beta, _flip(w, n)),
                ShuffleWitness(u, _swap(beta, i), w),
                # u is the image and w is u conducted with itself, but 0^n 1^n
                # is not the lift of the inner beta: w = uu is no image of it.
                ShuffleWitness(u, "0" * n + "1" * n, u + u)):
        assert not bad.verify()
        assert not construct._check_lift(bad, step)


@pytest.mark.parametrize("n, strategy", LIFTED)
def test_lift_check_refuses_a_refuted_certificate(lift_of, monkeypatch, n, strategy):
    witness, step = lift_of(n, strategy)
    real = construct._certificate
    # The step's own map, and in the pipeline the seed's map below it.
    for refuted in [s for s in (step, step.inner_step) if s is not None]:
        with monkeypatch.context() as patch:
            patch.setattr(construct, "_certificate", lambda h: (
                morphisms.Certificate("h", "refuted", 0, 0) if h is refuted.h else real(h)))
            assert not construct._check_lift(witness, step)


def test_lift_check_refuses_a_map_that_is_refuted():
    # A lift through sigma, refuted by a square in an image of a 3-letter
    # word, agrees letter for letter with its inner witness.
    sigma = catalog.get_morphism("sigma")
    assert not morphisms._certificate(sigma).certified
    inner = catalog.base_witnesses()[19]
    lifted = shuffle._lift_witness(inner, sigma)
    assert not construct._check_lift(lifted, construct._Lift("sigma", sigma, None, inner))


def test_lift_check_refuses_letters_outside_the_source_alphabet():
    # h17 maps 0-2; the seed's letters 3 and 4 would pass through its image
    # unmapped, where the certificate says nothing, so the step is refused
    # though every comparison agrees.
    h17 = catalog.get_morphism("h17")
    inner = sigma5_witness(5)
    size = [17 if a in "012" else 1 for a in inner.u]
    beta = "".join("01"[side] * sum(size[start:stop])
                   for side, start, stop in shuffle._runs(inner.beta, 5, 5))
    u = morphisms._image(h17, inner.u)
    lifted = ShuffleWitness(u, beta, shuffle_conducted(u, u, beta))
    assert lifted.w == morphisms._image(h17, inner.w)
    assert not construct._check_lift(lifted, construct._Lift("h17", h17, None, inner))


def test_pipeline_seed_is_verified_from_the_definitions(tmp_path, monkeypatch):
    # A seed that is consistent but whose w is the square uu: every lift of
    # it agrees with it letter for letter, and only verify_witness on the
    # seed refuses it.
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))

    def squared_seed(m):
        u = sigma5_witness(m).u
        return ShuffleWitness(u, "0" * m + "1" * m, u + u)
    monkeypatch.setattr(construct, "sigma5_witness", squared_seed)
    with pytest.raises(AssertionError):
        construct_with_strategy(919)
    assert list(tmp_path.iterdir()) == []


def test_construct_reads_uniform_maps_from_the_catalog_only(tmp_path, monkeypatch):
    # 33, 36 and 39 factor through u11, u12 and u13; 919 and 1123 take the
    # pipeline through u18 and u22.  No uniform map comes from the cache.
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    planted = {
        "uniform-3-3-11.json": json.dumps({"status": "found", "images": ["0", "0", "0"]}).encode(),
        "uniform-5-3-22.json": json.dumps({"status": "exhausted"}).encode(),
    }
    for name, data in planted.items():
        (tmp_path / name).write_bytes(data)
    lengths = (33, 36, 39, 919, 1123)
    for n in lengths:
        witness = construct_witness(n)
        assert len(witness.u) == n
        assert witness.verify()
    for name, data in planted.items():
        assert (tmp_path / name).read_bytes() == data
    added = {path.name for path in tmp_path.iterdir()} - set(planted)
    assert all(name.startswith("witness-") and name.endswith(".json") for name in added)
    assert {f"witness-{n:05d}.json" for n in lengths} <= added


def test_construct_reuses_the_catalog_report_certificates(tmp_path, monkeypatch):
    # 57 factors through h19, 919 takes the pipeline, 301 a stretch interval
    # over 17: after one catalog report, none of them certifies a map again.
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    morphisms._certificate.cache_clear()
    certified = Counter()

    def counting(real):
        return lambda h, *args, **kwargs: certified.update([h]) or real(h, *args, **kwargs)

    for name in ("certify_square_free_morphism", "certify_square_free_substitution"):
        wrapped = counting(getattr(morphisms, name))
        for module in (morphisms, catalog, construct):  # wherever the name is bound
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    assert catalog.verify_catalog().ok
    assert set(certified.values()) == {1}
    before = sum(certified.values())
    for n, expected in ((57, "factor"), (919, "sigma5-pipeline"), (301, "substitution-interval")):
        witness, strategy = construct_with_strategy(n)
        assert strategy == expected
        assert len(witness.u) == n and witness.verify()
    assert sum(certified.values()) == before


def test_construct_lifts_only_through_catalog_maps():
    maps = [catalog.find_entry(name).payload for name in catalog.entry_names()
            if catalog.find_entry(name).kind == "morphism"]
    for table in (construct._uniform_ternary(), construct._uniform_five_to_three()):
        for length, (name, h) in table.items():
            assert h.max_image_length == length
            assert any(h is m for m in maps)
            assert catalog.get_morphism(name) is h
