import json

import pytest

from shufflecraft import catalog
from shufflecraft.catalog import (
    REFUTED_MORPHISMS,
    CompositionRule,
    base_witnesses,
    composition_rules,
    dump_catalog,
    entry_names,
    expand_composition,
    get_beta,
    get_entry,
    get_morphism,
    get_substitution,
    get_witness,
    get_word,
)
from shufflecraft.morphisms import apply_morphism, certify_square_free_morphism
from shufflecraft.words import is_square_free


def test_entry_names_deterministic_and_rich():
    names = entry_names()
    assert names == entry_names()  # stable order across calls
    assert len(set(names)) == len(names)
    for required in ("alpha", "B", "S", "rho", "sigma", "tau", "stretch", "t27", "lyndon8"):
        assert required in names


def test_kind_counts():
    kinds = {}
    for name in entry_names():
        kinds[get_entry(name).kind] = kinds.get(get_entry(name).kind, 0) + 1
    assert kinds["composition"] == 316
    assert kinds["witness"] == 24
    assert kinds["beta"] == 4
    assert kinds["substitution"] == 1


def test_unknown_name_suggests_close_matches():
    with pytest.raises(KeyError) as err:
        get_entry("sigm")
    assert "did you mean" in str(err.value)


def test_kind_checked_getters():
    assert get_morphism("tau").images == ("012", "02", "1")
    assert get_word("t27") == "012021012102012021020121012"
    assert len(get_beta("beta0")) == 24
    assert get_substitution("stretch").src_size == 3
    assert get_witness("w3").u == "012"
    with pytest.raises(KeyError):
        get_morphism("t27")


def test_base_witnesses_cover_expected_lengths():
    bases = base_witnesses()
    assert sorted(bases) == [*range(3, 18), 19, 20, 21, 26]
    for n, witness in bases.items():
        assert len(witness.u) == n
        assert witness.verify()


def test_base_witnesses_are_named_by_length():
    # construct looks length n up as the entry named w<n>, so that lookup
    # must find every base witness
    for n, witness in base_witnesses().items():
        entry = catalog.find_entry(f"w{n}")
        assert entry is not None and entry.kind == "witness" and entry.payload is witness
        assert len(witness.u) == n


def test_refuted_morphisms_really_refute():
    for name in sorted(REFUTED_MORPHISMS):
        cert = certify_square_free_morphism(get_morphism(name), subject=name)
        assert not cert.certified, name


def test_image_morphisms_compose_through_alpha():
    alpha = get_morphism("alpha")
    rho = get_morphism("rho")
    b = get_morphism("B")
    for i in range(3):
        assert b.images[i] == apply_morphism(rho, alpha.images[i])


def test_expand_composition_lifts_to_target():
    entry = get_entry("w18")
    assert entry.kind == "composition"
    witness = expand_composition(entry.payload)
    assert len(witness.u) == 18
    assert witness.verify()


def test_expand_composition_maps_the_base_shuffle_through_the_chain():
    # The lifted w is conducted from the lifted u; it must equal the chain's
    # image of the base witness's w, applied right to left.
    for entry in composition_rules():
        rule = entry.payload
        w = get_witness(rule.base).w
        for index in reversed(rule.morphism_chain):
            w = apply_morphism(get_morphism(f"sigma_{index}"), w)
        assert expand_composition(rule).w == w, entry.name


def test_composition_rules_all_have_targets():
    rules = composition_rules()
    assert len(rules) == 316
    targets = {entry.payload.target_length for entry in rules}
    assert 18 in targets
    assert 1831 in targets
    assert max(targets) == 1831


def test_composition_rule_shape():
    rule = get_entry("w18").payload
    assert isinstance(rule, CompositionRule)
    assert rule.base == "w3"
    assert rule.morphism_chain == (6,)


def test_dump_is_valid_json():
    payload = json.loads(dump_catalog())
    assert len(payload["entries"]) == len(entry_names())


def test_stored_words_are_square_free():
    assert is_square_free(get_word("t27"))
    for name in ("w3", "w10", "w26", "lyndon8"):
        witness = get_witness(name)
        assert is_square_free(witness.u)
        assert is_square_free(witness.w)


def test_full_catalog_verification():
    report = catalog.verify_catalog()
    assert report.ok, [check.name for check in report.failures]
    assert len(report.checks) > 350
