"""Bundled reference constants and their self-verification.

The package ships a single JSON data file holding every named word, conducting
sequence, morphism, substitution, witness, and composition rule that the rest
of the library builds on.  The catalog is read-only after load; verify_catalog
re-derives each entry's claims from scratch so the data file never has to be
trusted blindly.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator

from .morphisms import (
    Morphism,
    Substitution,
    _certificate,
    apply_morphism,
    fixed_point_prefix,
)
from .shuffle import ShuffleWitness, _lift_witness, verify_witness
from .words import is_lyndon, is_square_free, parikh

ENTRY_KINDS = ("word", "beta", "morphism", "substitution", "witness", "composition")

# Morphisms stored for reference that do *not* preserve square-freeness; the
# verification pass expects their certification to refute.
REFUTED_MORPHISMS = frozenset({"tau", "rho", "sigma"})


@dataclass(frozen=True)
class CompositionRule:
    """One row of the composition table: apply the chain to a base witness.

    The chain is applied right to left, so (6, 2) means first the morphism
    with index 2, then the one with index 6.
    """

    target_length: int
    morphism_chain: tuple[int, ...]
    base: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    payload: object
    provenance: str


@dataclass(frozen=True)
class CatalogCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CatalogReport:
    checks: tuple[CatalogCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CatalogCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _typed_payload(kind: str, payload: dict) -> object:
    if kind == "word":
        return payload["word"]
    if kind == "beta":
        return payload["bits"]
    if kind == "morphism":
        return Morphism(payload["src_size"], payload["dst_size"], tuple(payload["images"]))
    if kind == "substitution":
        return Substitution(
            payload["src_size"],
            payload["dst_size"],
            tuple(tuple(images) for images in payload["image_sets"]),
        )
    if kind == "witness":
        return ShuffleWitness(payload["u"], payload["beta"], payload["w"])
    if kind == "composition":
        return CompositionRule(
            payload["target_length"], tuple(payload["chain"]), payload["base"]
        )
    raise ValueError(f"unknown catalog entry kind {kind!r}")


@lru_cache(maxsize=1)
def _load() -> dict[str, CatalogEntry]:
    raw = json.loads(
        resources.files("shufflecraft").joinpath("data/catalog.json").read_text()
    )
    entries: dict[str, CatalogEntry] = {}
    for item in raw["entries"]:
        entry = CatalogEntry(
            item["name"],
            item["kind"],
            _typed_payload(item["kind"], item["payload"]),
            item["provenance"],
        )
        if entry.name in entries:
            raise ValueError(f"duplicate catalog name {entry.name!r}")
        entries[entry.name] = entry
    return entries


def entry_names() -> tuple[str, ...]:
    return tuple(_load())


def find_entry(name: str) -> CatalogEntry | None:
    """The catalog entry of this name, or None when there is none."""
    return _load().get(name)


def get_entry(name: str) -> CatalogEntry:
    """Look up a catalog entry, suggesting near-matches for unknown names."""
    entry = find_entry(name)
    if entry is not None:
        return entry
    entries = _load()
    candidates = sorted(
        set(difflib.get_close_matches(name, entries, n=5, cutoff=0.5))
        | {other for other in entries if other.startswith(name)}
    )
    hint = f"; did you mean {', '.join(candidates)}?" if candidates else ""
    raise KeyError(f"no catalog entry named {name!r}{hint}")


def _get(name: str, kind: str) -> object:
    entry = get_entry(name)
    if entry.kind != kind:
        raise KeyError(f"catalog entry {name!r} is a {entry.kind}, not a {kind}")
    return entry.payload


def get_morphism(name: str) -> Morphism:
    return _get(name, "morphism")


def get_substitution(name: str) -> Substitution:
    return _get(name, "substitution")


def get_witness(name: str) -> ShuffleWitness:
    return _get(name, "witness")


def get_word(name: str) -> str:
    return _get(name, "word")


def get_beta(name: str) -> str:
    return _get(name, "beta")


def composition_rules() -> tuple[CatalogEntry, ...]:
    return tuple(e for e in _load().values() if e.kind == "composition")


def base_witnesses() -> dict[int, ShuffleWitness]:
    """Witness entries named w<n>, keyed by length."""
    out: dict[int, ShuffleWitness] = {}
    for entry in _load().values():
        if entry.kind == "witness" and entry.name.startswith("w") and entry.name[1:].isdigit():
            out[int(entry.name[1:])] = entry.payload
    return out


def expand_composition(rule: CompositionRule) -> ShuffleWitness:
    """Apply a composition rule's morphism chain to its base witness.

    The result is the chain's image of the base shuffle.  The chain maps are
    not certified here; verify_witness proves each result.
    """
    witness = get_witness(rule.base)
    for index in reversed(rule.morphism_chain):
        witness = _lift_witness(witness, get_morphism(f"sigma_{index}"))
    return witness


def _lyndon_violation(witness: ShuffleWitness) -> str | None:
    """How a witness fails the claim that u and w are Lyndon with w < u, or None."""
    if not verify_witness(witness):
        return "stored witness fails verification"
    for word in (witness.u, witness.w):
        if not is_lyndon(word):
            return f"{word} is not Lyndon"
    if not witness.w < witness.u:
        return f"shuffled word {witness.w} is not smaller than the operand {witness.u}"
    return None


def _iter_checks() -> Iterator[CatalogCheck]:
    entries = _load()
    tau = get_morphism("tau")
    rho = get_morphism("rho")
    alpha = get_morphism("alpha")
    sigma = get_morphism("sigma")
    big_b = get_morphism("B")
    big_s = get_morphism("S")

    cert = _certificate(tau)
    yield CatalogCheck(
        "tau",
        cert.verdict == "refuted" and cert.counterexample == ("010", (2, 2)),
        f"certification {cert.verdict}, counterexample {cert.counterexample}",
    )

    cert = _certificate(rho)
    yield CatalogCheck(
        "rho",
        cert.verdict == "refuted" and cert.counterexample is not None
        and cert.counterexample[0] in {"12", "20", "30"},
        f"certification {cert.verdict}, counterexample {cert.counterexample}",
    )

    word = get_word("t27")
    derived = fixed_point_prefix(tau, 0, len(word))
    yield CatalogCheck(
        "t27",
        derived == word and is_square_free(word),
        "fixed-point prefix of tau matches and is square-free",
    )

    for name in sorted(entries):
        entry = entries[name]
        if entry.kind != "morphism" or name in REFUTED_MORPHISMS:
            continue
        cert = _certificate(entry.payload)
        yield CatalogCheck(
            name, cert.verdict == "certified", f"certification {cert.verdict}"
        )

    # sigma is stored for reference only: its images are the four block
    # shuffles, but the morphism itself maps some square-free words onto
    # squares, so only the composite with alpha is certified.
    cert = _certificate(sigma)
    yield CatalogCheck(
        "sigma",
        cert.verdict == "refuted",
        f"certification {cert.verdict} (expected refuted; only S = sigma after alpha is square-free)",
    )

    for i in range(4):
        witness = get_witness(f"sigma{i}")
        stored = (rho.images[i], get_beta(f"beta{i}"), sigma.images[i])
        ok = (witness.u, witness.beta, witness.w) == stored and verify_witness(witness)
        yield CatalogCheck(f"sigma{i}", ok, "block shuffle re-derived from rho image")

    for i in range(alpha.src_size):
        expected_b = apply_morphism(rho, alpha.images[i])
        expected_s = apply_morphism(sigma, alpha.images[i])
        yield CatalogCheck(
            f"B({i}),S({i})",
            big_b.images[i] == expected_b and big_s.images[i] == expected_s,
            "48- and 96-letter images equal the composites through alpha",
        )

    for length, witness in sorted(base_witnesses().items()):
        yield CatalogCheck(
            f"w{length}",
            len(witness.u) == length and verify_witness(witness),
            "base witness verifies",
        )

    for entry in composition_rules():
        rule = entry.payload
        witness = expand_composition(rule)
        yield CatalogCheck(
            entry.name,
            len(witness.u) == rule.target_length and verify_witness(witness),
            f"chain {rule.morphism_chain} on {rule.base} reaches length {rule.target_length}",
        )

    cert = _certificate(get_substitution("stretch"))
    yield CatalogCheck("stretch", cert.certified, f"certification {cert.verdict}")

    yield CatalogCheck(
        "lyndon8",
        _lyndon_violation(get_witness("lyndon8")) is None,
        "Lyndon pair verifies with w below u",
    )


def verify_catalog() -> CatalogReport:
    """Re-derive every claim attached to the shipped data.

    Failures come back as report rows rather than exceptions so a single bad
    entry cannot hide the state of the others.  Each map's certificate is
    made once per process and shared with the lifts in construct.
    """
    return CatalogReport(tuple(_iter_checks()))


def dump_catalog() -> str:
    """Render the raw data file as stable, pretty-printed JSON."""
    raw = json.loads(
        resources.files("shufflecraft").joinpath("data/catalog.json").read_text()
    )
    return json.dumps(raw, indent=2, sort_keys=False)
