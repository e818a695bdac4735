"""Witness construction for every length.

Produces a verified self-shuffle witness (u, beta, w) over the ternary
alphabet for any requested length n >= 3.  Strategies are tried in order of
cost: stored base witnesses, the stored composition rules, factoring n through
a uniform square-free morphism, the five-letter pipeline with the stretch
substitution, a stretch interval over the least shorter length that reaches
n, and finally a direct backtracking search.  Every map lifted through is a
catalog entry.  Whatever the route, the returned witness is re-verified from
scratch.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import catalog
from .morphisms import Morphism, Substitution, _certificate
from .search import find_self_shuffle_betas
from .shuffle import ShuffleWitness, _lift_witness, verify_witness
from .words import enumerate_square_free, lex_least_square_free_prefix

CACHE_ENV = "SHUFFLECRAFT_CACHE_DIR"
# Written into every cache file; a file of any other version reads as a miss.
CACHE_VERSION = 1

STRATEGIES = (
    "base",
    "composition",
    "factor",
    "sigma5-pipeline",
    "substitution-interval",
    "direct-search",
)


class UnconstructedLengthError(ValueError):
    """No strategy produced a witness of the requested length."""


@dataclass
class CoverageReport:
    start: int
    end: int
    attained: tuple[int, ...]
    gaps: tuple[int, ...]
    strategies: dict[int, str]

    @property
    def complete(self) -> bool:
        return not self.gaps


def cache_dir() -> Path:
    root = os.environ.get(CACHE_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "shufflecraft"


def _write_json_atomic(path: Path, payload: dict) -> None:
    # The cache only saves work: a write that fails is logged, and the
    # caller carries on with the value it computed.
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except OSError as exc:
        # Imported only here: loading logging would add half a megabyte to
        # every process that imports the package.
        import logging

        logging.getLogger(__name__).warning(
            "cannot write cache file %s (%s); continuing without it", path, exc)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def sigma5_witness(n: int) -> ShuffleWitness:
    """Five-letter witness of length n: u34 shuffled with itself to u3u434.

    u is the lexicographically least square-free ternary word of length n-2;
    the two fresh letters make the interleaving square-free for every n >= 3,
    so the result is a witness by construction; `construct_with_strategy`
    verifies what it builds from it.
    """
    if n < 3:
        raise ValueError(f"witness lengths start at 3, got {n}")
    u = lex_least_square_free_prefix(3, n - 2)
    operand = u + "34"
    beta = "0" * (n - 1) + "1" * (n - 2) + "011"
    word = u + "3" + u + "434"
    return ShuffleWitness(operand, beta, word)


def apply_morphism_to_witness(
    witness: ShuffleWitness,
    h: Morphism | Substitution,
    choices: list[int] | None = None,
) -> ShuffleWitness:
    """Lift a witness through a certified square-free morphism or substitution.

    The lifted interleaving is the image of the old one, so through a
    certified map the result is a witness by construction, and
    `construct_with_strategy` verifies it.  Refuses any h whose certificate,
    made once per process, does not come back clean.  The composition
    strategy does not lift through here: `catalog.expand_composition` uses
    sigma_1..sigma_17 uncertified, and only the final `verify_witness`
    proves what it builds.
    """
    cert = _certificate(h)
    if not cert.certified:
        raise ValueError(
            f"refusing to lift through an uncertified map ({cert.subject}: {cert.verdict})"
        )
    return _lift_witness(witness, h, choices)


def substitution_interval_witness(witness: ShuffleWitness, target: int) -> ShuffleWitness:
    """Stretch a length-L ternary witness to any target in [17L, 18L].

    Exactly target - 17L positions use the long image of the stretch
    substitution, chosen leftmost-first; the rest use the short one.  The
    stretch substitution is certified, so the result is a witness by
    construction; `construct_with_strategy` verifies it.
    """
    stretch = catalog.get_substitution("stretch")
    length = len(witness.u)
    low, high = 17 * length, 18 * length
    if not low <= target <= high:
        raise ValueError(
            f"target {target} outside the stretch interval [{low}, {high}] of a length-{length} base"
        )
    long_count = target - low
    choices = [1] * long_count + [0] * (length - long_count)
    return apply_morphism_to_witness(witness, stretch, choices)


@lru_cache(maxsize=1)
def _uniform_ternary() -> dict[int, Morphism]:
    """Uniform catalog maps into 0-2 keyed by image length, the factor strategy's divisors.

    h19, h23 and h24 map five letters; a ternary witness reads only their
    images of 0-2, so they are listed as they are.  Every map here is a
    catalog entry, certified once per process.
    """
    names = ("u11", "u12", "u13", "h17", "h18", "h19", "h23", "h24", "B", "S")
    maps = [catalog.get_morphism(name) for name in names]
    return {h.max_image_length: h for h in maps}


@lru_cache(maxsize=1)
def _uniform_five_to_three() -> dict[int, Morphism]:
    """The 5->3 catalog maps keyed by image length, in the pipeline's order."""
    maps = [catalog.get_morphism(name) for name in ("h19", "h23", "h24", "u18", "u22")]
    return {h.max_image_length: h for h in maps}


def _factor_length(n: int) -> int | None:
    usable = [d for d in _uniform_ternary() if n % d == 0 and n // d >= 3]
    return max(usable, default=None)  # largest divisor = cheapest recursion


def _interval_bases(n: int) -> list[int]:
    low = -(-n // 18)
    high = n // 17
    return [length for length in range(low, high + 1) if length >= 3]


def _witness_path(n: int) -> Path:
    return cache_dir() / f"witness-{n:05d}.json"


def _load_cached(n: int) -> tuple[ShuffleWitness, str] | None:
    # Cache files are input from outside the program: anything but a JSON
    # object of this cache version holding a verified witness of length n
    # reads as a miss.
    try:
        stored = json.loads(_witness_path(n).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(stored, dict) or stored.get("version") != CACHE_VERSION:
        return None
    fields = [stored.get(key) for key in ("u", "beta", "w", "strategy")]
    if not all(isinstance(field, str) for field in fields):
        return None
    u, beta, w, strategy = fields
    witness = ShuffleWitness(u, beta, w)
    if strategy not in STRATEGIES or len(u) != n or not verify_witness(witness):
        return None
    return witness, strategy


def _store(n: int, witness: ShuffleWitness, strategy: str) -> None:
    _write_json_atomic(
        _witness_path(n),
        {"version": CACHE_VERSION, "n": n, "u": witness.u, "beta": witness.beta,
         "w": witness.w, "strategy": strategy},
    )


def _build(n: int) -> tuple[ShuffleWitness, str]:
    entry = catalog.find_entry(f"w{n}")
    if entry is not None and entry.kind == "witness":
        return entry.payload, "base"
    if entry is not None and entry.kind == "composition":
        return catalog.expand_composition(entry.payload), "composition"

    d = _factor_length(n)
    if d is not None:
        inner, _ = construct_with_strategy(n // d)
        return apply_morphism_to_witness(inner, _uniform_ternary()[d]), "factor"

    bases = _interval_bases(n)
    for length in bases:
        for k, h in _uniform_five_to_three().items():
            if length % k or length // k < 3:
                continue
            five = sigma5_witness(length // k)
            ternary = apply_morphism_to_witness(five, h)
            return substitution_interval_witness(ternary, n), "sigma5-pipeline"

    if bases:
        inner, _ = construct_with_strategy(bases[0])
        return substitution_interval_witness(inner, n), "substitution-interval"

    # Last resort, mirroring how the stored tables were produced in the first
    # place: scan square-free words in lexicographic order for one that
    # shuffles with itself to a square-free word.
    for u in enumerate_square_free(3, n):
        found = find_self_shuffle_betas(u, limit=1)
        if found:
            beta, word = found[0]
            return ShuffleWitness(u, beta, word), "direct-search"

    raise UnconstructedLengthError(f"no strategy produced a witness of length {n}")


def construct_with_strategy(n: int) -> tuple[ShuffleWitness, str]:
    """Verified witness of length n plus the name of the strategy that made it."""
    if n < 3:
        raise ValueError(f"witness lengths start at 3, got {n}")
    cached = _load_cached(n)
    if cached is not None:
        return cached
    witness, strategy = _build(n)
    if len(witness.u) != n or not verify_witness(witness):
        raise AssertionError(f"strategy {strategy} returned a bad witness for n={n}")
    _store(n, witness, strategy)
    return witness, strategy


def construct_witness(n: int) -> ShuffleWitness:
    """A verified self-shuffle witness over the ternary alphabet, any n >= 3."""
    witness, _ = construct_with_strategy(n)
    return witness


def coverage_report(n_max: int) -> CoverageReport:
    """Run the constructor over [3, n_max] and record what each length used."""
    if n_max < 3:
        raise ValueError(f"coverage starts at length 3, got {n_max}")
    attained: list[int] = []
    gaps: list[int] = []
    strategies: dict[int, str] = {}
    for n in range(3, n_max + 1):
        try:
            _, strategy = construct_with_strategy(n)
        except UnconstructedLengthError:
            gaps.append(n)
            continue
        attained.append(n)
        strategies[n] = strategy
    return CoverageReport(3, n_max, tuple(attained), tuple(gaps), strategies)
