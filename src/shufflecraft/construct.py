"""Witness construction for every length.

Produces a verified self-shuffle witness (u, beta, w) over the ternary
alphabet for any requested length n >= 3.  Strategies are tried in order of
cost: stored base witnesses, the stored composition rules, factoring n through
a uniform square-free morphism, the five-letter pipeline with the stretch
substitution, a stretch interval over any constructible shorter length, and
finally a direct backtracking search.  Whatever the route, the returned
witness is re-verified from scratch.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import catalog
from .morphisms import (
    Certificate,
    Morphism,
    Substitution,
    apply_morphism,
    certify_square_free_morphism,
    certify_square_free_substitution,
    search_uniform_square_free_morphism,
    substitute_with_choices,
)
from .search import find_self_shuffle_betas
from .shuffle import ShuffleWitness, lift_conducting, shuffle_conducted, verify_witness
from .words import DIGITS, enumerate_square_free, lex_least_square_free_prefix

CACHE_ENV = "SHUFFLECRAFT_CACHE_DIR"

# Uniform ternary image lengths the factoring strategy may search for.  11 is
# the smallest length admitting a uniform square-free ternary morphism, and
# lengths 14, 15, 16, 20, 21, 22 are the known exceptions; larger lengths are
# never searched here because the direct strategies below are cheaper.
SEARCHED_TERNARY_LENGTHS = (11, 12, 13)
PIPELINE_IMAGE_LENGTHS = (19, 23, 24, 18, 22)

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


def _read_json(path: Path) -> dict | None:
    # Cache files are input from outside the program: anything but a JSON
    # object reads as a miss.
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return stored if isinstance(stored, dict) else None


@lru_cache(maxsize=None)
def _morphism_certificate(h: Morphism) -> Certificate:
    return certify_square_free_morphism(h)


@lru_cache(maxsize=None)
def _substitution_certificate(s: Substitution) -> Certificate:
    return certify_square_free_substitution(s)


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

    The conducting sequence is stretched run by run, so the new interleaving
    is exactly the image of the old one and stays square-free: the result is
    a witness by construction from a certified map, and
    `construct_with_strategy` verifies it.  Refuses any h whose certification
    does not come back clean, because the result could then not be trusted
    as a witness.
    """
    if isinstance(h, Substitution):
        if choices is None:
            raise ValueError("substitution lifting needs one image choice per position")
        cert = _substitution_certificate(h)
        new_u = substitute_with_choices(h, witness.u, choices)
    else:
        cert = _morphism_certificate(h)
        new_u = apply_morphism(h, witness.u)
    if not cert.certified:
        raise ValueError(
            f"refusing to lift through an uncertified map ({cert.subject}: {cert.verdict})"
        )
    new_beta = lift_conducting(witness.beta, witness.u, h, choices=choices)
    return ShuffleWitness(new_u, new_beta, shuffle_conducted(new_u, new_u, new_beta))


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


@lru_cache(maxsize=8)
def _fixed_uniform_ternary() -> dict[int, Morphism]:
    h17 = catalog.get_morphism("h17")
    h18 = catalog.get_morphism("h18")
    out = {17: h17, 18: h18}
    for name in ("h19", "h23", "h24", "B", "S"):
        wide = catalog.get_morphism(name)
        narrowed = Morphism(3, wide.dst_size, wide.images[:3])
        out[narrowed.max_image_length] = narrowed
    return out


def _searched_morphism(src_size: int, dst_size: int, image_length: int) -> Morphism | None:
    """Search result for a uniform square-free morphism, cached on disk."""
    path = cache_dir() / f"uniform-{src_size}-{dst_size}-{image_length}.json"
    stored = _read_json(path) or {}
    if stored.get("status") == "found":
        images = stored.get("images")
        if (isinstance(images, list) and len(images) == src_size
                and all(isinstance(img, str) and len(img) == image_length for img in images)
                and set("".join(images)) <= set(DIGITS[:dst_size])):
            h = Morphism(src_size, dst_size, tuple(images))
            if _morphism_certificate(h).certified:
                return h
    elif stored.get("status") == "exhausted":
        return None
    # a search that ran out of budget, or a file that does not hold a
    # certified morphism of this shape, settles nothing, so search again
    result = search_uniform_square_free_morphism(src_size, dst_size, image_length)
    payload = {"status": result.status}
    if result.morphism is not None:
        payload["images"] = list(result.morphism.images)
    _write_json_atomic(path, payload)
    return result.morphism


def _uniform_ternary(image_length: int) -> Morphism | None:
    fixed = _fixed_uniform_ternary()
    if image_length in fixed:
        return fixed[image_length]
    if image_length in SEARCHED_TERNARY_LENGTHS:
        return _searched_morphism(3, 3, image_length)
    return None


def _uniform_five_to_three(image_length: int) -> Morphism | None:
    if image_length in (19, 23, 24):
        return catalog.get_morphism(f"h{image_length}")
    if image_length in (18, 22):
        return _searched_morphism(5, 3, image_length)
    return None


def _factor_lengths(n: int) -> list[int]:
    lengths = set(_fixed_uniform_ternary()) | set(SEARCHED_TERNARY_LENGTHS)
    usable = [d for d in lengths if n % d == 0 and n // d >= 3]
    return sorted(usable, reverse=True)  # largest divisor = cheapest recursion


def _interval_bases(n: int) -> list[int]:
    low = -(-n // 18)
    high = n // 17
    return [length for length in range(low, high + 1) if length >= 3]


def _witness_path(n: int) -> Path:
    return cache_dir() / f"witness-{n:05d}.json"


def _load_cached(n: int) -> tuple[ShuffleWitness, str] | None:
    stored = _read_json(_witness_path(n)) or {}
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
        {"n": n, "u": witness.u, "beta": witness.beta, "w": witness.w, "strategy": strategy},
    )


def _build(n: int) -> tuple[ShuffleWitness, str]:
    bases = catalog.base_witnesses()
    if n in bases:
        return bases[n], "base"

    entry = catalog.find_entry(f"w{n}")
    if entry is not None and entry.kind == "composition":
        return catalog.expand_composition(entry.payload), "composition"

    for d in _factor_lengths(n):
        h = _uniform_ternary(d)
        if h is None:
            continue
        try:
            inner, _ = construct_with_strategy(n // d)
        except UnconstructedLengthError:
            continue
        return apply_morphism_to_witness(inner, h), "factor"

    for length in _interval_bases(n):
        for k in PIPELINE_IMAGE_LENGTHS:
            if length % k or length // k < 3:
                continue
            h = _uniform_five_to_three(k)
            if h is None:
                continue
            five = sigma5_witness(length // k)
            ternary = apply_morphism_to_witness(five, h)
            return substitution_interval_witness(ternary, n), "sigma5-pipeline"

    for length in _interval_bases(n):
        try:
            inner, _ = construct_with_strategy(length)
        except UnconstructedLengthError:
            continue
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
