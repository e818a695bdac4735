"""Witness construction for every length.

Produces a verified self-shuffle witness (u, beta, w) over the ternary
alphabet for any requested length n >= 3.  Strategies are tried in order of
cost: stored base witnesses, the stored composition rules, factoring n through
a uniform square-free morphism, the five-letter pipeline with the stretch
substitution, a stretch interval over the least shorter length that reaches
n, and finally a direct backtracking search.  Every map lifted through is a
catalog entry.  A witness lifted through a certified catalog map is checked
by its derivation (`_check_lift`); every other witness, and the pipeline's
five-letter seed, is verified from the definitions by `verify_witness`.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from . import catalog
from .morphisms import Morphism, Substitution, _certificate, _image
from .search import find_self_shuffle_betas
from .shuffle import ShuffleWitness, _lift_witness, _runs, shuffle_conducted, verify_witness
from .words import DIGITS, enumerate_square_free, lex_least_square_free_prefix

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


class _Lift(NamedTuple):
    # One step of a witness's derivation: the witness is inner lifted
    # through the catalog map `name`, with one image choice per letter of
    # inner.u for a substitution (None for a morphism).  In the
    # sigma5-pipeline, inner is itself the lift of the five-letter seed.
    name: str
    h: Morphism | Substitution
    choices: tuple[int, ...] | None
    inner: ShuffleWitness
    inner_step: _Lift | None = None


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
    verifies it from the definitions as the seed of the lifts it makes.
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
    `construct_with_strategy` checks it by that derivation.  Refuses any h
    whose certificate, made once per process, does not come back clean.  The
    composition strategy does not lift through here:
    `catalog.expand_composition` uses sigma_1..sigma_17 uncertified, and
    only the final `verify_witness` proves what it builds.
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
    construction; `construct_with_strategy` checks it by that derivation.
    """
    return _lifted(_stretch(witness, target))


def _stretch(inner: ShuffleWitness, target: int, inner_step: _Lift | None = None) -> _Lift:
    # The lift of inner through stretch to length target, long images leftmost.
    length = len(inner.u)
    low, high = 17 * length, 18 * length
    if not low <= target <= high:
        raise ValueError(
            f"target {target} outside the stretch interval [{low}, {high}] of a length-{length} base"
        )
    long_count = target - low
    choices = (1,) * long_count + (0,) * (length - long_count)
    return _Lift("stretch", catalog.get_substitution("stretch"), choices, inner, inner_step)


def _lifted(step: _Lift) -> ShuffleWitness:
    return apply_morphism_to_witness(step.inner, step.h, step.choices)


@lru_cache(maxsize=1)
def _uniform_ternary() -> dict[int, tuple[str, Morphism]]:
    """Uniform catalog maps into 0-2, named and keyed by image length: the factor divisors.

    h19, h23 and h24 map five letters; a ternary witness reads only their
    images of 0-2, so they are listed as they are.  Every map here is a
    catalog entry, certified once per process.
    """
    names = ("u11", "u12", "u13", "h17", "h18", "h19", "h23", "h24", "B", "S")
    maps = [(name, catalog.get_morphism(name)) for name in names]
    return {h.max_image_length: (name, h) for name, h in maps}


@lru_cache(maxsize=1)
def _uniform_five_to_three() -> dict[int, tuple[str, Morphism]]:
    """The 5->3 catalog maps, named and keyed by image length, in the pipeline's order."""
    maps = [(name, catalog.get_morphism(name)) for name in ("h19", "h23", "h24", "u18", "u22")]
    return {h.max_image_length: (name, h) for name, h in maps}


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


def _build(n: int) -> tuple[ShuffleWitness, str, _Lift | None]:
    # The witness, its strategy and, for a lift through a catalog map, its step.
    entry = catalog.find_entry(f"w{n}")
    if entry is not None and entry.kind == "witness":
        return entry.payload, "base", None
    if entry is not None and entry.kind == "composition":
        return catalog.expand_composition(entry.payload), "composition", None

    d = _factor_length(n)
    if d is not None:
        inner, _ = construct_with_strategy(n // d)
        name, h = _uniform_ternary()[d]
        step = _Lift(name, h, None, inner)
        return _lifted(step), "factor", step

    bases = _interval_bases(n)
    for length in bases:
        for k, (name, h) in _uniform_five_to_three().items():
            if length % k or length // k < 3:
                continue
            seed = _Lift(name, h, None, sigma5_witness(length // k))
            step = _stretch(_lifted(seed), n, seed)
            return _lifted(step), "sigma5-pipeline", step

    if bases:
        inner, _ = construct_with_strategy(bases[0])
        step = _stretch(inner, n)
        return _lifted(step), "substitution-interval", step

    # Last resort, mirroring how the stored tables were produced in the first
    # place: scan square-free words in lexicographic order for one that
    # shuffles with itself to a square-free word.
    for u in enumerate_square_free(3, n):
        found = find_self_shuffle_betas(u, limit=1)
        if found:
            beta, word = found[0]
            return ShuffleWitness(u, beta, word), "direct-search", None

    raise UnconstructedLengthError(f"no strategy produced a witness of length {n}")


def _check_lift(witness: ShuffleWitness, step: _Lift) -> bool:
    """True iff witness is a self-shuffle witness, shown through its lift step.

    h's clean certificate, made from the definitions up to Crochemore's
    bound (TCS 18, 1982), says h sends square-free words over its source
    alphabet to square-free words, under any image choices.  So with the
    inner witness (u', beta', w') checked, u = h(u') and w = h(w') are
    square-free; w' takes the choice of the letter of u' it came from, the
    choices conducted with themselves by beta'.  A balanced beta conducting
    u with itself to w gives the rest of `verify_witness`, all compared
    letter for letter.  The inner witness came from, and was checked by,
    `construct_with_strategy`, except in the pipeline: there its own step
    checks it, and `verify_witness` the five-letter seed.
    """
    u, beta, w = witness.u, witness.beta, witness.w
    h, choices, inner = step.h, step.choices, step.inner
    if not _certificate(h).certified or not set(inner.u) <= set(DIGITS[:h.src_size]):
        return False
    if len(beta) != 2 * len(u) or beta.count("0") != len(u) or beta.count("1") != len(u):
        return False
    carried = None if choices is None else [
        c for _, start, stop in _runs(inner.beta, len(inner.u), len(inner.u))
        for c in choices[start:stop]]
    return (u == _image(h, inner.u, choices) and w == _image(h, inner.w, carried)
            and shuffle_conducted(u, u, beta) == w
            and (step.inner_step is None
                 or (verify_witness(step.inner_step.inner)
                     and _check_lift(inner, step.inner_step))))


def construct_with_strategy(n: int) -> tuple[ShuffleWitness, str]:
    """Verified witness of length n plus the name of the strategy that made it."""
    if n < 3:
        raise ValueError(f"witness lengths start at 3, got {n}")
    cached = _load_cached(n)
    if cached is not None:
        return cached
    witness, strategy, step = _build(n)
    checked = verify_witness(witness) if step is None else _check_lift(witness, step)
    if len(witness.u) != n or not checked:
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
