"""Prefix verification of the infinite-word statements.

Each statement here is about infinite words, so what can be checked by a
program is any finite prefix.  The verifiers below take a prefix length,
perform every check the statement makes on that prefix, and report the first
violation if one exists.  A `holds=True` verdict means the prefix is
consistent with the statement, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import catalog
from .morphisms import apply_morphism, fixed_point_prefix
from .shuffle import shuffle_conducted
from .words import find_square, is_lyndon, parikh

THEOREMS = ("theorem4", "theorem5", "abelian", "lyndon")


@dataclass(frozen=True)
class PrefixVerdict:
    theorem: str
    prefix_length: int
    holds: bool
    first_violation: Optional[str] = None


def _carrier(length: int) -> str:
    tau = catalog.get_morphism("tau")
    return fixed_point_prefix(tau, 0, length)


def _beta_block(letter: str) -> str:
    alpha = catalog.get_morphism("alpha")
    return "".join(catalog.get_beta(f"beta{j}") for j in alpha.images[int(letter)])


def verify_theorem4(n: int) -> PrefixVerdict:
    """Blockwise self-shuffle of the 48-uniform image onto the 96-uniform one.

    The carrier is the ternary fixed point of tau.  For each of its letters i,
    the 96-letter block S(i) must equal B(i) shuffled with itself under the
    96-bit conducting block assembled from the four stored 24-bit sequences
    (one per letter of alpha(i)), and both image prefixes must stay
    square-free.  n counts letters of the shuffled word; it is rounded down
    to whole blocks.
    """
    if n < 1:
        raise ValueError(f"prefix length must be positive, got {n}")
    blocks = n // 96
    if blocks == 0:
        # Whole blocks only; below one block there is nothing to verify.
        return PrefixVerdict("theorem4", 0, True)
    b = catalog.get_morphism("B")
    s = catalog.get_morphism("S")
    carrier = _carrier(blocks)
    for t, letter in enumerate(carrier):
        left = b.images[int(letter)]
        if shuffle_conducted(left, left, _beta_block(letter)) != s.images[int(letter)]:
            return PrefixVerdict(
                "theorem4", 96 * blocks, False,
                f"block {t} (carrier letter {letter}): shuffle does not match",
            )
    b_prefix = apply_morphism(b, carrier)
    s_prefix = apply_morphism(s, carrier)
    for name, prefix in (("operand", b_prefix), ("shuffled", s_prefix)):
        occ = find_square(prefix)
        if occ is not None:
            return PrefixVerdict(
                "theorem4", 96 * blocks, False,
                f"{name} prefix has a square at {occ.start} of half-length {occ.half_length}",
            )
    return PrefixVerdict("theorem4", 96 * blocks, True)


def verify_theorem5(n: int) -> PrefixVerdict:
    """A word that is a shuffle of its own image with itself.

    u is the fixed point of the 18-uniform morphism whose images carry one
    marked letter at index 6; w drops the marked letters, which makes it the
    image of u under the 17-uniform companion morphism.  Conducting with the
    period 0^6 1 0^11, the zeros consume w and the single one per period
    consumes u itself, reproducing u.  n is rounded down to whole periods.

    Checks, in order: the marked letters u[18t+6] spell out u again, the w
    prefix is square-free, the u prefix is square-free, and w shuffled with
    the first n // 18 letters of u under the repeated period rebuilds the u
    prefix.
    """
    if n < 1:
        raise ValueError(f"prefix length must be positive, got {n}")
    periods = n // 18
    if periods == 0:
        return PrefixVerdict("theorem5", 0, True)
    h18 = catalog.get_morphism("h18")
    h17 = catalog.get_morphism("h17")
    length = 18 * periods
    u = fixed_point_prefix(h18, 0, length)
    for t in range(periods):
        if u[18 * t + 6] != u[t]:
            return PrefixVerdict(
                "theorem5", length, False,
                f"marked letter at {18 * t + 6} is {u[18 * t + 6]}, expected u[{t}] = {u[t]}",
            )
    w = apply_morphism(h17, u[:periods])
    for name, prefix in (("companion", w), ("fixed-point", u)):
        occ = find_square(prefix)
        if occ is not None:
            return PrefixVerdict(
                "theorem5", length, False,
                f"{name} prefix has a square at {occ.start} of half-length {occ.half_length}",
            )
    period = "0" * 6 + "1" + "0" * 11
    if shuffle_conducted(w, u[:periods], period * periods) != u:
        return PrefixVerdict("theorem5", length, False, "consumption does not rebuild the prefix")
    return PrefixVerdict("theorem5", length, True)


def verify_abelian_periodicity(n: int, p: int, word: Optional[str] = None) -> PrefixVerdict:
    """Consecutive p-blocks of the word share one letter-count vector.

    Defaults to the 48-uniform image of the tau fixed point, whose 48-blocks
    each hold 16 of every letter.  n is rounded down to whole blocks.
    """
    if p < 1:
        raise ValueError(f"period must be positive, got {p}")
    blocks = n // p
    if blocks == 0:
        return PrefixVerdict("abelian", 0, True)
    if word is None:
        b = catalog.get_morphism("B")
        carrier = _carrier(-(-p * blocks // 48))
        word = apply_morphism(b, carrier)
    if len(word) < p * blocks:
        raise ValueError(f"word of length {len(word)} is shorter than {p * blocks}")
    size = max(int(c) for c in word[: p * blocks]) + 1
    reference = parikh(word[:p], size)
    for t in range(1, blocks):
        counts = parikh(word[p * t : p * (t + 1)], size)
        if counts != reference:
            return PrefixVerdict(
                "abelian", p * blocks, False,
                f"block {t} has letter counts {counts}, block 0 has {reference}",
            )
    return PrefixVerdict("abelian", p * blocks, True)


def verify_lyndon_example() -> PrefixVerdict:
    """Both operand and shuffle of the stored length-8 witness are Lyndon.

    The shuffled word is also strictly smaller than the operand, so a
    self-shuffle can be Lyndon-decreasing.
    """
    witness = catalog.get_witness("lyndon8")
    if not witness.verify():
        return PrefixVerdict("lyndon", len(witness.u), False, "stored witness fails verification")
    if not is_lyndon(witness.u):
        return PrefixVerdict("lyndon", len(witness.u), False, f"{witness.u} is not Lyndon")
    if not is_lyndon(witness.w):
        return PrefixVerdict("lyndon", len(witness.u), False, f"{witness.w} is not Lyndon")
    if not witness.w < witness.u:
        return PrefixVerdict(
            "lyndon", len(witness.u), False,
            f"shuffled word {witness.w} is not smaller than the operand {witness.u}",
        )
    return PrefixVerdict("lyndon", len(witness.u), True)
