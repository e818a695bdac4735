"""Conducted shuffles: interleavings of two words steered by a binary sequence.

A conducting sequence beta is a bit string; bit 0 consumes the next letter of
the first operand, bit 1 the next letter of the second.  Indexing is 0-based
throughout; the serialized forms match the text formats used elsewhere
("00101110" for finite beta, "(0610011)^w"-style for periodic ones).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .morphisms import Substitution, _image
from .words import check_word, is_square_free

__all__ = [
    "check_beta",
    "expand_runs",
    "PeriodicConductingSequence",
    "BlockDecomposition",
    "ShuffleWitness",
    "shuffle_conducted",
    "decompose_blocks",
    "lift_conducting",
    "find_conducting",
    "perfect_shuffle",
    "dual_word",
    "verify_witness",
]


_NOT_A_BIT = re.compile(r"[^01]")


def check_beta(beta: str) -> str:
    bad = _NOT_A_BIT.search(beta)
    if bad:
        raise ValueError(f"conducting sequences are binary, got letter {bad.group()!r}")
    return beta


def _runs(beta: str, first: int, second: int) -> Iterator[tuple[int, int, int]]:
    """Walk the maximal runs of beta over operands of the given lengths.

    beta is checked in full before anything is yielded; then each run comes
    out as (side, start, stop): side 0 or 1 names the operand the run
    consumes, and [start, stop) the slice of that operand it consumes.
    """
    check_beta(beta)
    zeros = beta.count("0")
    ones = len(beta) - zeros
    if zeros != first:
        raise ValueError(
            f"beta has {zeros} zeros but the first operand has {first} letters")
    if ones != second:
        raise ValueError(
            f"beta has {ones} ones but the second operand has {second} letters")
    return _walk_runs(beta)


def _walk_runs(beta: str) -> Iterator[tuple[int, int, int]]:
    # Each run ends where the other bit next occurs: one str.find per run.
    taken = [0, 0]
    side = int(beta[:1] == "1")
    pos = 0
    while pos < len(beta):
        end = beta.find("10"[side], pos)
        if end < 0:
            end = len(beta)
        start = taken[side]
        taken[side] = stop = start + end - pos
        yield side, start, stop
        side, pos = 1 - side, end


_RUN_TOKEN = re.compile(r"\s*([01])(?:\^(?:\{(\d+)\}|(\d+)))?")


def expand_runs(text: str) -> str:
    """Expand run-length notation like "0^{2}101^{2}" to a plain bit string.

    Whitespace separates tokens; an unbraced exponent ("0^25 1") must be
    followed by whitespace or the end so its digits stay unambiguous.
    """
    out = []
    pos = 0
    while pos < len(text):
        m = _RUN_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse conducting sequence {text!r}")
            break
        exp = m.group(2) or m.group(3)
        if m.group(3) and m.end() < len(text) and not text[m.end()].isspace():
            raise ValueError(
                f"ambiguous exponent in {text!r}; use braces or whitespace")
        out.append(m.group(1) * int(exp or 1))
        pos = m.end()
    return "".join(out)


@dataclass(frozen=True)
class PeriodicConductingSequence:
    """Infinite beta given by an endlessly repeated period."""

    period: str

    def __post_init__(self) -> None:
        check_beta(self.period)
        if "0" not in self.period or "1" not in self.period:
            raise ValueError("period must contain both bits")

    def prefix(self, n: int) -> str:
        reps = -(-n // len(self.period))
        return (self.period * reps)[:n]

    def text(self) -> str:
        return f"({self.period})^w"

    @classmethod
    def parse(cls, text: str) -> "PeriodicConductingSequence":
        m = re.fullmatch(r"\(([01]+)\)\^w", text.strip())
        if not m:
            raise ValueError(f"expected '(<bits>)^w', got {text!r}")
        return cls(m.group(1))


@dataclass(frozen=True)
class BlockDecomposition:
    """Alternating pieces u1, v1, u2, v2, ... of a conducted shuffle."""

    blocks: tuple[str, ...]

    @property
    def first_operand(self) -> str:
        return "".join(self.blocks[0::2])

    @property
    def second_operand(self) -> str:
        return "".join(self.blocks[1::2])

    @property
    def interleaved(self) -> str:
        return "".join(self.blocks)


@dataclass(frozen=True)
class ShuffleWitness:
    """A triple (u, beta, w) with w = u shuffled with itself under beta."""

    u: str
    beta: str
    w: str

    def verify(self) -> bool:
        return verify_witness(self)


def shuffle_conducted(u: str, v: str, beta: str) -> str:
    """Interleave u and v according to beta (0 pulls from u, 1 from v)."""
    operands = (u, v)
    return "".join(operands[side][start:stop]
                   for side, start, stop in _runs(beta, len(u), len(v)))


def decompose_blocks(u: str, v: str, beta: str) -> BlockDecomposition:
    """Cut u and v along the maximal runs of beta.

    Blocks alternate starting with a piece of u; an empty leading piece is
    inserted when beta starts with 1, and an empty trailing piece of v when
    it ends with 0, so the tuple always has even length.
    """
    operands = (u, v)
    blocks = [operands[side][start:stop]
              for side, start, stop in _runs(beta, len(u), len(v))]
    if beta.startswith("1"):
        blocks.insert(0, "")
    if len(blocks) % 2:
        blocks.append("")
    return BlockDecomposition(tuple(blocks))


def lift_conducting(beta: str, u: str, h, choices: Optional[Sequence[int]] = None) -> str:
    """Stretch beta so that it conducts h(u) with h(u) the way beta conducts u with u.

    Each maximal run of beta is replaced by a run of the same bit whose
    length is the total image length of the letters that run consumed.  For
    a substitution h the caller fixes one image choice per position of u
    (the same choice serves both copies).
    """
    runs = _runs(beta, len(u), len(u))
    lengths = _image_lengths(u, h, choices)
    return "".join("01"[side] * sum(lengths[start:stop]) for side, start, stop in runs)


def _image_lengths(u: str, h, choices: Optional[Sequence[int]]) -> list[int]:
    check_word(u, h.src_size)
    if isinstance(h, Substitution):
        if choices is None:
            raise ValueError("substitution lifting needs one image choice per position")
        if len(choices) != len(u):
            raise ValueError("choices must match the length of u")
        return [len(h.image_sets[int(a)][c]) for a, c in zip(u, choices)]
    return [len(h.images[int(a)]) for a in u]


def _lift_witness(witness: ShuffleWitness, h,
                  choices: Optional[Sequence[int]] = None) -> ShuffleWitness:
    """The image of a witness under a morphism or substitution h.

    beta is stretched run by run, so the new u conducted with itself under
    it is an image of the old w.  h is not certified here.
    """
    beta = lift_conducting(witness.beta, witness.u, h, choices)  # checks u and the choices
    u = _image(h, witness.u, choices)
    return ShuffleWitness(u, beta, shuffle_conducted(u, u, beta))


def find_conducting(u: str, v: str, w: str) -> Optional[str]:
    """Least beta with w = u shuffled with v, or None if w is not a shuffle.

    Dynamic programming over consumed-prefix pairs (i, j); the returned beta
    is lexicographically least because bit 0 is preferred at every step that
    can still finish.
    """
    n, m = len(u), len(v)
    if len(w) != n + m:
        return None
    feasible = [[False] * (m + 1) for _ in range(n + 1)]
    feasible[n][m] = True
    for p in range(n + m - 1, -1, -1):
        for i in range(max(0, p - m), min(n, p) + 1):
            j = p - i
            feasible[i][j] = (
                (i < n and u[i] == w[p] and feasible[i + 1][j])
                or (j < m and v[j] == w[p] and feasible[i][j + 1]))
    if not feasible[0][0]:
        return None
    bits = []
    i = j = 0
    for p in range(n + m):
        if i < n and u[i] == w[p] and feasible[i + 1][j]:
            bits.append("0")
            i += 1
        else:
            bits.append("1")
            j += 1
    return "".join(bits)


def perfect_shuffle(u: str, v: str) -> str:
    """Strictly alternating shuffle u(1)v(1)u(2)v(2)..."""
    if len(u) != len(v):
        raise ValueError("perfect shuffle needs operands of equal length")
    return "".join(a + b for a, b in zip(u, v))


_DUAL = str.maketrans("0123", "2301")


def dual_word(u: str) -> str:
    """Exchange 0 with 2 and 1 with 3 positionwise (alphabet of size 4)."""
    for c in u:
        if c not in "0123":
            raise ValueError(f"dual_word expects letters 0-3, got {c!r}")
    return u.translate(_DUAL)


def verify_witness(witness: ShuffleWitness) -> bool:
    """Re-check every ShuffleWitness invariant from scratch."""
    u, beta, w = witness.u, witness.beta, witness.w
    if len(beta) != 2 * len(u):
        return False
    if beta.count("0") != len(u) or beta.count("1") != len(u):
        return False
    return (shuffle_conducted(u, u, beta) == w
            and is_square_free(u)
            and is_square_free(w))
