"""Workload inputs, the operations that consume them, and their checks.

make_ops builds a workload's operation list from the seed alone.  Each
operation is a small JSON-able dict; execute runs one through the public API
or `shufflecraft.cli.run` and returns a JSON-able output, and fault re-checks
that output with perfbench.oracle, outside any timed section.
"""

from __future__ import annotations

import hashlib
import math
import random
import re

import oracle

WORKLOADS = ("construct-cold", "verify-warm", "certify", "search")
STRATEGIES = (
    "base", "composition", "factor", "sigma5-pipeline", "substitution-interval", "direct-search",
)
REFUTED_MORPHISMS = ("tau", "rho", "sigma")

# Sizes per scale.  "full" is the benchmark proper; "toy" keeps every
# operation kind but only cheap inputs, for the smoke test.
#
# Construct lengths are drawn log-uniformly inside strata: 8 over [3, 100],
# where the base, composition and direct-search strategies live, 20 over
# [100, 700] and 120 over [700, 3000].  The median operation and the tail
# sample (the 11th largest) then both fall in the top stratum, where the cost
# of a construct follows its length more than its strategy, so neither moves
# much from seed to seed.  Lengths stop at 3000: a cold 10^5-letter construct
# takes ~8 s, so a few such draws would decide a run; 10^5-letter square
# checks are timed in verify-warm's theorem prefixes.  find-beta operands
# stop at 24 letters for the same reason: --all on a 30-32 letter operand
# took anywhere from 0.04 s to 6 s.
SIZES = {
    "full": {
        "construct": ((3, 100, 8), (100, 700, 20), (700, 3000, 120)),
        "theorem_prefix": 100_000,
        "squarefree": (500, 4000, 6),
        "operands": (18, 24, 4),
        "search_steps": (5000, 10000),
        "unshuffled": (16, 32),
        "enumerate": (26, 30),
        "searches": ((3, 3, 11), (3, 3, 12), (3, 3, 13), (5, 3, 18)),
        "catalog_filter": None,
    },
    "toy": {
        "construct": ((3, 80, 8),),
        "theorem_prefix": 2000,
        "squarefree": (60, 200, 2),
        "operands": (8, 11, 1),
        "search_steps": (0, 12000),
        "unshuffled": (8, 16),
        "enumerate": (8, 10),
        "searches": ((3, 3, 11),),
        "catalog_filter": ("tau", "rho", "alpha", "h17", "w3", "w10", "lyndon8", "sigma1", "w18"),
    },
}

# Lengths whose construction needs, between them, every uniform morphism
# that construct searches for instead of reading from the catalog.
PRIMERS = {"full": (33, 36, 39, 919, 1123), "toy": (33, 36, 39)}


def _stratified_log(rng: random.Random, lo: int, hi: int, strata: int) -> list[int]:
    # One log-uniform draw per stratum keeps large and small lengths in every
    # seed's mix, so the cost of a seed's list varies little between seeds.
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / strata
    drawn = {round(math.exp(a + (k + rng.random()) * width)) for k in range(strata)}
    return sorted(drawn)


def construct_lengths(seed: int, scale: str) -> list[int]:
    rng = random.Random(f"construct:{seed}")
    drawn = {n for lo, hi, strata in SIZES[scale]["construct"] for n in _stratified_log(rng, lo, hi, strata)}
    return sorted(drawn)


def _fixed_point(images: tuple[str, ...], length: int) -> str:
    w = "0"
    while len(w) < length:
        w = "".join(images[int(a)] for a in w[:length])
    return w[:length]


def _squarefree_ops(rng: random.Random, scale: str, h18_images: tuple[str, ...]) -> list[dict]:
    # Factors of a square-free fixed point are square-free.  A planted word
    # swaps its last letter for one that closes a square, so every square in
    # it ends at the last letter and the earliest is the longest of those.
    lo, hi, strata = SIZES[scale]["squarefree"]
    source = _fixed_point(h18_images, 60_000)
    ops = []
    for m in _stratified_log(rng, lo, hi, strata):
        start = rng.randrange(len(source) - m)
        clean = source[start : start + m]
        body = clean[:-1]
        closing = [c for c in "012" if c != clean[-1] and oracle.longest_final_square(body + c)]
        planted = body + max(closing, key=lambda c: oracle.longest_final_square(body + c)[1])
        ops.append({"kind": "cli", "argv": ["squarefree", clean]})
        ops.append({"kind": "cli", "argv": ["squarefree", planted]})
    return ops


def _search_ops(rng: random.Random, scale: str) -> list[dict]:
    lo, hi, per_length = SIZES[scale]["operands"]
    fewest, most = SIZES[scale]["search_steps"]
    shortest, longest = SIZES[scale]["unshuffled"]
    ops = []
    for length in [n for n in range(lo, hi + 1) for _ in range(per_length)]:
        # The cost of find-beta --all follows the size of its search tree,
        # which varies a hundredfold between operands of one length.  Only
        # operands whose tree the oracle walks in a fixed band of steps are
        # used, and only ones with a self-shuffle, so the listing can be
        # compared with the oracle's in full.
        while True:
            u = oracle.random_square_free(rng, length)
            try:
                betas, steps = oracle.self_shuffles(u, limit=most)
            except oracle.TooLong:
                continue
            if betas and steps >= fewest:
                break
        listing = "\n".join(betas)
        ops.append({"kind": "cli", "argv": ["find-beta", u, "--all"],
                    "betas": hashlib.sha256(listing.encode()).hexdigest()})
        ops.append({"kind": "cli", "argv": ["unshuffle", oracle.interleave(u, u, betas[0])], "shuffle": True})
        other = oracle.random_square_free(rng, 2 * rng.randint(shortest // 2, longest // 2))
        ops.append({"kind": "cli", "argv": ["unshuffle", other]})
    for top in SIZES[scale]["enumerate"]:
        ops.append({"kind": "cli", "argv": ["enumerate", "--max-length", str(top)]})
    rng.shuffle(ops)
    return ops


def _certify_ops(rng: random.Random, scale: str, catalog) -> list[dict]:
    # One operation per catalog entry, with the public calls verify_catalog
    # makes for it; the seed only fixes the order.
    keep = SIZES[scale]["catalog_filter"]
    ops = []
    for name in catalog.entry_names():
        kind = catalog.get_entry(name).kind
        if keep is not None and name not in keep:
            continue
        if kind == "morphism":
            expect = "refuted" if name in REFUTED_MORPHISMS else "certified"
            ops.append({"kind": "certify-morphism", "name": name, "expect": expect})
        elif kind == "substitution":
            ops.append({"kind": "certify-substitution", "name": name})
        elif kind == "witness":
            ops.append({"kind": "witness", "name": name})
        elif kind == "composition":
            ops.append({"kind": "composition", "name": name})
    for src, dst, length in SIZES[scale]["searches"]:
        ops.append({"kind": "search-uniform", "src": src, "dst": dst, "length": length})
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, scale: str, catalog) -> list[dict]:
    """The seed's operation list; catalog is shufflecraft.catalog, read for data only."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "construct-cold":
        return [{"kind": "construct", "n": n} for n in construct_lengths(seed, scale)]
    if workload == "verify-warm":
        ops = [{"kind": "construct", "n": n} for n in construct_lengths(seed, scale)]
        prefix = SIZES[scale]["theorem_prefix"]
        ops += [{"kind": "theorem4", "n": prefix}, {"kind": "theorem5", "n": prefix}]
        ops += _squarefree_ops(rng, scale, catalog.get_morphism("h18").images)
        rng.shuffle(ops)
        return ops
    if workload == "certify":
        return _certify_ops(rng, scale, catalog)
    if workload == "search":
        return _search_ops(rng, scale)
    raise ValueError(f"unknown workload {workload!r}")


def execute(sc, op: dict):
    """Run one operation through the library sc (the shufflecraft package)."""
    kind = op["kind"]
    if kind == "construct":
        witness, strategy = sc.construct_with_strategy(op["n"])
        return [witness.u, witness.beta, witness.w, strategy]
    if kind in ("theorem4", "theorem5"):
        verify = sc.verify_theorem4 if kind == "theorem4" else sc.verify_theorem5
        verdict = verify(op["n"])
        return [verdict.holds, verdict.prefix_length, verdict.first_violation]
    if kind == "cli":
        result = sc.cli.run(list(op["argv"]))
        return [result.exit_code, result.payload]
    if kind == "certify-morphism":
        cert = sc.certify_square_free_morphism(sc.catalog.get_morphism(op["name"]), subject=op["name"])
        example = cert.counterexample
        found = [example[0], example[1].start, example[1].half_length] if example else None
        return [cert.verdict, cert.checked_count, found]
    if kind == "certify-substitution":
        cert = sc.certify_square_free_substitution(
            sc.catalog.get_substitution(op["name"]), subject=op["name"]
        )
        return [cert.verdict, cert.checked_count]
    if kind == "witness":
        witness = sc.catalog.get_witness(op["name"])
        return [witness.u, witness.beta, witness.w, sc.verify_witness(witness)]
    if kind == "composition":
        rule = sc.catalog.get_entry(op["name"]).payload
        witness = sc.catalog.expand_composition(rule)
        return [witness.u, witness.beta, witness.w, sc.verify_witness(witness), rule.target_length]
    if kind == "search-uniform":
        result = sc.search_uniform_square_free_morphism(op["src"], op["dst"], op["length"])
        images = list(result.morphism.images) if result.morphism is not None else None
        return [result.status, images]
    raise ValueError(f"unknown operation kind {kind!r}")


def _image(h, w: str) -> str:
    return "".join(h.images[int(a)] for a in w)


def _theorem_fault(kind: str, n: int, out: list, catalog) -> str | None:
    holds, prefix_length, _ = out
    if kind == "theorem4":
        blocks = n // 96
        if not holds or prefix_length != 96 * blocks:
            return f"theorem4 verdict {out}"
        carrier = _fixed_point(catalog.get_morphism("tau").images, blocks)
        claims = (_image(catalog.get_morphism(name), carrier) for name in ("B", "S"))
    else:
        periods = n // 18
        if not holds or prefix_length != 18 * periods:
            return f"theorem5 verdict {out}"
        u = _fixed_point(catalog.get_morphism("h18").images, 18 * periods)
        if any(u[18 * t + 6] != u[t] for t in range(periods)):
            return "theorem5 marked letters do not spell the fixed point"
        claims = (u, _image(catalog.get_morphism("h17"), u[:periods]))
    if not all(oracle.square_free(w) for w in claims):
        return f"{kind} holds on a prefix that has a square"
    return None


def _cli_fault(op: dict, code: int, payload: str) -> str | None:
    command, arg = op["argv"][0], op["argv"][1]
    if command == "squarefree":
        final = oracle.longest_final_square(arg)
        if not oracle.square_free(arg[:-1]) or (final is None) != oracle.square_free(arg):
            return "input is not a square-free body plus one letter"
        if final is None:
            expected = ("square-free", 0)
        else:
            start, half = final
            expected = (f"square at ({start}, {half}): {arg[start:start + half]}", 1)
        return None if (payload, code) == expected else f"squarefree said {code} {payload[:80]!r}"
    if command == "find-beta":
        if code != 0:
            return "find-beta found nothing, but the operand has self-shuffles"
        betas = []
        for line in payload.splitlines():
            beta, _, word = line.partition(" -> ")
            if oracle.interleave(arg, arg, beta) != word or not oracle.square_free(word):
                return f"listed {line!r} is not a square-free self-shuffle"
            betas.append(beta)
        if hashlib.sha256("\n".join(betas).encode()).hexdigest() != op["betas"]:
            return "listing differs from the oracle's ascending list of every sequence"
        return None
    if command == "unshuffle":
        if code == 1:
            if op.get("shuffle") or oracle.is_self_shuffle(arg):
                return "unshuffle missed a self-shuffle"
            return None if payload == f"{arg} is not a self-shuffle of any square-free word" else "bad refusal"
        match = re.fullmatch(r"u = ([0-9]*)\nbeta = ([01]*)", payload)
        if code != 0 or match is None:
            return f"unshuffle said {code} {payload[:80]!r}"
        u, beta = match.groups()
        if oracle.interleave(u, u, beta) != arg or not oracle.square_free(u):
            return "unshuffle answer does not rebuild the word"
        return None
    if command == "enumerate":
        top = int(op["argv"][2])
        rows = [tuple(map(int, line.split())) for line in payload.splitlines()[1:]]
        if code != 0 or [r[0] for r in rows] != list(range(4, top + 1, 2)):
            return "enumeration rows missing"
        for length, *counts in rows:
            if length in oracle.ENUMERATION_TABLE and tuple(counts) != oracle.ENUMERATION_TABLE[length]:
                return f"row {length} is {counts}"
            if length in oracle.SQUARE_FREE_COUNTS and counts[0] != oracle.SQUARE_FREE_COUNTS[length]:
                return f"row {length} counts {counts[0]} square-free words"
        return None
    return f"no check for command {command}"


def fault(op: dict, out, catalog) -> str | None:
    """Why out is a wrong answer to op, or None; catalog supplies data only."""
    kind = op["kind"]
    if kind == "construct":
        u, beta, w, strategy = out
        if strategy not in STRATEGIES:
            return f"unknown strategy {strategy!r}"
        return oracle.witness_fault(op["n"], u, beta, w)
    if kind in ("theorem4", "theorem5"):
        return _theorem_fault(kind, op["n"], out, catalog)
    if kind == "cli":
        return _cli_fault(op, *out)
    if kind == "certify-morphism":
        verdict, _, found = out
        if verdict != op["expect"]:
            return f"{op['name']} came back {verdict}"
        if verdict == "refuted":
            h = catalog.get_morphism(op["name"])
            word, start, half = found
            if not oracle.square_free(word) or not oracle.square_at(_image(h, word), start, half):
                return f"refutation of {op['name']} does not locate a square"
        return None
    if kind == "certify-substitution":
        return None if out[0] == "certified" else f"{op['name']} came back {out[0]}"
    if kind in ("witness", "composition"):
        u, beta, w, verified = out[:4]
        n = out[4] if kind == "composition" else len(u)
        if not verified:
            return f"{op['name']} was rejected"
        return oracle.witness_fault(n, u, beta, w)
    if kind == "search-uniform":
        status, images = out
        if status != "found":
            return f"search came back {status}"
        return oracle.uniform_morphism_fault(tuple(images), op["src"], op["length"])
    return f"no check for kind {kind}"
