"""Spans around every public function of every shufflecraft layer.

install() wraps each public module-level function and patches the wrapper
into every shufflecraft namespace holding that function, so calls from one
layer into another are caught as well as the benchmark's own calls.  Spans
are kept in flat arrays and analysed after the timed section: a span's self
time is its duration minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import STRATEGIES

LAYERS = ("cli", "construct", "catalog", "morphisms", "shuffle", "search", "limits", "words")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "layer.function"
        self.clear()

    def clear(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, fid: int) -> int:
        index = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, name: str, func):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        meter = _METERS.get(f"{layer}.{name}")

        if inspect.isgeneratorfunction(func):
            # A generator's time is the sum of its next() calls; the consumer's
            # work between items belongs to whoever consumes it.
            @functools.wraps(func)
            def traced_gen(*args, **kwargs):
                index = self.begin(fid)
                try:
                    items = func(*args, **kwargs)
                finally:
                    self.finish(index)
                while True:
                    index = self.begin(fid)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.finish(index)
                    yield item

            return traced_gen

        @functools.wraps(func)
        def traced(*args, **kwargs):
            measured = meter is not None and not (
                meter.entry_only and self.stack and self.names[self.fn[self.stack[-1]]].startswith(layer + ".")
            )
            before = meter.before(args) if measured and meter.before else None
            index = self.begin(fid)
            try:
                result = func(*args, **kwargs)
            except KeyError:
                self.counts[f"{layer}.{name}.raised"] += 1
                raise
            finally:
                self.finish(index)
            if measured:
                meter.after(self.counts, args, result, before)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"shufflecraft.{layer}") for layer in LAYERS]
        namespaces = [m for key, m in sys.modules.items() if key.split(".")[0] == "shufflecraft"]
        for layer, module in zip(LAYERS, modules):
            for name, func in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, func)
                for space in namespaces:
                    for attr, value in list(vars(space).items()):
                        if value is func:
                            setattr(space, attr, wrapper)

    def write(self, path: Path) -> None:
        """Write the spans once, after the run: names, then four flat arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write((json.dumps(self.names) + "\n").encode())
            for column in (self.fn, self.parent, self.start, self.end):
                handle.write(len(column).to_bytes(8, "little"))
                column.tofile(handle)

    def analyse(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded over a timed section of wall seconds."""
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        duration = [end[i] - start[i] for i in range(len(fn))]
        self_time = duration[:]
        for i, p in enumerate(parent):
            if p >= 0:
                self_time[p] -= duration[i]
        names = self.names
        layer_of = [name.split(".")[0] for name in names]
        fn_self: Counter = Counter()
        fn_calls: Counter = Counter()
        layer_self: Counter = Counter()
        layer_entries: Counter = Counter()
        layer_entry_time: Counter = Counter()
        top_level = 0.0
        verifications_in_construct = 0
        construct_id = names.index("construct.construct_with_strategy")
        verify_id = names.index("shuffle.verify_witness")
        for i, f in enumerate(fn):
            fn_self[names[f]] += self_time[i]
            fn_calls[names[f]] += 1
            layer_self[layer_of[f]] += self_time[i]
            p = parent[i]
            if p < 0:
                top_level += duration[i]
            if p < 0 or layer_of[fn[p]] != layer_of[f]:
                # The outermost span of a stretch of calls inside one layer.
                layer_entries[layer_of[f]] += 1
                layer_entry_time[layer_of[f]] += duration[i]
            if f == verify_id:
                while p >= 0 and fn[p] != construct_id:
                    p = parent[p]
                verifications_in_construct += p >= 0
        c = self.counts
        witnesses = fn_calls["construct.construct_with_strategy"]
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "words.is_square_free.letters_per_s": _rate(c["words.letters"], fn_self["words.is_square_free"]),
            "words.find_square.calls": fn_calls["words.find_square"],
            "words.find_square.self_s": fn_self["words.find_square"],
            "words.enumerate.self_s": fn_self["words.enumerate_square_free"],
            "shuffle.letters_per_s": _rate(c["shuffle.letters"], layer_self["shuffle"]),
            "shuffle.verify_witness.calls": fn_calls["shuffle.verify_witness"],
            "construct.witnesses": witnesses,
            "construct.cache_hits": c["construct.hits"],
            "construct.cache_misses": witnesses - c["construct.hits"],
            "construct.verifications_per_witness": _rate(verifications_in_construct, witnesses),
            "catalog.lookup_misses": c["catalog.get_entry.raised"],
            "catalog.expand_composition.calls": fn_calls["catalog.expand_composition"],
            "morphisms.certify.self_s": fn_self["morphisms.certify_square_free_morphism"]
            + fn_self["morphisms.certify_square_free_substitution"],
            "morphisms.certify.checked_words": c["morphisms.checked"],
            "morphisms.search_uniform.self_s": fn_self["morphisms.search_uniform_square_free_morphism"],
            "morphisms.apply.letters_per_s": _rate(c["morphisms.letters"], fn_self["morphisms.apply_morphism"]),
            "search.calls": layer_entries["search"],
            "search.results": c["search.results"],
            "limits.letters_per_s": _rate(c["limits.letters"], layer_entry_time["limits"]),
            "cli.calls": layer_entries["cli"],
            "bench.self_s": wall - top_level,
        })
        for strategy in STRATEGIES:
            out[f"construct.strategy.{strategy}"] = c[f"construct.strategy.{strategy}"]
        # Self times must add up to the time spent inside top-level spans;
        # together with the benchmark's own time they make up the wall time.
        out["_accounted_error_s"] = abs(sum(self_time) - top_level)
        return out


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


class _Meter:
    """Counters taken at one function boundary from its arguments and result."""

    def __init__(self, after, before=None, entry_only=False) -> None:
        self.after = after
        self.before = before
        self.entry_only = entry_only  # skip calls made from inside the same layer


def _count(key: str, amount):
    def after(counts, args, result, before):
        counts[key] += amount(args, result)
    return after


def _construct_before(args):
    # A hit is inferred from the witness file existing before the call.  The
    # benchmark always sets the cache directory through the environment.
    return os.path.exists(Path(os.environ["SHUFFLECRAFT_CACHE_DIR"]) / f"witness-{args[0]:05d}.json")


def _construct_after(counts, args, result, existed):
    counts["construct.hits"] += existed
    counts[f"construct.strategy.{result[1]}"] += 1


_METERS = {
    "words.is_square_free": _Meter(_count("words.letters", lambda a, r: len(a[0]))),
    "shuffle.shuffle_conducted": _Meter(_count("shuffle.letters", lambda a, r: len(r))),
    "shuffle.lift_conducting": _Meter(_count("shuffle.letters", lambda a, r: len(r))),
    "construct.construct_with_strategy": _Meter(_construct_after, _construct_before),
    "morphisms.certify_square_free_morphism": _Meter(
        _count("morphisms.checked", lambda a, r: r.checked_count)),
    "morphisms.certify_square_free_substitution": _Meter(
        _count("morphisms.checked", lambda a, r: r.checked_count)),
    "morphisms.apply_morphism": _Meter(_count("morphisms.letters", lambda a, r: len(r))),
    "search.find_self_shuffle_betas": _Meter(_count("search.results", lambda a, r: len(r)), entry_only=True),
    "search.distinct_self_shuffles": _Meter(_count("search.results", lambda a, r: len(r)), entry_only=True),
    "search.unshuffle_square_free": _Meter(
        _count("search.results", lambda a, r: r is not None), entry_only=True),
    "search.enumeration_row": _Meter(_count("search.results", lambda a, r: 1), entry_only=True),
    "limits.verify_theorem4": _Meter(_count("limits.letters", lambda a, r: r.prefix_length)),
    "limits.verify_theorem5": _Meter(_count("limits.letters", lambda a, r: r.prefix_length)),
    "limits.verify_abelian_periodicity": _Meter(
        _count("limits.letters", lambda a, r: r.prefix_length)),
}
