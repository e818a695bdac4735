"""One round of a workload in a fresh interpreter.

perfbench/run.py starts this with the path of a job file.  The worker imports
the library, loads the catalog and copies its witness cache (the set-up),
then issues the operations one at a time, timing each, and only afterwards
checks the outputs.  It writes its measurements to the job's result file.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from hashlib import sha256
from pathlib import Path

import sampler
import workloads
from tracer import Tracer


def _start_sampler() -> tuple[subprocess.Popen, bytes]:
    # Worker and sampler share one CPU, so the sampler sees the speed the
    # operations run at.  Its first sample is awaited before timing starts.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("sampler.py"))],
                            stdout=subprocess.PIPE)
    return proc, proc.stdout.read(sampler.RECORD.size)


def _stop_sampler(proc: subprocess.Popen, first: bytes) -> list[tuple[float, float]]:
    proc.terminate()
    data = first + proc.communicate()[0]
    size = sampler.RECORD.size
    return [sampler.RECORD.unpack_from(data, k) for k in range(0, len(data) - size + 1, size)]


def _scaled(spans: list[tuple[float, float]], samples: list[tuple[float, float]]) -> list[float]:
    """Each (start, end) duration scaled by the median slice time during it,
    counting one sample on each side so that short operations get two."""
    if not samples:
        raise RuntimeError("the speed sampler recorded nothing")
    times = [t for t, _ in samples]
    scaled = []
    for start, end in spans:
        window = samples[max(0, bisect_left(times, start) - 1) : bisect_right(times, end) + 1]
        speed = statistics.median(d for _, d in window)
        scaled.append((end - start) * sampler.REFERENCE_S / speed)
    return scaled


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import shufflecraft
    from shufflecraft import catalog, cli  # noqa: F401  (cli is reached as shufflecraft.cli)

    catalog.entry_names()
    cache = Path(job["cache"])
    if job["cache_from"]:
        shutil.copytree(job["cache_from"], cache)
    else:
        cache.mkdir(parents=True)
    os.environ["SHUFFLECRAFT_CACHE_DIR"] = str(cache)
    ops = json.loads(Path(job["ops"]).read_text())
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - job["spawned"]
    result: dict = {"setup_s": setup_s}
    if job["mode"] != "probe":
        result.update(_measure(job, shufflecraft, ops, tracer))
    Path(job["result"]).write_text(json.dumps(result))


def _measure(job: dict, sc, ops: list[dict], tracer: Tracer | None) -> dict:
    profiler = None
    if job["profile"]:
        import cProfile

        profiler = cProfile.Profile()
    if tracer:
        tracer.clear()
    outputs, spans = [], []
    cpu = 0.0
    speeds, first_sample = _start_sampler()
    try:
        if profiler:
            profiler.enable()
        for op in ops:
            cpu0, started = time.process_time(), time.perf_counter()
            try:
                out = workloads.execute(sc, op)
            except Exception as exc:  # a raising operation counts as failed, the run goes on
                out = ["raised", repr(exc)]
            spans.append((started, time.perf_counter()))
            cpu += time.process_time() - cpu0
            outputs.append(out)
    finally:
        if profiler:
            profiler.disable()
        samples = _stop_sampler(speeds, first_sample)
    latencies = [end - start for start, end in spans]
    scaled = _scaled(spans, samples)
    wall = sum(latencies)
    if profiler:
        import pstats

        print(f"--- cProfile of one {job['workload']} round, top {job['profile']} by own time",
              file=sys.stderr)
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("tottime").print_stats(job["profile"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = sha256(json.dumps(outputs).encode()).hexdigest()
    measured = {
        "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb, "latencies": latencies,
        "scaled": scaled, "wall_ref_s": sum(scaled),
        "digest": digest, "faults": None,
    }
    if tracer:
        measured["layers"] = tracer.analyse(wall)
        tracer.write(Path(job["spans"]))
        tracer.clear()
    if job["mode"] == "round" and digest != job["known_digest"]:
        # Identical outputs were already checked in an earlier round.
        faults = []
        for index, (op, out) in enumerate(zip(ops, outputs)):
            if out[0] == "raised":
                faults.append([index, f"raised {out[1]}"])
                continue
            try:
                reason = workloads.fault(op, out, sc.catalog)
            except (ValueError, TypeError, IndexError, KeyError) as exc:  # malformed output
                reason = f"output could not be checked: {exc!r}"
            if reason is not None:
                faults.append([index, reason])
        measured["faults"] = faults
    return measured


if __name__ == "__main__":
    main(sys.argv[1])
