"""shufflecraft benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload construct-cold --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from its src/.
A run is a closed loop with one client: rounds of the seed's operation list,
each round in a fresh interpreter issuing one operation at a time, until
--seconds of timed work are done.  --trace 0 reports the end-to-end metrics;
--trace 1 runs one untraced and one traced round and reports the per-layer
metrics.  All state lives under .perfbench/ in the checkout: the primed
uniform-morphism cache (made once per source tree) and per-run temp dirs.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Times named *_ref_* are scaled to the reference speed of the calibration
# slice (see worker.py); their raw counterparts are in the info line.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("op_p50_ref_ms", "ms"),
    ("op_tail_ref_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("words.self_s", "s"),
    ("words.is_square_free.letters_per_s", "letters/s"),
    ("words.find_square.calls", "count"),
    ("words.find_square.self_s", "s"),
    ("words.enumerate.self_s", "s"),
    ("shuffle.self_s", "s"),
    ("shuffle.letters_per_s", "letters/s"),
    ("shuffle.verify_witness.calls", "count"),
    ("construct.self_s", "s"),
    ("construct.witnesses", "count"),
    ("construct.cache_hits", "count"),
    ("construct.cache_misses", "count"),
    ("construct.verifications_per_witness", "ratio"),
    *((f"construct.strategy.{name}", "count") for name in workloads.STRATEGIES),
    ("catalog.self_s", "s"),
    ("catalog.lookup_misses", "count"),
    ("catalog.expand_composition.calls", "count"),
    ("morphisms.self_s", "s"),
    ("morphisms.certify.self_s", "s"),
    ("morphisms.certify.checked_words", "count"),
    ("morphisms.search_uniform.self_s", "s"),
    ("morphisms.apply.letters_per_s", "letters/s"),
    ("search.self_s", "s"),
    ("search.calls", "count"),
    ("search.results", "count"),
    ("limits.self_s", "s"),
    ("limits.letters_per_s", "letters/s"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("bench.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
SETUP_PROBES = 5  # extra set-ups per untraced run, so setup_s is a median
RUN_LIMIT_S = 170  # a run must end within 180 s, priming aside
PRIME_LIMIT_S = 800  # priming runs the 5->3 length-22 search, ~60 s here
# Self times must add up to the traced time to within this many seconds.
ACCOUNTING_TOLERANCE_S = 1e-6


class RunError(Exception):
    """The run cannot produce a result."""


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "shufflecraft").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def machine() -> dict:
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    return info


class Runner:
    """Starts workers for one run and keeps them inside the run's time limit."""

    def __init__(self, root: Path, workload: str, scale: str) -> None:
        self.src = root / "src"
        self.state = root / ".perfbench"
        (self.state / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=self.state / "tmp"))
        self.workload = workload
        self.scale = scale
        self.jobs = 0
        self.clock = time.monotonic()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.clock)

    def work(self, mode: str, ops: Path, cache_from: Path | None, trace: bool = False,
             known_digest: str | None = None, profile: int = 0, cache: Path | None = None,
             limit: float | None = None) -> dict:
        self.jobs += 1
        job_dir = self.tmp / f"job{self.jobs}"
        job_dir.mkdir()
        keep_cache = cache is not None
        cache = cache or job_dir / "cache"
        job = {
            "mode": mode, "workload": self.workload, "src": str(self.src),
            "cache_from": str(cache_from) if cache_from else None, "cache": str(cache),
            "ops": str(ops), "trace": trace,
            "known_digest": known_digest, "profile": profile,
            "result": str(job_dir / "result.json"),
            "spans": str(self.state / "traces" / f"{self.workload}.spans"),
        }
        job["spawned"] = time.monotonic()
        (job_dir / "job.json").write_text(json.dumps(job))
        timeout = limit if limit is not None else self.remaining()
        if timeout <= 0:
            raise RunError("out of time before a round could start")
        try:
            subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_dir / "job.json")],
                check=True, timeout=timeout, stdout=sys.stderr,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{mode} worker exceeded {timeout:.0f} s") from exc
        except subprocess.CalledProcessError as exc:
            raise RunError(f"{mode} worker exited with {exc.returncode}") from exc
        result = json.loads((job_dir / "result.json").read_text())
        if not keep_cache:
            shutil.rmtree(job_dir, ignore_errors=True)
        return result

    def primed(self) -> tuple[Path, float]:
        """Cache holding only the searched uniform morphisms, made once per source tree."""
        target = self.state / f"primed-{self.scale}-{source_digest(self.src)[:16]}"
        if target.is_dir():
            return target, 0.0
        started = time.monotonic()
        ops = self.tmp / "primer-ops.json"
        ops.write_text(json.dumps(
            [{"kind": "construct", "n": n} for n in workloads.PRIMERS[self.scale]]))
        cache = self.tmp / "primer-cache"
        self.work("fill", ops, None, cache=cache, limit=PRIME_LIMIT_S)
        staged = Path(tempfile.mkdtemp(dir=self.state / "tmp"))
        for path in cache.glob("uniform-*.json"):
            shutil.copy(path, staged / path.name)
        try:
            staged.rename(target)
        except OSError:  # another run primed the same tree first
            shutil.rmtree(staged, ignore_errors=True)
        elapsed = time.monotonic() - started
        self.clock = time.monotonic()  # the run's own limit starts after priming
        return target, elapsed


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    root = HERE.parent
    if not (root / "src" / "shufflecraft" / "__init__.py").is_file():
        raise RunError(f"no shufflecraft sources under {root / 'src'}")
    sys.path.insert(0, str(root / "src"))
    from shufflecraft import catalog

    scale = "toy" if args.toy else "full"
    runner = Runner(root, args.workload, scale)
    try:
        primed, priming_s = runner.primed()
        ops = workloads.make_ops(args.workload, args.seed, scale, catalog)
        ops_path = runner.tmp / "ops.json"
        ops_path.write_text(json.dumps(ops))
        source, fill_s = primed, 0.0
        if args.workload == "verify-warm":
            # Reads come from the cache a construct-cold round of this seed fills.
            started = time.monotonic()
            fill_ops = runner.tmp / "fill-ops.json"
            fill_ops.write_text(json.dumps(workloads.make_ops("construct-cold", args.seed, scale, catalog)))
            source = runner.tmp / "warm"
            runner.work("fill", fill_ops, primed, cache=source)
            fill_s = time.monotonic() - started

        setups = []
        if not args.trace:
            setups += [runner.work("probe", ops_path, source)["setup_s"] for _ in range(SETUP_PROBES)]
        rounds, traced = [], None
        known, known_faults = None, None
        rounds_started = time.monotonic()
        while True:
            last = runner.work("round", ops_path, source, known_digest=known)
            if last["faults"] is not None:
                known, known_faults = last["digest"], last["faults"]
            last["faults"] = known_faults if last["digest"] == known else last["faults"]
            rounds.append(last)
            if args.trace:
                traced = runner.work("round", ops_path, source, trace=True, known_digest=known)
                if traced["faults"] is None:
                    traced["faults"] = known_faults
                break
            # Stop before the timed work would pass --seconds, or when set-ups
            # and checks of short rounds have used twice that in real time.
            walls = [r["wall_s"] for r in rounds]
            real_s = time.monotonic() - rounds_started
            if sum(walls) + statistics.mean(walls) > args.seconds or real_s > 2 * args.seconds:
                break
            if 2 * real_s / len(rounds) > runner.remaining():
                break
        if args.profile:
            runner.work("profiled", ops_path, source, profile=args.profile)
    finally:
        runner.close()

    measured = rounds + ([traced] if traced else [])
    attempted = len(ops) * len(measured)
    faults = [fault for r in measured for fault in r["faults"]]
    # Every round runs the same operations, so each operation's latency is its
    # median over rounds, and the quantiles do not shift with the round count.
    latencies = [statistics.median(per_op) for per_op in zip(*(r["scaled"] for r in rounds))]
    tail, tail_pct = _tail(latencies)
    info = {
        "workload": args.workload, "seed": args.seed, "scale": scale, "trace": args.trace,
        "rounds": len(rounds), "ops_per_round": len(ops),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "round_wall_ref_s": [r["wall_ref_s"] for r in rounds],
        "op_tail_percentile": tail_pct, "op_samples": len(latencies),
        "priming_s": priming_s, "fill_s": fill_s,
        "first_faults": [[ops[i]["kind"], why] for i, why in faults[:3]],
        "git_sha": git_sha(root), "source_sha256": source_digest(root / "src"),
        "machine": machine(),
    }
    correct = not faults
    if traced:
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = traced["wall_ref_s"] / rounds[0]["wall_ref_s"]
        info["trace_accounting_error_s"] = layers.pop("_accounted_error_s")
        correct = correct and info["trace_accounting_error_s"] <= ACCOUNTING_TOLERANCE_S
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "wall_ref_s": statistics.median(r["wall_ref_s"] for r in rounds),
            "op_p50_ref_ms": 1000 * statistics.median(latencies),
            "op_tail_ref_ms": 1000 * tail,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": len(faults), "metrics": metrics}
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="after measuring, print a cProfile top-N of one extra round to stderr")
    args = parser.parse_args(argv)
    try:
        info, result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
