"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must emit every metric named in BENCHMARK.json, in both the
untraced and the traced run, and a corrupted library output must be counted
as a failure rather than passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = _run(ROOT, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_flipped_letter_is_a_fault():
    from shufflecraft import construct_with_strategy

    witness, strategy = construct_with_strategy(21)
    op = {"kind": "construct", "n": 21}
    good = [witness.u, witness.beta, witness.w, strategy]
    assert workloads.fault(op, good, None) is None
    for field in range(3):
        bad = list(good)
        text = bad[field]
        bad[field] = text[:5] + {"0": "1", "1": "0", "2": "0"}[text[5]] + text[6:]
        assert workloads.fault(op, bad, None) is not None


def test_square_checker_agrees_with_the_definition():
    import random

    rng = random.Random(7)
    for _ in range(3000):
        w = "".join(rng.choice("012") for _ in range(rng.randint(0, 80)))
        brute = not any(
            w[i : i + h] == w[i + h : i + 2 * h]
            for h in range(1, len(w) // 2 + 1)
            for i in range(len(w) - 2 * h + 1)
        )
        assert oracle.square_free(w) == brute, w


def test_corrupted_library_output_counts_as_failed(tmp_path):
    # A copy of the tree whose construct_with_strategy flips one letter of
    # every witness it returns; the library itself does not notice.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    construct = tmp_path / "src" / "shufflecraft" / "construct.py"
    construct.write_text(construct.read_text() + '''

_honest_construct = construct_with_strategy


def construct_with_strategy(n):
    witness, strategy = _honest_construct(n)
    w = witness.w[:-1] + ("1" if witness.w[-1] == "0" else "0")
    return ShuffleWitness(witness.u, witness.beta, w), strategy
''')
    result = _run(tmp_path, "construct-cold", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
