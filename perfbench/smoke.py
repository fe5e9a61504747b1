"""Smoke test of the benchmark: every workload at minimal length on a second seed.

    python3 perfbench/smoke.py

For each workload of BENCHMARK.json it makes one untraced and one traced run
of ``--seconds 1`` and checks that each exits 0, passes its output checks,
raises in no call, and prints every metric BENCHMARK.json names with its
unit and a finite value; that the report records the run environment; and
that both runs decoded to the same output digest.  It takes a few minutes,
so it stays out of the pytest suite.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 2
ENVIRONMENT_KEYS = {"cpu", "nproc", "python", "numpy", "commit", "seed"}


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    reports = [ln[len("report "):] for ln in lines if ln.startswith("report ")]
    if proc.returncode != 0 or not reports:
        raise RuntimeError(f"exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), json.loads(reports[-1])


def problems_of(bench: dict, workload: str) -> list[str]:
    problems, digests = [], []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        label = f"{workload} --trace {trace}"
        try:
            result, report = run(workload, trace)
        except RuntimeError as exc:
            return problems + [f"{label}: {exc}"]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{label}: result keys {sorted(result)}")
        if result.get("correct") is not True:
            problems.append(f"{label}: output checks failed: {report.get('errors')}")
        if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
            problems.append(f"{label}: attempted {result.get('attempted')}, "
                            f"failed {result.get('failed')}")
        declared = {m["name"]: m["unit"] for m in bench[section]}
        metrics = result.get("metrics", {})
        got = {name: m.get("unit") for name, m in metrics.items()}
        if got != declared:
            problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(declared) - set(got))}, "
                            f"extra {sorted(set(got) - set(declared))}, "
                            f"units {[n for n in declared if n in got and got[n] != declared[n]]}")
        for name, m in metrics.items():
            value = m.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{label}: {name} = {value!r}")
        missing_env = ENVIRONMENT_KEYS - set(report.get("environment", {}))
        if missing_env:
            problems.append(f"{label}: environment lacks {sorted(missing_env)}")
        digests.append(report.get("digest"))
    if digests[0] != digests[1]:
        problems.append(f"{workload}: untraced and traced digests differ: {digests}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench["workloads"]:
        found = problems_of(bench, w["name"])
        print(f"{w['name']}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
