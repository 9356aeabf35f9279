"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Run it from the root of a checkout.  For every workload in BENCHMARK.json it
makes one short untraced and one short traced run, and requires each to emit
exactly the metrics BENCHMARK.json names for that mode, with finite values
and no failed operation.  It then corrupts one output value per workload and
requires the run to count exactly that one operation as failed.  Prints one
line per check and exits nonzero if any check fails.
"""

import json
import math
import sys

import run

SEED = 7


def metric_problems(record, want) -> list[str]:
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    problems = []
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, units {wrong}")
    for name, m in record["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} = {m['value']!r} is not a finite number")
    if record["failed"]:
        problems.append(f"{record['failed']} failed operation(s): {record['problems']}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    failures = 0
    if sorted(workloads) != sorted(run.WORKLOADS):
        print(f"FAIL workloads: BENCHMARK.json {workloads} vs run.py {list(run.WORKLOADS)}")
        failures += 1
    for name in workloads:
        for trace in (False, True):
            record = run.run(name, SEED, seconds=0.1, trace=trace, probes=1, min_calls=1)
            problems = metric_problems(record, want[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={int(trace)}: "
                  f"{record['attempted']} operations" + "".join(f"\n     {p}" for p in problems))
        record = run.run(name, SEED, seconds=0.1, trace=False, probes=1, min_calls=1,
                         corrupt=True)
        counted = record["failed"] == 1 and record["failed_frac"] > 0
        failures += not counted
        print(f"{'ok  ' if counted else 'FAIL'} {name} corrupted output: "
              f"failed {record['failed']} of {record['attempted']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
