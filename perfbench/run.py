"""Benchmark of chordal-lab: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src`` directory.  Each call starts three fresh processes one after another:
a set-up probe, the workload process, and a second probe.  Set-up time is
measured in all three, from the moment the process is started to the moment
its state is built; the workload process then runs the measured rounds.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones; the raw timings of the run go to ``.perfbench-runs/`` at the root of
the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PROGRAM = HERE.parent / "src" / "chordal_lab"
RUNS = HERE.parent / ".perfbench-runs"  # the raw record of each run
WORKLOADS = ("exact", "bounded", "split")
DEADLINE_S = 170.0


def unit_of(name: str) -> str:
    """The unit of a metric, as BENCHMARK.json lists it."""
    special = {"samples_per_s": "1/s", "peak_rss_mb": "MB"}
    if name in special:
        return special[name]
    return "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else "count"


def spawn(args: argparse.Namespace, deadline: float, probe: bool) -> tuple[dict, float]:
    """Run one worker to its end; return its last JSON line and its set-up seconds."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"]["ready_at"] - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not PROGRAM.is_dir():
        print(f"error: the program's source is missing ({PROGRAM} is not a directory)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    first, setup_a = spawn(args, deadline, probe=True)
    result, setup_b = spawn(args, deadline, probe=False)
    last, setup_c = spawn(args, deadline, probe=True)
    readies = [first["ready"], result["ready"], last["ready"]]

    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"] = median(r["import_s"] for r in readies)
        metrics["splits.first_draw_s"] = (median(r["state_s"] for r in readies)
                                          if args.workload == "split" else 0.0)
    else:
        metrics["setup_s"] = median([setup_a, setup_b, setup_c])
    info = dict(result["info"], setup_s=[setup_a, setup_b, setup_c])
    RUNS.mkdir(exist_ok=True)
    record = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(vars(args), readies=readies, info=info,
                                      metrics=metrics, raw=result["raw"])) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
