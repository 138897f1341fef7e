"""Write perfbench/workloads.json: the record each workload carries.

Run from the repository root:

    python3 perfbench/record.py [--seconds 30]

For each workload, at the default seed, it records why the workload was
chosen, its input properties (n, m, share of tied weights, rounds per
strategy), each layer's share of busy time from a traced run, and the sha256
of the first output that ``run.py`` pins for the default seed. Digests are
computed first, in this process, with pathlab's plain functions; the traced
runs then go one at a time, each in its own process.

Run it again only when a change is meant to alter the pinned output or the
workloads; the digests it writes are what later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, OUT, RECORD, load_pathlab
from spans import make_lib
from workloads import DEFAULT_SEED, HELD_OUT_SEED, STRATEGY_NAMES, WORKLOADS


def first_output_digest(pathlab, workload) -> str:
    """Run operations until the one that digests its output has done so."""
    lib = make_lib(pathlab)
    workload.reset()
    i = 0
    while workload.observed_digest is None:
        workload.op(i, lib)
        i += 1
    return workload.observed_digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    pathlab = load_pathlab()
    record = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "held_out_rule": "a claim measured at the default seed must also hold at the held-out seed",
        "loop": "closed: one caller; the next operation starts when the previous one has finished",
        "count_metrics": (
            "per-operation means over the count window (operations 0..window-1)"
            " of the traced run; they repeat exactly at one seed"
        ),
        "layer_share": (
            "self time of each layer (span time less its child spans) over the"
            " traced operations' wall time; harness is the benchmark's own time"
        ),
        "workloads": {},
    }
    properties = {}
    for name, cls in WORKLOADS.items():
        workload = cls(pathlab, DEFAULT_SEED)
        properties[name] = workload.input_properties()
        record["workloads"][name] = {
            "why": workload.why,
            "operation": workload.operation,
            "window": workload.window,
            "digest_sha256": first_output_digest(pathlab, workload),
        }
    RECORD.write_text(json.dumps(record, indent=2) + "\n")

    for name, entry in record["workloads"].items():
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(DEFAULT_SEED), "--seconds", str(args.seconds), "--trace", "1"],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        summary = json.loads((OUT / f"summary_{name}.json").read_text())
        metrics = summary["metrics"]
        entry["properties"] = dict(
            properties[name],
            rounds={s: metrics[f"labeling.rounds.{s}"] for s in STRATEGY_NAMES},
        )
        entry["layer_share"] = {k: round(v, 4) for k, v in summary["layer_share"].items()}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
