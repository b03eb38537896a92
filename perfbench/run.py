"""The repository benchmark: three workloads over both substrates, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-churn --seed 1 --seconds 20

Workloads: ``live-churn`` drives a real memory-node process; ``sim-ycsb``
and ``sim-replay`` drive the discrete-event simulator and the cachesim tier
(see ``perfbench/README.md`` for their shapes and the reason each exists).  ``--seed`` makes every generated key, op and trace.

With ``--trace 0`` the run measures untraced and reports every end-to-end
metric of ``BENCHMARK.json``.  With ``--trace 1`` it runs an untraced pass,
a span-traced pass and a profiled pass, writes a Chrome trace under
``.perfbench/``, validates it with ``python -m repro.obs.report
--validate``, prints the per-layer table and reports every per-layer
metric, the tracing overhead rows included.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check prints ``correct:
false`` and exits 1; missing sources exit 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("live-churn", "sim-ycsb", "sim-replay")
#: Switches that would put the program on another code path or make it
#: write elsewhere; the benchmark always measures with them unset.
_CLEARED_ENV = ("REPRO_TRACE", "REPRO_TRACE_EPOCH", "REPRO_VECTORIZE",
                "REPRO_PROFILE", "REPRO_PROFILE_DIR", "REPRO_SCALE")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)


def validate_trace_file(path: str) -> str:
    """Run the repository's trace validator; returns its complaint or ''."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.report", path, "--validate",
         "--top", "0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return (proc.stdout + proc.stderr).strip()[-2000:]
    return ""


def layer_table(workload: str, layers: dict, units: dict) -> str:
    from perfbench import layers as spec

    owner = spec.layer_of()
    lines = [f"per-layer metrics, {workload}",
             f"{'metric':34} {'value':>14} {'unit':10} {'kind':8} layer"]
    for name in spec.all_names():
        layer, _moves = owner[name]
        lines.append(f"{name:34} {layers.get(name, 0.0):14.6g} "
                     f"{units[name]:10} {spec.kind(name, workload):8} {layer}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [SRC, ROOT]

    spec = load_spec()
    if args.workload.startswith("live-"):
        from perfbench import live as module
    else:
        from perfbench import sim as module
    outcome = module.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), ROOT)

    problems = list(outcome.problems)
    if args.trace:
        complaint = validate_trace_file(outcome.trace_path)
        if complaint:
            problems.append(f"trace {outcome.trace_path} failed "
                            f"validation: {complaint}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(layer_table(args.workload, outcome.layers, units))
        print(f"trace: {outcome.trace_path}")
        chosen = [(m["name"], m["unit"], outcome.layers.get(m["name"], 0.0))
                  for m in spec["per_layer"]]
    else:
        chosen = [(m["name"], m["unit"], outcome.e2e[m["name"]])
                  for m in spec["end_to_end"]]
    print(f"{args.workload} seed={args.seed}: samples "
          + ", ".join(f"{k}={v}" for k, v in outcome.samples.items()))
    if not args.trace:
        for name, unit, value in chosen:
            print(f"  {name:12} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, unit, value in chosen},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
