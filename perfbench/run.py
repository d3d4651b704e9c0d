"""Layered benchmark of the GBDA serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve|selective|ingest --seed N \
        --seconds S --trace 0|1

Generates the workload's inputs from ``--seed`` (cached in
``.perfbench_cache/``), sets up the system several times, measures for
about ``--seconds`` seconds, checks every answer against an oracle, and
prints human-readable lines followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys

import layers
from common import ROOT, SPECS, WORK_DIR, load_inputs, log, manifest

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("serve", "selective", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Import ``repro`` from the checkout and keep every file it writes there."""
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        raise SystemExit(f"perfbench: no program to measure ({source} is missing)")
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK_DIR / "kernels")
    os.environ["TMPDIR"] = str(WORK_DIR / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("perfbench: --seconds must be at least 1")
    prepare_environment()
    # BENCHMARK.json is the one list of metric names and units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = SPECS[args.workload]
    trace = bool(args.trace)
    inputs = load_inputs(spec, args.seed)
    # The inputs live as long as the run: keep the cyclic collector from
    # walking them in every full collection the program triggers, which
    # would charge the benchmark's own heap to the program's timings.
    gc.collect()
    gc.freeze()

    from repro.db.kernels import resolve_backend

    backend = resolve_backend("auto")
    run_manifest = manifest(spec, args.seed, args.seconds, trace, backend)
    log("manifest " + json.dumps(run_manifest, sort_keys=True))
    (WORK_DIR / f"manifest-{spec.name}-{args.seed}-{int(trace)}.json").write_text(
        json.dumps(run_manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # One module per workload, named after it, with a run() entry point.
    workload = importlib.import_module(spec.name).run(
        spec, inputs, args.seed, args.seconds, trace
    )

    attempted = sum(phase.sent for phase in workload.phases)
    failed = sum(phase.failed for phase in workload.phases)
    log("phase summary:")
    for phase in workload.phases:
        log("  " + phase.report())
    end_to_end = workload.end_to_end()
    error_share = failed / attempted if attempted else 1.0
    log(f"error_share {error_share:.6f} fraction (failed {failed} of {attempted} attempted)")
    for name, value, unit in workload.named:
        log(f"{spec.name} {name} {value:.6g} {unit}")

    if trace:
        units = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
        reasons = dict(workload.reasons)
        per_layer = layers.complete(workload.layer, units, reasons)
        for title, lines in workload.self_times.items():
            log(f"self time by span, {title}:")
            for line in lines:
                print(line)
        for name, value in per_layer.items():
            note = f"  ({reasons[name]})" if name in reasons else ""
            log(f"layer {name} {value:.6g} {units[name]}{note}")
        metrics = {
            name: {"value": value, "unit": units[name]} for name, value in per_layer.items()
        }
    else:
        metrics = {
            metric["name"]: {"value": end_to_end[metric["name"]], "unit": metric["unit"]}
            for metric in declared["end_to_end"]
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log(f"peak resident memory of this process: {peak_mib:.0f} MiB")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
