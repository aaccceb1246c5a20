"""Benchmark of the colebrook package, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
src/ and needs numpy and mpmath. Workloads: cli-scan-export,
sweep-all-schemes, point-queries (see workloads.py). The seed makes the
inputs; the same seed gives the same inputs.

It prints a readable report, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of the workload's operation, measured with tracing
off; with --trace 1 they are the per-layer ones (layers.py) plus the
tracing overhead. Every output is checked (checks.py); each check is one
attempted operation. A full record of the run, with the environment
fingerprint, goes to .perfbench/ under the checkout root, and a traced
run's spans beside it.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# per-layer units by name suffix, first match wins
LAYER_UNITS = (
    ("_ratio_1m", "ratio"), ("_ratio_4k", "ratio"), ("_1m", "ns"), ("_4k", "ns"),
    ("_mb_per_s", "MB/s"), ("_overhead_ms", "ms"), ("_us", "us"), ("_ns", "ns"),
    ("_s", "s"), ("_bytes", "B"), ("_iters_mean", "count"), ("_iters_max", "count"),
)


def layer_unit(name):
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio"


def _sys_text(path):
    try:
        with open(path, encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def fingerprint(seed):
    """Host and toolchain facts that tell host drift from code changes."""
    import numpy as np

    cpu = "unknown"
    for line in _sys_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _sys_text(f"{base}/level")
        if level in ("2", "3"):
            caches[f"l{level}"] = _sys_text(f"{base}/size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-scan-export", "sweep-all-schemes", "point-queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, sizes, env):
    """Run one workload; returns (metrics name -> (value, unit), checker, record)."""
    import checks
    import layers
    import workloads
    from tracer import Tracer, layer_self_s

    checker = checks.Checker()
    wl = workloads.WORKLOADS[args.workload](env, sizes, args.seed, checker)
    calibration = layers.calibration()
    record = {"fingerprint": fingerprint(args.seed) | calibration}
    if not args.trace:
        setup_s = workloads.cold_import_s(env, sizes.imports)
        wl.setup()
        workloads.run(wl, args.seconds, min_steps=2)
        oracle_err = checks.mp_max_relerr(*wl.reference())
        record["readouts"] = wl.readouts()
        return wl.end_to_end(setup_s, oracle_err), checker, record

    wl.setup()
    workloads.run(wl, args.seconds / 2, min_steps=2)
    untraced_s = statistics.median(wl.op_s)
    wl.op_s.clear()
    tracer = Tracer()
    workloads.run(wl, args.seconds / 2, tracer, min_steps=2)
    traced_s = statistics.median(wl.op_s)
    record["self_s"] = dict(sorted(layer_self_s(tracer.spans).items()))
    values = calibration | layers.measure(env, sizes, args.seed, tracer, checker)
    values["trace.op_p50_overhead_ms"] = (traced_s - untraced_s) * 1e3
    record["cost_table"] = layers.cost_table(workloads.sweep_specs(), values)
    tracer.write(env.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {k: (v, layer_unit(k)) for k, v in values.items()}, checker, record


def report(args, metrics, checker, record):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in record["fingerprint"].items():
        print(f"  env {key:<16} {value}")
    for name, (value, unit) in record.get("readouts", {}).items():
        print(f"  {name:<28} {value:.6g} {unit}")
    busy = sum(record.get("self_s", {}).values())
    for layer, sec in record.get("self_s", {}).items():
        print(f"  self time {layer:<12} {sec:10.4f} s {100 * sec / busy:6.2f} %")
    if "cost_table" in record:
        print(f"  {'scheme':<16}{'n_log':>6}{'n_sin':>6}{'n_div':>6}{'ns_1m':>9}{'ns_4k':>9}")
        for sid, n_log, n_sin, n_div, ns_1m, ns_4k in record["cost_table"]:
            print(f"  {sid:<16}{n_log:>6}{n_sin:>6}{n_div:>6}{ns_1m:>9.2f}{ns_4k:>9.2f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(f"  failed_frac {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} checks)")
    for note in checker.notes:
        print(f"  FAILED {note}")


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "colebrook" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    env = workloads.Env(ROOT)
    metrics, checker, record = measure(args, workloads.Sizes(), env)
    record["metrics"] = metrics
    record["attempted"], record["failed"] = checker.attempted, checker.failed
    record["failures"] = checker.notes
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(env.out / name, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    report(args, metrics, checker, record)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
