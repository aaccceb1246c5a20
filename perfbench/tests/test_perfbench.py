"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from colebrook import evaluation  # noqa: E402

TINY = workloads.Sizes(
    cli_grid=(20, 20), sweep_grid=(40, 40), queries=200, reference_points=20, imports=1
)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("core.oracle_iters_mean", "core.oracle_iters_max", "core.oracle_useful_ratio",
                "evaluation.csv_bytes", "evaluation.pgm_bytes")


def measure(workload, trace, seed=7):
    args = run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    )
    return run.measure(args, TINY, workloads.Env(ROOT))


def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    metrics, checker, _ = measure(workload, trace=0)
    assert {k: u for k, (_, u) in metrics.items()} == units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert checker.attempted > 0 and checker.failed == 0, checker.notes


@pytest.fixture(scope="module")
def traced_twice():
    return [measure("point-queries", trace=1) for _ in range(2)]


def test_per_layer_metrics(traced_twice):
    metrics, checker, record = traced_twice[0]
    assert {k: u for k, (_, u) in metrics.items()} == units("per_layer")
    assert checker.failed == 0, checker.notes
    assert len(record["cost_table"]) == len(workloads.sweep_specs())


def test_exact_counts_repeat(traced_twice):
    (a, _, _), (b, _, _) = traced_twice
    names = EXACT_COUNTS + tuple(k for k in a if k.startswith("kernels.sine_fallback_frac."))
    assert len(names) == len(EXACT_COUNTS) + 6
    assert {k: a[k] for k in names} == {k: b[k] for k in names}


def test_checker_counts_a_perturbed_map():
    checker = checks.Checker()
    wl = workloads.CliScanExport(workloads.Env(ROOT), TINY, 0, checker)
    wl.setup()
    wl.step()
    assert (checker.attempted, checker.failed) == (5, 0), checker.notes
    cli_out = json.dumps(asdict(wl.ref_stats) | {"points": wl.grid.size, "sine_fallbacks": 0})
    proc = subprocess.CompletedProcess([], 0, stdout=cli_out, stderr="")
    good = evaluation.load_csv(wl.csv)
    wl._check(proc, good)
    assert (checker.attempted, checker.failed) == (10, 0), checker.notes
    lam = good.lambda_ref.copy()
    lam[3] = np.nextafter(lam[3], 1.0)  # one ulp: the round trip fails, the oracle holds
    wl._check(proc, replace(good, lambda_ref=lam))
    assert (checker.attempted, checker.failed) == (15, 1)
    lam[3] *= 1.0 + 1e-9
    wl._check(proc, replace(good, lambda_ref=lam))
    assert (checker.attempted, checker.failed) == (20, 3)


def test_check_many_counts_each_element():
    checker = checks.Checker()
    checker.check_many(np.array([True, False, True]), "two of three")
    assert (checker.attempted, checker.failed) == (3, 1)


def test_pgm_check(tmp_path):
    good = tmp_path / "good.pgm"
    good.write_text("P2\n2 2\n255\n0\n255\n7\n9\n")
    short = tmp_path / "short.pgm"
    short.write_text("P2\n2 2\n255\n0\n255\n7\n")
    assert checks.pgm_ok(good, 2, 2)
    assert not checks.pgm_ok(short, 2, 2)
    assert not checks.pgm_ok(tmp_path / "missing.pgm", 2, 2)


def test_newton_reference_matches_mpmath():
    re = np.array([4000.0, 1e5, 1e8])
    rr = np.array([1e-6, 1e-3, 0.05])
    lam = checks.newton_lambda(re, rr)
    assert checks.mp_max_relerr(re, rr, lam) < 1e-15
