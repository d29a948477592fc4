"""Tests of the benchmark's correctness gate, failure accounting and tracing."""

import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import pytest

import run

PERFBENCH = os.path.dirname(os.path.abspath(__file__))


def _one(argv, pins):
    records = run.run_pass([argv], False, pins, perf_counter() + 120)
    return records, run.tally(records)


def test_degenerate_exit_counts_as_failed():
    # A PoleError escapes verify_recursion at this seed; the CLI exits 2.
    records, tally = _one(["verify", "recursion-cy", "--order", "3",
                           "--seed", "5"], {})
    assert records[0]["exit"] == 2
    assert records[0]["status"] == "degenerate"
    assert tally == {"correct": True, "attempted": 1, "failed": 1}


def test_corrupted_digest_counts_as_wrong():
    argv = ["invariants", "--order", "3"]
    records, tally = _one(argv, {})
    good = {"invariants --order 3": records[0]["digest"]}
    assert tally == {"correct": True, "attempted": 1, "failed": 0}
    assert _one(argv, good)[1]["failed"] == 0
    bad = {"invariants --order 3": "0" * 64}
    assert _one(argv, bad)[1] == {"correct": False, "attempted": 1,
                                  "failed": 1}


def test_invariant_table_check():
    header = "  d  N_d  n_d\n"
    good = header + "1 2875 2875\n2 4876875/8 609250\n"
    assert run.invariant_problems(good) == []
    assert run.invariant_problems(header + "1 2875 2876\n")
    assert run.invariant_problems(
        header + "1 2875 2875\n2 4876875/8 609250\n3 1/3 1/3\n")


def test_default_seed_commands_are_all_pinned():
    pins = run.load_pins()
    for workload in run.WORKLOADS:
        for argv in run.workload_commands(workload, run.DEFAULT_SEED):
            assert " ".join(argv) in pins


def test_tracer_rebinds_every_alias():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import quintic_mirror.cli\n"
        "from quintic_mirror import hbar, mirror, recursion, series, "
        "sampling, verify, hypergeom\n"
        "before = hbar.Poly.__mul__\n"
        "from layers import Tracer\n"
        "Tracer().install()\n"
        "assert hbar.Poly.__mul__ is not before\n"
        "assert hbar.Poly.__rmul__ is hbar.Poly.__mul__\n"
        "assert hbar.RatFunc.__radd__ is hbar.RatFunc.__add__\n"
        "assert hbar.RatFunc.__call__ is hbar.RatFunc.eval\n"
        "assert mirror.series_reversion is series.series_reversion\n"
        "assert recursion.series_reversion is series.series_reversion\n"
        "assert verify.zstar_family is hypergeom.zstar_family\n"
        "assert verify.sample_until is sampling.sample_until\n"
        "assert hasattr(series.series_reversion, '__wrapped__')\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, run.SRC, PERFBENCH],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_traced_child_counts_calls():
    record = run.run_command(["invariants", "--order", "3"], True, 60.0)
    layers = record["layers"]
    assert layers["series.reversion.calls"] == 1
    assert layers["mirror.quintic_invariants.calls"] == 1
    assert layers["hbar.ratfunc_new.calls"] == 0
    assert (layers["mirror.quintic_invariants.self_s"]
            <= layers["mirror.quintic_invariants.total_s"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quintic_table",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traffic_assertions():
    quiet = {f"{name}.{kind}": 0 for name in run.TRACED
             for kind in ("calls", "raised")}
    transformations = {"argv": ["verify", "transformations", "--order", "3"],
                       "exit": 0,
                       "layers": {**quiet,
                                  "recursion.phi_double_correlator.calls": 5,
                                  "recursion.phi_double_correlator.raised": 1}}
    run.check_traffic("cy_correlators", [transformations])
    transformations["layers"]["recursion.phi_double_correlator.raised"] = 0
    with pytest.raises(run.HarnessError):
        run.check_traffic("cy_correlators", [transformations])
    table = {"argv": ["invariants", "--order", "3"], "exit": 0,
             "layers": {**quiet, "hbar.poly_gcd.calls": 1}}
    with pytest.raises(run.HarnessError):
        run.check_traffic("quintic_table", [table])


def test_times_are_scaled_to_the_nominal_host_speed():
    # host_scale is REF_NOMINAL_S over the mean of the speed samples.
    slow = [{"run_s": 2.0, "setup_s": 0.04, "rss_kib": 2048,
             "host_scale": 0.5},
            {"run_s": 6.0, "setup_s": 0.02, "rss_kib": 1024,
             "host_scale": 0.25}]
    metrics = run.pass_metrics(slow)
    assert metrics["run_s"] == 2.5
    assert metrics["max_cmd_s"] == 1.5
    assert metrics["setup_s"] == 0.0125
    assert metrics["peak_rss_mib"] == 2.0
    record = run.run_command(["invariants", "--order", "3"], False, 60.0)
    assert record["ref_samples"]
    assert record["host_scale"] == (
        run.REF_NOMINAL_S / statistics.fmean(record["ref_samples"]))


def test_timeout_stops_the_child():
    record = run.run_command(["invariants", "--order", "60"], False, 0.3)
    assert record["exit"] is None
    assert run.judge(record, {}) == "timeout"
    assert not [name for name in os.listdir(run.RESULTS)
                if name.startswith(f"child-{os.getpid()}")]
