"""Benchmark of the quintic-mirror CLI: end-to-end timings and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin      # re-record the expected digests

Every command runs in a fresh interpreter (perfbench/child.py), one at a
time, as a user's ``quintic-mirror ...`` call would.  A pass runs every
command of the workload once; passes repeat while another one fits in
``--seconds`` (at least one runs) and each metric is the median over
passes.  Times are scaled to a nominal host speed, sampled beside each
command (see ``run_command``).  With ``--trace 1`` each repetition is an
untraced pass followed by a traced one, and the metrics are the per-layer
statistics of the traced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with
provenance and the digest of every command's output, goes to
perfbench/results/.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from layers import TRACED, metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLI_FILE = os.path.join(SRC, "quintic_mirror", "cli.py")
DIGESTS = os.path.join(HERE, "digests.json")
RESULTS = os.path.join(HERE, "results")
DEFAULT_SEED = 0
RUN_LIMIT_S = 170.0     # a run must end within 180 s; no pass starts past this
# The host's speed drifts by 25% and more over minutes.  reference_s is
# sampled beside every child, and the child's times are scaled to a host on
# which it takes REF_NOMINAL_S.
REF_NOMINAL_S = 240e-6
SAMPLE_EVERY_S = 0.1

# Commands without --seed run at the CLI's default seed; "{}" is replaced by
# a seed drawn from random.Random(workload seed).
WORKLOADS = {
    "quintic_table": [
        "invariants --order 10",
        "invariants --order 40",
        "invariants --order 50",
    ],
    "cy_correlators": [
        "verify transformations --order 3",
        "verify phi-poly --order 3",
        "verify class-p --order 4",
    ],
    "regime_checks": [
        "verify recursion-i --m 5 --l 3 --order 4",
        "verify recursion-ii --m 4 --l 4 --order 4",
        "verify recursion-cy --order 4",
        "verify mirror-identity --order 20",
        "verify picard-fuchs --order 8",
        "verify case-i --m 5 --l 3",
        "verify case-ii --m 4 --l 4",
        "verify descendents",
        "oracle --degree 1 --seed {}",
        "oracle --degree 2 --seed {}",
    ],
}

END_TO_END = {"run_s": "s", "max_cmd_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}
PER_LAYER = {**metric_units(), "trace.overhead": "x", "trace.base_run_s": "s"}

# Published genus-0 counts of the quintic, n_1..n_4.
KNOWN_N = ["2875", "609250", "317206375", "242467530000"]


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def workload_commands(workload: str, seed: int) -> list[list[str]]:
    """The argv of every command of one pass, made from the workload seed."""
    rng = random.Random(seed)
    out = []
    for entry in WORKLOADS[workload]:
        if "{}" in entry:
            entry = entry.format(rng.randrange(10**6))
        out.append(entry.split())
    return out


def reference_s() -> float:
    """Time of a fixed Fraction sum that uses nothing of the package (best of 3)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(1, k * k)
        best = min(best, perf_counter() - start)
    return best


def run_command(argv: list[str], trace: bool, timeout: float) -> dict:
    """Run one command in a fresh interpreter; return the child's record.

    While the child runs, this process, on the same CPU, samples the host's
    speed with ``reference_s`` every SAMPLE_EVERY_S.  The child's output
    goes to files, so no pipe can fill up while nobody reads it.
    """
    child = [sys.executable, os.path.join(HERE, "child.py"), SRC,
             "1" if trace else "0", *argv]
    os.makedirs(RESULTS, exist_ok=True)
    out_path = os.path.join(RESULTS, f"child-{os.getpid()}.out")
    err_path = os.path.join(RESULTS, f"child-{os.getpid()}.err")
    samples = []
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        proc = subprocess.Popen(child, stdout=out, stderr=err)
        give_up = perf_counter() + timeout
        try:
            while proc.poll() is None and perf_counter() < give_up:
                try:
                    proc.wait(timeout=SAMPLE_EVERY_S)
                except subprocess.TimeoutExpired:
                    samples.append(reference_s())
        finally:
            timed_out = proc.poll() is None
            if timed_out:
                proc.kill()
                proc.wait()
            os.remove(out_path)
            os.remove(err_path)
        if timed_out:
            return {"argv": argv, "exit": None, "stdout": "",
                    "stderr": f"timed out after {timeout:.0f} s"}
        samples.append(reference_s())
        out.seek(0)
        err.seek(0)
        lines, stderr = out.read().splitlines(), err.read()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child for {argv} failed:\n{stderr}")
    record = json.loads(lines[-1])
    if not record["module"].startswith(SRC + os.sep):
        raise HarnessError(f"imported {record['module']}, not from {SRC}")
    record["argv"] = argv
    record["traced"] = trace
    record["stderr"] = stderr
    record["ref_samples"] = samples
    record["host_scale"] = REF_NOMINAL_S / statistics.fmean(samples)
    return record


def invariant_problems(stdout: str) -> list[str]:
    """Check an ``invariants`` table: n_1..n_4 published, every n_d integral."""
    rows = [line.split() for line in stdout.splitlines()[1:]]
    if any(len(row) != 3 for row in rows):
        return ["unparsable invariants table"]
    n = [row[2] for row in rows]
    problems = []
    if n[:4] != KNOWN_N[:len(n)]:
        problems.append(f"n_1..n_4 = {n[:4]}")
    if not all(v.lstrip("-").isdigit() for v in n):
        problems.append("non-integral n_d")
    return problems


def judge(record: dict, pins: dict) -> str:
    """Classify one command: "ok", "degenerate", "timeout" or "wrong".

    A pinned command must reproduce its digest exactly.  An unpinned one
    must exit 0 and print no FAIL line; exit 2 for a degenerate weight
    configuration is a failed command, not a wrong result.
    """
    if record["exit"] is None:
        return "timeout"
    stdout = record["stdout"]
    key = " ".join(record["argv"])
    if key in pins:
        return "ok" if record["exit"] == 0 and record["digest"] == pins[key] \
            else "wrong"
    if record["exit"] == 2 and "degenerate weight configuration" in record["stderr"]:
        return "degenerate"
    if record["exit"] != 0 or any(line.startswith("FAIL")
                                  for line in stdout.splitlines()):
        return "wrong"
    if record["argv"][0] == "invariants" and invariant_problems(stdout):
        return "wrong"
    return "ok"


def run_pass(commands, trace: bool, pins: dict, deadline: float) -> list[dict]:
    """Run every command once; stop early at a timeout, which is recorded."""
    records = []
    for argv in commands:
        record = run_command(argv, trace, max(1.0, deadline - perf_counter()))
        record["digest"] = hashlib.sha256(record["stdout"].encode()).hexdigest()
        record["status"] = judge(record, pins)
        records.append(record)
        if record["status"] == "timeout":
            break
    return records


def tally(records: list[dict]) -> dict:
    """Correctness verdict and failure count over all commands of a run."""
    return {"correct": all(r["status"] != "wrong" for r in records),
            "attempted": len(records),
            "failed": sum(r["status"] != "ok" for r in records)}


def pass_metrics(records: list[dict]) -> dict:
    """End-to-end metrics of one pass, with times at the nominal host speed."""
    run_s = [r["run_s"] * r["host_scale"] for r in records]
    return {
        "run_s": sum(run_s),
        "max_cmd_s": max(run_s),
        "setup_s": statistics.median(r["setup_s"] * r["host_scale"]
                                     for r in records),
        "peak_rss_mib": max(r["rss_kib"] for r in records) / 1024,
    }


def pass_layers(records: list[dict]) -> dict:
    """Per-layer statistics of one traced pass, summed over its commands."""
    total: dict = {}
    for r in records:
        for key, value in r["layers"].items():
            if key in ("hbar.max_den_degree", "hbar.max_coeff_bits"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    attempts = total.get("sampling.attempts", 0)
    total["sampling.useful_ratio"] = (
        (attempts - total["sampling.resamples"]) / attempts if attempts else 1.0)
    return total


def check_traffic(workload: str, records: list[dict]) -> None:
    """The call counts the per-layer predictions rest on."""
    for r in records:
        layers = r["layers"]
        if workload == "quintic_table":
            busy = [name for name in TRACED
                    if name.startswith(("hbar.", "recursion."))
                    and layers[f"{name}.calls"]]
            if busy:
                raise HarnessError(f"{r['argv']} calls {busy} on quintic_table")
        if r["argv"][:2] == ["verify", "transformations"] and r["exit"] == 0:
            name = "recursion.phi_double_correlator"
            done = layers[f"{name}.calls"] - layers[f"{name}.raised"]
            if done != 4:
                raise HarnessError(
                    f"{r['argv']}: {done} phi_double_correlator calls, not 4")


def median_of(rows: list[dict], names) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in names}


def provenance(workload: str, seed: int, version: str, cpus: set) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT)
        commit = git.stdout.strip() or None
    return {"python": platform.python_version(),
            "nproc": len(cpus), "pinned_cpu": min(cpus),
            "git_commit": commit, "package_version": version,
            "workload": workload, "workload_seed": seed}


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    cpus = os.sched_getaffinity(0)
    # Children inherit this; the speed samples must run on the child's CPU.
    os.sched_setaffinity(0, {min(cpus)})
    commands = workload_commands(workload, seed)
    pins = load_pins()
    # Users' installed packages have bytecode; no timed child should compile.
    # compileall writes it even where PYTHONDONTWRITEBYTECODE is set.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "quintic_mirror")], check=True)
    start = perf_counter()
    plain, traced, records = [], [], []
    while True:
        began = perf_counter()
        batch = run_pass(commands, False, pins, deadline)
        records += batch
        if len(batch) < len(commands):
            break
        plain.append(pass_metrics(batch))
        if trace:
            batch = run_pass(commands, True, pins, deadline)
            records += batch
            if len(batch) < len(commands):
                break
            check_traffic(workload, batch)
            traced.append((pass_metrics(batch), pass_layers(batch)))
        # Start another repetition only if one as long as the last still
        # fits in the measured time.
        now = perf_counter()
        if now + (now - began) > min(start + seconds, deadline):
            break
    if not plain or (trace and not traced):
        raise HarnessError(f"no pass finished within {RUN_LIMIT_S:.0f} s")
    if trace:
        base = statistics.median(p["run_s"] for p in plain)
        metrics = median_of([layers for _, layers in traced], metric_units())
        metrics["trace.overhead"] = statistics.median(
            p["run_s"] for p, _ in traced) / base
        metrics["trace.base_run_s"] = base
        units = PER_LAYER
    else:
        metrics = median_of(plain, END_TO_END)
        units = END_TO_END
    result = {**tally(records),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    write_record(workload, seed, trace, records, plain, result,
                 provenance(workload, seed, records[0]["version"], cpus))
    return result


def write_record(workload, seed, trace, records, passes, result, prov) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    commands = [{key: r.get(key) for key in
                 ("argv", "traced", "exit", "status", "digest", "setup_s",
                  "run_s", "rss_kib", "host_scale", "ref_samples")} for r in records]
    for c in commands:
        c["seed"] = (int(c["argv"][c["argv"].index("--seed") + 1])
                     if "--seed" in c["argv"] else DEFAULT_SEED)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result,
                   "untraced_passes": passes, "commands": commands},
                  fh, indent=1)


def load_pins() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def pin() -> int:
    """Record the stdout digest of every command at the default seed."""
    pins = {}
    for workload in WORKLOADS:
        for r in run_pass(workload_commands(workload, DEFAULT_SEED), False, {},
                          perf_counter() + 600):
            if r["status"] != "ok":
                sys.stderr.write(f"not pinning {r['argv']}: {r['status']}\n")
                return 1
            pins[" ".join(r["argv"])] = r["digest"]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-record perfbench/digests.json and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(CLI_FILE):
        sys.stderr.write(f"no program to benchmark: {CLI_FILE} is missing\n")
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except HarnessError as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1
    error_rate = result["failed"] / result["attempted"]
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'error_rate':44s} {error_rate:14.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
