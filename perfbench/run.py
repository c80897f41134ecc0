"""End-to-end and per-layer benchmark for paclab.

Usage (from the repository root)::

    python3 perfbench/run.py --workload conj-default --seed 2024 --seconds 35 --trace 0

Runs go one at a time, each in a fresh interpreter (``child.py``) that
calls ``paclab.cli.main(argv)`` for the workload's commands, until
``--seconds`` are used up.  The seed reaches the program only as its
``--seed`` flag.

``--trace 0`` reports the end-to-end metrics as medians over the runs:

* ``wall_s``: first ``main`` call to last return, excluding start-up;
* ``setup_s``: interpreter spawn to ``paclab.cli`` imported, over
  spawns that only import;
* ``trials_per_s``: the workload's trials over ``wall_s``;
* ``peak_rss_mb``: the child's ``ru_maxrss``.

The sandbox's CPU speed drifts by up to 2x within seconds, so both times
are rescaled to a reference speed.  For ``wall_s`` a fixed kernel
(``child.probe``, no paclab code) is timed before, after and every 0.2 s
during a run; its time is subtracted from the run's, and the run's time is
multiplied by ``PROBE_REF_S`` over the mean probe time.  Each ``setup_s``
sample is multiplied by ``SETUP_REF_S`` over the set-up time of a
NumPy-only interpreter spawned just before it.  Raw medians are printed
too.  ``fail_frac`` is the result's ``failed`` over ``attempted``.

``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of ``layertrace.py``, unscaled, and writes the span
table to ``.bench_out/trace/``; ``trace.overhead_s`` is traced minus
untraced wall time.

Every run's outputs are hashed and checked: at the pinned seed against
the goldens in ``reference.json``, at any other seed against the first
run of the same invocation, and on wide-io the ``kl`` step's value against
``curve.csv``.  A run that exits non-zero, mismatches a hash or fails a
check counts as failed.  The last stdout line is the JSON result; the
lines before it give each metric with its sample count, and the
environment.  Exits 2 without a result when the checkout has no
``src/paclab``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Pairs of set-up-only interpreters (NumPy-only reference, then paclab.cli).
SETUP_PAIRS = 6
# Times are rescaled to a machine where child.probe() takes PROBE_REF_S and
# the NumPy-only reference interpreter is ready in SETUP_REF_S (about the
# speed of a 2-vCPU Xeon sandbox).
PROBE_REF_S = 0.009
SETUP_REF_S = 0.15
CHILD_TIMEOUT_S = 150

# Sample sizes of the wide-io bound step: the threshold schedule 20..1000.
_WIDE_BOUND_M = ",".join(str(m) for m in range(20, 1001, 20))
# Trials each workload's experiment runs: 50 sample sizes at the given k.
TRIALS = {"conj-default": 50 * 1000, "thr-default": 50 * 1000, "wide-io": 50 * 20}
CURVE_ROWS = 50


def workload_steps(workload: str, seed: int, out: Path) -> list[list[str]]:
    """The CLI argv lists one run of a workload passes to ``paclab.cli.main``."""
    exp = str(out / "exp")
    seed_arg = f"--seed={seed}"
    if workload == "conj-default":
        return [["experiment", "--task", "conjunction", seed_arg, "--out-dir", exp]]
    if workload == "thr-default":
        return [["experiment", "--task", "threshold", seed_arg, "--out-dir", exp]]
    dists = str(out / "exp" / "distributions.csv")
    return [
        ["experiment", "--task", "threshold", "--trials", "20", "--slots", "2000", seed_arg, "--out-dir", exp],
        ["kl", dists, dists, "--m", "1000"],
        ["bound", "--kind", "vc", "--vc-dim", "1", "--m", _WIDE_BOUND_M, "--out-dir", str(out / "bound")],
    ]


def spawn(
    steps: list[list[str]], trace: bool, speed_probe: bool, readback: str = "", reference: bool = False
) -> dict:
    """Run one fresh interpreter; returns its result plus ``setup_s``."""
    spec = json.dumps(
        {"src": str(SRC), "steps": steps, "trace": trace, "probe": speed_probe, "readback": readback, "reference": reference}
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PACLAB_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), spec],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic is CLOCK_MONOTONIC, shared by parent and child.
    result["setup_s"] = result["ready_monotonic"] - t_spawn
    return result


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_check(workload: str, result: dict, out: Path) -> str | None:
    """Cross-layer checks on one run's outputs; returns an error or None."""
    for i, step in enumerate(result["steps"]):
        if step["rc"] != 0:
            return f"step {i} exited {step['rc']}"
    curve = (out / "exp" / "curve.csv").read_text(encoding="utf-8").splitlines()
    if len(curve) != CURVE_ROWS + 1:
        return f"exp/curve.csv has {len(curve) - 1} rows, expected {CURVE_ROWS}"
    if workload == "wide-io":
        # The kl step re-reads distributions.csv; its value must equal the
        # kl column the experiment wrote for m=1000, parsed from its text.
        header = curve[0].split(",")
        row = next((r.split(",") for r in curve[1:] if r.split(",")[0] == "1000"), None)
        if row is None:
            return "exp/curve.csv has no m=1000 row"
        printed = float(result["steps"][1]["stdout"].strip())
        stored = float(row[header.index("kl")])
        if printed != stored:
            return f"kl step printed {printed!r}, curve.csv stores {stored!r}"
    return None


def output_hashes(workload: str, result: dict, out: Path) -> dict[str, str]:
    hashes = {str(p.relative_to(out)): sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}
    if workload == "wide-io":
        hashes["kl.stdout"] = hashlib.sha256(result["steps"][1]["stdout"].encode()).hexdigest()
    return hashes


def output_size(out: Path) -> tuple[int, int]:
    """(CSV data rows, bytes) across every file a run wrote."""
    rows = 0
    size = 0
    for p in out.rglob("*"):
        if p.is_file():
            size += p.stat().st_size
            if p.suffix == ".csv":
                with open(p, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
    return rows, size


class Runner:
    """Runs one workload repeatedly and keeps every run's record."""

    def __init__(self, workload: str, seed: int, goldens: dict[str, str] | None) -> None:
        self.workload = workload
        self.seed = seed
        self.goldens = goldens
        self.first_hashes: dict[str, str] | None = None
        self.runs: list[dict] = []
        self.failures: list[str] = []  # one entry per failed run
        self.attempted = 0

    def run(self, trace: bool, speed_probe: bool) -> None:
        self.attempted += 1
        OUT.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            try:
                steps = workload_steps(self.workload, self.seed, out)
                result = spawn(steps, trace, speed_probe, str(out / "exp" / "distributions.csv"))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                self.failures.append(f"run {self.attempted - 1}: {exc}")
                return
            try:
                error = output_check(self.workload, result, out)
                if error is None:
                    error = self._hash_check(output_hashes(self.workload, result, out))
            except (OSError, ValueError, IndexError) as exc:
                error = f"output check: {exc!r}"
            if trace:
                result["rows_written"], result["bytes_written"] = output_size(out)
            result["trace_mode"] = trace
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.runs.append(result)
        if error is not None:
            self.failures.append(f"run {self.attempted - 1}: {error}")

    def _hash_check(self, hashes: dict[str, str]) -> str | None:
        if self.goldens is not None:
            bad = [f"{name} is {hashes.get(name, 'absent')[:16]}, golden {want[:16]}"
                   for name, want in self.goldens.items() if hashes.get(name) != want]
            if bad:
                return "golden mismatch: " + "; ".join(bad)
        if self.first_hashes is None:
            self.first_hashes = hashes
            return None
        bad = sorted(n for n in self.first_hashes.keys() | hashes.keys() if self.first_hashes.get(n) != hashes.get(n))
        return f"differs from the first run: {', '.join(bad)}" if bad else None


def describe(name: str, unit: str, values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f", q1 {q1:.6g}, q3 {q3:.6g}"
    else:
        spread = ""
    return f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)}{spread})"


def environment(numpy_version: str | None) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paclab" / "cli.py").is_file():
        print(f"perfbench: no paclab sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    refdata = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    goldens = refdata["goldens"].get(args.workload) if args.seed == refdata["pinned_seed"] else None
    runner = Runner(args.workload, args.seed, goldens)

    t_start = time.monotonic()
    spawn([], False, False)  # warm the bytecode cache; not measured
    setup = []  # (paclab.cli set-up seconds, NumPy-only reference seconds)
    for _ in range(0 if args.trace else SETUP_PAIRS):
        ref_s = spawn([], False, False, reference=True)["setup_s"]
        setup.append((spawn([], False, False)["setup_s"], ref_s))
    t_runs = time.monotonic()
    rounds = 0
    while True:
        if args.trace:
            runner.run(trace=False, speed_probe=False)
            runner.run(trace=True, speed_probe=False)
        else:
            runner.run(trace=False, speed_probe=True)
        rounds += 1
        now = time.monotonic()
        if now - t_start + (now - t_runs) / rounds > args.seconds:
            break

    runs = runner.runs
    plain = [r for r in runs if not r["trace_mode"]]
    traced = [r for r in runs if r["trace_mode"]]
    problems = list(runner.failures)
    samples: dict[str, list[float]] = {}
    if args.trace:
        for r in traced:
            for name, value in r["trace"]["metrics"].items():
                samples.setdefault(name, []).append(value)
            status = r["trace"]["decomposition"]["status"]
            if status != "ok" and not status.startswith("missing"):
                problems.append(f"decomposition: {status}")
            readback = r["trace"]["readback"]
            if readback != "ok" and not readback.startswith("missing"):
                problems.append(f"read-back check: {readback}")
        samples["cli.import_s"] = [r["import_s"] for r in runs]
        samples["cli.rows_written"] = [r["rows_written"] for r in traced]
        samples["cli.bytes_written"] = [r["bytes_written"] for r in traced]
        samples["trace.wall_s"] = [r["wall_s"] for r in plain]
        samples["trace.traced_wall_s"] = [r["wall_s"] for r in traced]
        if plain and traced:
            samples["trace.overhead_s"] = [statistics.median(samples["trace.traced_wall_s"]) - statistics.median(samples["trace.wall_s"])]
        wanted = bench["per_layer"]
    else:
        samples["setup_s"] = [raw * SETUP_REF_S / ref_s for raw, ref_s in setup]
        samples["wall_s"] = [r["wall_s"] * PROBE_REF_S / statistics.fmean(r["probe_s"]) for r in runs]
        samples["trials_per_s"] = [TRIALS[args.workload] / w for w in samples["wall_s"]]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in runs]
        wanted = bench["end_to_end"]
        print(describe("raw wall_s", "s", [r["wall_s"] for r in runs]))
        print(describe("raw setup_s", "s", [raw for raw, _ in setup]))
        print(describe("reference setup_s", "s", [ref_s for _, ref_s in setup]))
        print(describe("probe_s", "s", [statistics.fmean(r["probe_s"]) for r in runs]))

    env = environment(runs[0]["numpy"] if runs else None)
    env["loadavg_start"] = list(load_start)
    env["workload"] = args.workload
    env["seed"] = args.seed
    attempted = runner.attempted
    failed = len(runner.failures)
    metrics = {}
    for spec in wanted:
        values = samples.get(spec["name"])
        if not values:
            problems.append(f"no samples for {spec['name']}")
            continue
        print(describe(spec["name"], spec["unit"], values))
        metrics[spec["name"]] = {"value": statistics.median(values), "unit": spec["unit"]}
    print(f"fail_frac: {failed}/{attempted} runs failed")
    for problem in problems:
        print(f"FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace and traced:
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        last = traced[-1]["trace"]
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"env": env, "metrics": metrics, "last_traced_run": last}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        shares = ", ".join(f"{k} {v:.1%}" for k, v in last["layer_share"].items())
        print(f"layer shares of traced self time: {shares}; missing spans: {last['missing'] or 'none'}")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
