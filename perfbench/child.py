"""One benchmark run in a fresh interpreter; started by ``run.py``.

Usage: ``python3 perfbench/child.py SPEC_JSON``, with ``src`` of the
checkout on ``PYTHONPATH``.  SPEC_JSON holds ``src`` (where paclab must be
imported from), ``steps`` (argv lists, each passed to
``paclab.cli.main``), ``trace`` (install the layer tracer), ``probe``
(sample CPU speed during the run) and ``readback`` (the
``distributions.csv`` the traced run reads back).  With no steps the child
only imports the CLI, which measures set-up; with ``reference`` set it
imports only NumPy.

The last line of stdout is one JSON object: the monotonic clock reading
once ``paclab.cli`` is imported (the parent subtracts its spawn time to get
set-up time), the import time, the wall time from the first ``main`` call
to the last return, the speed probes, each step's exit code and captured
stdout, the peak RSS, and in trace mode the layer report.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

PROBE_PERIOD_S = 0.2


def probe() -> float:
    """Seconds for a fixed kernel that uses no paclab code.

    It mixes the work paclab's layers do: small NumPy calls from a Python
    loop, then float formatting, parsing and object churn as in CSV I/O.
    The sandbox's CPU speed drifts by up to 2x within seconds, so probes
    sampled during a run measure how fast the machine was while it ran.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(12345))
    acc = 0
    for i in range(300):
        x = rng.integers(0, 2, size=(64, 10), dtype=np.uint8)
        acc += int(x.any(axis=0).sum())
        acc ^= (i * 2654435761) & 0xFFFF
        acc += sum(range(40))
    text = ",".join(format(i / 7.0, ".17g") for i in range(2500))
    table = {}
    for i, field in enumerate(text.split(",")):
        table[i & 1023] = (float(field), str(i))
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs :func:`probe` before, after, and every PROBE_PERIOD_S during a run.

    The periodic probes run in a SIGALRM handler; ``stolen_s`` is the time
    they took, which the caller subtracts from the run's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.stolen_s += time.perf_counter() - t0

    def __enter__(self) -> SpeedProbe:
        probe()  # the first call in a process runs about 3x slower
        self.samples.append(probe())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("reference"):
        # Same interpreter start-up, importing only NumPy: the yardstick for set-up time.
        import numpy  # noqa: F401

        print(json.dumps({"ready_monotonic": time.monotonic()}))
        return 0
    t_import = time.perf_counter()
    import paclab.cli as cli

    import_s = time.perf_counter() - t_import
    ready_monotonic = time.monotonic()

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"child: imported paclab from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import layertrace  # beside this script, so on sys.path

        tracer = layertrace.Tracer()
        tracer.install()

    # Probes would land inside traced spans, so traced invocations run none.
    speed = SpeedProbe() if spec["probe"] else None
    steps = []
    with speed or nullcontext():
        t0 = time.perf_counter()
        for argv in spec["steps"]:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.main(argv)
            steps.append({"rc": rc, "stdout": buf.getvalue()})
            if rc != 0:
                break
        wall_s = time.perf_counter() - t0 - (speed.stolen_s if speed else 0.0)

    result = {
        "ready_monotonic": ready_monotonic,
        "import_s": import_s,
        "numpy": sys.modules["numpy"].__version__,
        "wall_s": wall_s,
        "probe_s": speed.samples if speed else [],
        "steps": steps,
    }
    if tracer is not None:
        ok = all(step["rc"] == 0 for step in steps) and tracer.trial_calls
        readback = layertrace.readback_check(spec["readback"], tracer.trial_calls) if ok else "skipped"
        tracer.uninstall()
        result["trace"] = tracer.report()
        result["trace"]["readback"] = readback
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
