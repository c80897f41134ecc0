"""Layer spans and a per-trial decomposition for the traced benchmark run.

:class:`Tracer` wraps the public functions named in :data:`SPANS` for the
duration of one run.  Each wrapper records calls, inclusive time and self
time (inclusive minus the time of spans nested inside it), keyed by span
and by (caller span, span) edge, so a layer's self time is the sum over
its spans.  A target that no longer exists is listed as missing rather
than failing the run, so the benchmark survives refactors of ``src/``.

:func:`decompose` replays every ``run_trials`` call seen during the run
piece by piece, in ``run_trials``' order (seed derivation, generator
construction, target, draws, labels, learner, scorer), timing each piece,
and reports whether the replayed losses equal the losses ``run_trials``
returned bit for bit.  If they differ, the per-piece times describe a
different program and the run is marked incorrect.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# layer (module under paclab) -> public functions, or Class.method, to span.
SPANS = {
    "cli": [
        "main",
        "cmd_experiment",
        "cmd_bound",
        "cmd_kl",
        "run_experiment",
        "task_bound_spec",
        "read_distributions_csv",
        "read_curve_csv",
    ],
    "empirics": ["run_trials", "histogram", "derive_trial_seed"],
    "learners": [
        "ConjunctionTask.draw_target",
        "ConjunctionTask.trial_loss",
        "ThresholdTask.draw_target",
        "ThresholdTask.trial_loss",
        "random_conjunction_target",
        "random_threshold_target",
        "label_conjunction_batch",
        "learn_conjunction_bits",
        "conjunction_loss_exact",
    ],
    "theory": ["discretize_bound", "bound_cdf", "bound_density", "bound_point_mass", "cutoff"],
    "analysis": ["build_curve", "kl_divergence", "dist_mean", "dist_std"],
}

_TRIAL_LOSS = ("learners.ConjunctionTask.trial_loss", "learners.ThresholdTask.trial_loss")
_GRID = ("theory.bound_cdf", "theory.bound_density", "theory.bound_point_mass", "theory.cutoff")
_SCALAR_EVALS = ("theory.bound_cdf", "theory.bound_density")


class Tracer:
    """Installs span wrappers on the paclab modules and aggregates them."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])  # calls, total
        self.missing: list[str] = []
        self.trial_calls: list[dict] = []
        self.slots = 0
        self.discretize_evals = 0
        self.read_paths: list[str] = []
        self._stack: list[list] = []  # [span name, seconds spent in nested spans]
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "empirics.run_trials": self._on_run_trials,
            "analysis.kl_divergence": self._on_kl,
            "theory.discretize_bound": self._on_discretize,
            "cli.read_distributions_csv": self._on_read,
        }

    # -- capture hooks: counts taken from arguments at the layer boundary --

    def _on_run_trials(self, args, result) -> None:
        self.trial_calls.append(
            {
                "task": args["task"],
                "m": args["m"],
                "k": args["k"],
                "master_seed": args["master_seed"],
                "fixed_target": args.get("fixed_target", False),
                "losses": np.array(result.losses, dtype=float),
            }
        )

    def _on_kl(self, args, result) -> None:
        self.slots += len(args["p"].masses)

    def _on_discretize(self, args, result) -> None:
        # CDF((i+1)/l) - CDF(i/l) over l slots needs l + 1 CDF values.
        self.discretize_evals += args["num_slots"] + 1

    def _on_read(self, args, result) -> None:
        self.read_paths.append(str(args["path"]))

    # -- installation --

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "<run>"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key == "paclab" or key.startswith("paclab.")]
        for layer, targets in SPANS.items():
            module = sys.modules.get(f"paclab.{layer}")
            for target in targets:
                name = f"{layer}.{target}"
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = vars(owner).get(attr) if isinstance(owner, type) else None
                    if not inspect.isfunction(original):
                        self.missing.append(name)
                        continue
                    self._patch(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, attr, None)
                if not inspect.isfunction(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                # Rebind every module-level reference, including `from x import f` copies.
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting --

    def _total(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def report(self) -> dict:
        """Per-layer metrics, span table and decomposition; call after uninstall."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in SPANS}
        for name, (calls, _, self_s) in self.stats.items():
            entry = layers[name.split(".", 1)[0]]
            entry["self_s"] += self_s
            entry["calls"] += calls
        trials = sum(c["k"] for c in self.trial_calls)
        run_trials_s = self._total("empirics.run_trials")
        rows_read = 0
        for path in self.read_paths:
            with open(path, "rb") as fh:
                rows_read += max(sum(1 for _ in fh) - 1, 0)
        scalar_evals = sum(self.stats[n][0] for n in _SCALAR_EVALS if n in self.stats)

        metrics = {f"{layer}.self_s": v["self_s"] for layer, v in layers.items()}
        metrics |= {f"{layer}.calls": v["calls"] for layer, v in layers.items()}
        metrics |= {
            "empirics.run_trials_s": run_trials_s,
            "empirics.trials": trials,
            "empirics.trial_us": run_trials_s / trials * 1e6 if trials else 0.0,
            "empirics.histogram_s": self._total("empirics.histogram"),
            "learners.trial_loss_s": self._total(*_TRIAL_LOSS),
            "theory.discretize_s": self._total("theory.discretize_bound"),
            "theory.grid_s": self._total(*_GRID),
            "theory.cdf_evals": scalar_evals + self.discretize_evals,
            "analysis.build_curve_s": self._total("analysis.build_curve"),
            "analysis.kl_s": self._total("analysis.kl_divergence"),
            "analysis.slots": self.slots,
            "cli.output_s": sum(self.stats[n][2] for n in ("cli.cmd_experiment", "cli.cmd_bound") if n in self.stats),
            "cli.read_s": self._total("cli.read_distributions_csv"),
            "cli.rows_read": rows_read,
            "trace.missing_spans": len(self.missing),
        }
        total_self = sum(v["self_s"] for v in layers.values()) or 1.0
        decomposition = decompose(self.trial_calls)
        metrics |= decomposition.pop("metrics")
        return {
            "metrics": metrics,
            "layer_share": {layer: v["self_s"] / total_self for layer, v in layers.items()},
            "missing": self.missing,
            "decomposition": decomposition,
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(self.stats.items())
            },
            "edges": [
                {"caller": p, "span": n, "calls": c, "total_s": t} for (p, n), (c, t) in sorted(self.edges.items())
            ],
        }


def readback_check(path: str, calls: list[dict]) -> str:
    """Read ``distributions.csv`` back through the CLI reader and check it.

    Every P group must equal the histogram of the losses ``run_trials``
    returned, and the last sample size's Q group must equal differences of
    ``bound_cdf`` at the slot edges, both exactly: the CSV stores 17
    significant digits.  Runs with the tracer installed, so the read path
    and the scalar CDF are traced on every workload.  Returns ``ok``,
    ``missing: ...`` or a description of the mismatch.
    """
    import paclab.cli as cli
    import paclab.theory as theory

    try:
        groups = cli.read_distributions_csv(path)
        spec = cli.task_bound_spec(calls[-1]["task"], calls[-1]["m"])
        bound_cdf = theory.bound_cdf
    except AttributeError as exc:
        return f"missing: {exc}"
    for call in calls:
        p = groups.get((call["m"], "P"))
        if p is None:
            return f"no P group for m={call['m']}"
        slots = len(p.masses)
        idx = np.searchsorted(np.arange(1, slots) / slots, call["losses"], side="right")
        if (np.bincount(idx, minlength=slots) / call["losses"].size).tolist() != list(p.masses):
            return f"P at m={call['m']} is not the histogram of the run_trials losses"
    q = groups.get((calls[-1]["m"], "Q"))
    if q is None:
        return f"no Q group for m={calls[-1]['m']}"
    slots = len(q.masses)
    cdf = [bound_cdf(spec, i / slots) for i in range(slots + 1)]
    if [b - a for a, b in zip(cdf, cdf[1:])] != list(q.masses):
        return f"Q at m={calls[-1]['m']} is not the bound_cdf slot differences"
    return "ok"


_PIECES = ("derive_seed", "rng_init", "target", "sample", "label", "learn", "score")
_PIECE_METRICS = {
    "derive_seed": "empirics.derive_seed_s",
    "rng_init": "empirics.rng_init_s",
    "target": "learners.target_s",
    "sample": "learners.sample_s",
    "label": "learners.label_s",
    "learn": "learners.learn_s",
    "score": "learners.score_s",
}


def decompose(calls: list[dict]) -> dict:
    """Replay each captured ``run_trials`` call one timed piece at a time.

    Returns ``{"status", "trials", "metrics"}``; status is ``ok``,
    ``mismatch`` (replayed losses differ from ``run_trials``), or
    ``missing: ...`` when a piece it needs is gone from ``src/``.
    """
    times = dict.fromkeys(_PIECES, 0.0)
    informative = 0
    trials = 0
    status = "ok"
    try:
        from paclab.empirics import derive_trial_seed
        from paclab.learners import (
            ConjunctionTask,
            ThresholdHypothesis,
            ThresholdTask,
            conjunction_loss_exact,
            label_conjunction_batch,
            learn_conjunction_bits,
            threshold_loss_exact,
        )
    except ImportError as exc:
        status = f"missing: {exc}"
        calls = []
    clock = time.perf_counter
    for call in calls:
        task, m, k, seed = call["task"], call["m"], call["k"], call["master_seed"]
        if call["fixed_target"]:
            status = "missing: fixed-target replay"
            break
        losses = np.empty(k, dtype=float)
        conjunction = isinstance(task, ConjunctionTask)
        if not conjunction and not isinstance(task, ThresholdTask):
            status = f"missing: replay for {type(task).__name__}"
            break
        for i in range(k):
            t0 = clock()
            trial_seed = derive_trial_seed(seed, m, i)
            t1 = clock()
            rng = np.random.Generator(np.random.PCG64(trial_seed))
            t2 = clock()
            target = task.draw_target(rng)
            t3 = clock()
            if conjunction:
                bits = rng.integers(0, 2, size=(m, task.n), dtype=np.uint8)
                t4 = clock()
                labels = label_conjunction_batch(target, bits)
                t5 = clock()
                learned = learn_conjunction_bits(bits, labels)
                t6 = clock()
                losses[i] = conjunction_loss_exact(target, learned)
                t7 = clock()
                informative += bool(labels.any())
            else:
                xs = rng.random(m)
                t4 = clock()
                # ThresholdTask.trial_loss inlines its labels and learner:
                # points at or above the cut are negatives, the ERM cut is
                # the smallest negative (1.0 when there is none).
                negative = xs >= target.a
                t5 = clock()
                negatives = xs[negative]
                a_hat = float(negatives.min()) if negatives.size else 1.0
                t6 = clock()
                losses[i] = threshold_loss_exact(target, ThresholdHypothesis(a_hat))
                t7 = clock()
                informative += bool(negatives.size)
            for piece, dt in zip(_PIECES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6)):
                times[piece] += dt
        trials += k
        if losses.tobytes() != call["losses"].tobytes():
            status = f"mismatch at m={m}"
            break
    metrics = {_PIECE_METRICS[p]: times[p] for p in _PIECES}
    metrics["learners.informative_frac"] = informative / trials if trials else 0.0
    return {"status": status, "trials": trials, "metrics": metrics}
