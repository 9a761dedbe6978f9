"""Benchmark of abdlearn: seeded train-then-evaluate workloads.

    python3 perfbench/run.py --workload sum_em --seed 1 --seconds 25 --trace 0

Run from the repository root.  A run repeats its workload's episode
(set-up, EM training, one tasks.evaluate call per eval example) on seeds
derived from --seed, checks every induced program and every eval answer,
and prints one JSON object as the last line of standard output.

--seconds sets the amount of work, not a clock: the episode count is
scaled from the count each workload runs in 25 seconds on a 2-CPU x86
machine.  Fixed work keeps the sample counts, and so the tail percentile,
the same on every commit.

Every timed operation is bracketed by a fixed reference task, and the
reported times are rescaled to the host speed at which that task takes
REFERENCE_S.  Wall-clock figures are printed and recorded beside them.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
the same episodes run twice, untraced and then with every layer boundary
wrapped in a span; the result holds the per-layer metrics, the per-layer
self times, and the tracing overhead (traced minus untraced wall time).
Spans and a full result record, with the environment, are written under
.perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NOMINAL_SECONDS = 25
SETUP_REPEATS = 5  # set-up is short; its median over repeats is steadier
REFERENCE_S = 0.0004  # reference task time on the 2-vCPU VM the bounds were tuned on

# Metric name -> unit; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "train_items_per_s": "items/s",
    "batch_ms_p50": "ms",
    "batch_ms_tail": "ms",
    "eval_items_per_s": "items/s",
    "eval_ms_p50": "ms",
    "eval_ms_tail": "ms",
    "ok_share": "share",
    "perception_acc": "share",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not in the result line: from seed to seed they
# spread wider than any bound a regression check can use (README.md).
REPORTED = {"task_acc": "share", "test_mae": "abs_err"}


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "abdlearn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy

    for lib_path in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "threads": threading.active_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _reference_task() -> int:
    """Fixed interpreter work that shares no code with abdlearn."""
    table = {}
    for i in range(800):
        table[(i, i * 7 % 13, "k%d" % i)] = len(table)
    return len(table)


def normalized(wall_s: float, ref_before: float, ref_after: float) -> float:
    """wall_s rescaled to the machine speed at which the reference task takes REFERENCE_S.

    The host this benchmark runs on slows by up to 1.7x for seconds to
    minutes at a time, for every process on it; the reference task, timed
    just before and after an operation, measures that speed.
    """
    return wall_s * REFERENCE_S * 2 / (ref_before + ref_after)


class Speed:
    """Samples host speed with the reference task; a traced phase sees it as bench time."""

    def __init__(self):
        self.samples: "list[float]" = []
        self.span = lambda name: contextlib.nullcontext()

    def sample(self) -> float:
        with self.span("bench.reference"):
            t0 = time.perf_counter()
            _reference_task()
            dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def timed(self, fn, *args, **kwargs):
        """(result, wall seconds, normalized seconds) of one call."""
        before = self.sample()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return out, wall, normalized(wall, before, self.sample())


class Probe:
    """Times EM batches and captures each eval's goal and answer.

    A batch runs from the start of em.train's call to induce to the end of
    its M-step, or of induce when no program was found.  Eval answers are
    read from the tasks.deduce stream evaluate consumes.
    """

    def __init__(self, speed: Speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.started: "list[tuple]" = []  # (reference before, start) per batch
        self.times: "list[tuple]" = []  # (wall ms, normalized ms) per batch, inf when it failed
        self.answers: "list[list]" = []  # [goal, first solution or None, Budget]
        self.next_op = 0

    def new_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op = self.next_op
        self.next_op += 1

    def install(self, patches) -> None:
        from abdlearn import em, tasks

        induce, m_step, deduce = em.induce, em.m_step, tasks.deduce

        def timed_induce(*args, **kwargs):
            self.new_op()
            ref = self.speed.sample()
            t0 = time.perf_counter()
            out = induce(*args, **kwargs)
            self.started.append((ref, t0))
            if out.induced is None:
                self.times.append((math.inf, math.inf))
            return out

        def timed_m_step(*args, **kwargs):
            out = m_step(*args, **kwargs)
            ref, t0 = self.started[-1]
            wall = time.perf_counter() - t0
            self.times.append((wall * 1e3, normalized(wall, ref, self.speed.sample()) * 1e3))
            return out

        def capturing_deduce(goal, kb, *args, **kwargs):
            record = [goal, None, kwargs.get("budget")]
            self.answers.append(record)
            for sol in deduce(goal, kb, *args, **kwargs):
                record[1] = sol
                yield sol

        patches.set(em, "induce", timed_induce)
        patches.set(em, "m_step", timed_m_step)
        patches.set(tasks, "deduce", capturing_deduce)


class EvalRecord:
    __slots__ = ("episode", "ex", "ms", "metrics", "goal", "sol", "budget")

    def __init__(self, episode, ex, ms, metrics, goal, sol, budget):
        self.episode, self.ex, self.metrics = episode, ex, metrics
        self.ms = ms  # (wall ms, normalized ms)
        self.goal, self.sol, self.budget = goal, sol, budget

    @property
    def answered(self) -> bool:
        return self.metrics.failures == 0

    def answer(self):
        return None if self.sol is None else self.sol.apply(self.goal.args[1])


def run_pass(workload, seed: int, n_episodes: int, tracer=None) -> dict:
    """Set up every episode, then train and evaluate each; returns raw timings.

    Set-up runs before any wrapper is installed, so a traced pass traces
    only the timed phases.  The eval sets run eval_rounds times, the later
    rounds after every episode has trained, and each example keeps its
    fastest time: a millisecond eval otherwise picks up whatever else ran
    in that millisecond.
    """
    from abdlearn import tasks

    from spans import Patches, instrument

    patches = tracer.patches if tracer is not None else Patches()
    speed = Speed()
    probe = Probe(speed, tracer)
    setup_s = []
    episodes, programs, evals, errors = [], [], [], []
    first_eval = {}  # episode -> index of its first eval record

    def run_evals(e: int, ep, program, rnd: int) -> None:
        def evaluate(ex):
            with span("bench.eval"):
                return tasks.evaluate(program, ep.task, [ex], model=ep.model, use_truth=ep.use_truth)

        for i, ex in enumerate(ep.eval_set):
            probe.new_op()
            n_before = len(probe.answers)
            m, wall, norm = speed.timed(evaluate, ex)
            if len(probe.answers) != n_before + 1:
                raise BenchError("evaluate did not run exactly one deduction for one example")
            r = EvalRecord(e, ex, (wall * 1e3, norm * 1e3), m, *probe.answers[-1])
            if rnd == 0:
                evals.append(r)
                continue
            kept = evals[first_eval[e] + i]
            kept.ms = (min(kept.ms[0], r.ms[0]), min(kept.ms[1], r.ms[1]))
            if r.answer() != kept.answer():
                errors.append(f"episode {e}: eval {i} answered {r.answer()} in round {rnd + 1}, {kept.answer()} before")

    for e in range(n_episodes):
        for _ in range(SETUP_REPEATS):
            ep, wall, norm = speed.timed(workload.setup, seed * 1000 + e)
            setup_s.append((wall, norm))
        episodes.append(ep)
    n_setup_samples = len(speed.samples)
    if tracer is not None:
        speed.span = tracer.span
    span = speed.span
    t_start = time.perf_counter()
    try:
        if tracer is not None:
            instrument(tracer)
        probe.install(patches)
        for e, ep in enumerate(episodes):
            gc.collect()
            with span("bench.train"):
                program, err = workload.train(ep)
            programs.append(program)
            if err:
                errors.append(f"episode {e}: {err}")
                continue
            first_eval[e] = len(evals)
            run_evals(e, ep, program, 0)
        for rnd in range(1, workload.eval_rounds):
            for e in first_eval:
                run_evals(e, episodes[e], programs[e], rnd)
    finally:
        patches.undo()
    samples = speed.samples[n_setup_samples:]
    wall_s = time.perf_counter() - t_start
    scale = REFERENCE_S / statistics.median(samples)
    return dict(
        setup_s=setup_s,
        wall_s=wall_s,  # train and eval phases, reference samples included
        scale=scale,  # their median host speed, as a factor to reference speed
        norm_s=(wall_s - sum(samples)) * scale,  # without the samples, at reference speed
        episodes=episodes,
        programs=programs,
        batches=probe.times,
        evals=evals,
        errors=errors,
    )


def check(workload, raw: dict) -> "list[str]":
    """Correctness gate over every eval answer; returns the failures."""
    errors = list(raw["errors"])
    for i, r in enumerate(raw["evals"]):
        ep = raw["episodes"][r.episode]
        if r.answered != (r.sol is not None):
            errors.append(f"eval {i}: evaluate and the deduction disagree on whether it answered")
            continue
        err = workload.check_answer(ep, r.ex, r.goal, r.sol)
        if err:
            errors.append(f"eval {i} (length {len(r.ex)}): {err}")
    return errors


def tail(values: "list[float]") -> "tuple[float, float, int]":
    """(value, percentile, n): the highest percentile with 10 samples above."""
    n = len(values)
    if n < 11:
        raise BenchError(f"{n} samples cannot give a tail percentile with 10 samples beyond it")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, raw: dict, clock: int) -> "tuple[dict, dict, int, int]":
    """End-to-end metrics, the notes printed beside them, operations attempted and failed.

    clock 0 reads wall times, clock 1 normalized ones.  EM throughput
    counts the time inside batches, which is all of EM but its loop glue.
    """
    evals = raw["evals"]
    batches = [b[clock] for b in raw["batches"]]
    # Quality is pooled within an episode, then the median over episodes is
    # taken: an occasional episode whose EM does not learn is reported in
    # the notes but does not swing the run's figure.
    quality: "dict[str, dict[int, list]]" = {}
    for r in evals:
        ep = raw["episodes"][r.episode]
        for name, (value, weight) in workload.quality(ep, r.ex, r.metrics).items():
            quality.setdefault(name, {}).setdefault(r.episode, []).append((value, weight))
    eval_ms = [r.ms[clock] if r.answered else math.inf for r in evals]
    attempted = len(batches) + len(evals)
    failed = sum(1 for b in batches if b == math.inf) + sum(1 for r in evals if not r.answered)
    batch_tail, batch_p, batch_n = tail(batches)
    eval_tail, eval_p, eval_n = tail(eval_ms)
    train_items = sum(ep.train_items for ep in raw["episodes"])
    values = {
        "setup_s": statistics.median(t[clock] for t in raw["setup_s"]),
        "train_items_per_s": train_items / (sum(b for b in batches if b != math.inf) / 1e3),
        "batch_ms_p50": statistics.median(batches),
        "batch_ms_tail": batch_tail,
        "eval_items_per_s": sum(len(r.ex) for r in evals if r.answered) / (sum(r.ms[clock] for r in evals) / 1e3),
        "eval_ms_p50": statistics.median(eval_ms),
        "eval_ms_tail": eval_tail,
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, per_episode in quality.items():
        values[name] = statistics.median(
            sum(v * w for v, w in pairs) / sum(w for _, w in pairs) for pairs in per_episode.values()
        )
    cuts = sum(1 for r in evals if not r.answered and r.budget.depth_hits)
    notes = {
        "batch_ms_tail": f"p{batch_p:.1f} of {batch_n} batches",
        "eval_ms_tail": f"p{eval_p:.1f} of {eval_n} evals, failures counted as infinitely slow",
        "ok_share": f"{failed} of {attempted} operations failed, {cuts} evals cut at the depth limit",
    }
    return values, notes, attempted, failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _declared_metrics() -> "tuple[list, list] | None":
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "abdlearn" / "__init__.py").is_file():
        print(f"abdlearn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process, one BLAS thread: the matrices are small, and the load
    # must stay within the machine's CPUs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("--seconds must be at least 1 and --seed at least 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    n_episodes = max(1, round(workload.episodes * args.seconds / NOMINAL_SECONDS))

    raw = run_pass(workload, args.seed, n_episodes)
    errors = check(workload, raw)
    from workloads import LIBRARY
    from abdlearn.metarules import program_text

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "episodes": n_episodes,
        "environment": environment(),
        "programs": [program_text(p, LIBRARY) if p is not None else None for p in raw["programs"]],
    }
    if not errors:
        values, notes, attempted, failed = end_to_end(workload, raw, clock=1)
        wall, _, _, _ = end_to_end(workload, raw, clock=0)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        reported = {name: (values[name], unit) for name, unit in REPORTED.items() if name in values}
        record.update(
            notes=notes,
            end_to_end={k: v for k, (v, _) in metrics.items()},
            wall_clock={k: wall[k] for k in metrics},
            reported={k: v for k, (v, _) in reported.items()},
        )
        bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
        if bad:
            errors.append(f"metrics not finite: {', '.join(bad)} ({notes})")

    if not errors and args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        traced = run_pass(workload, args.seed, n_episodes, tracer)
        errors += [f"traced pass: {e}" for e in check(workload, traced)]
        if [p.key() for p in traced["programs"]] != [p.key() for p in raw["programs"]] or [
            r.sol is not None for r in traced["evals"]
        ] != [r.sol is not None for r in raw["evals"]]:
            errors.append("the traced pass induced or answered differently from the untraced pass")
        # Layer times are rescaled like the end-to-end ones, by the traced
        # phase's median host speed; overhead compares the passes net of the
        # reference samples.
        scale = traced["scale"]
        covered = sum(tracer.self_ms().values())
        layers = {k: (v * scale if u == "ms" else v, u) for k, (v, u) in layer_metrics(tracer).items()}
        wall_ms, untraced_ms = traced["norm_s"] * 1e3, raw["norm_s"] * 1e3
        layers.update(
            {
                "trace.wall_ms": (wall_ms, "ms"),
                "trace.untraced_ms": (untraced_ms, "ms"),
                "trace.overhead_ms": (wall_ms - untraced_ms, "ms"),
                "trace.coverage": (covered / (traced["wall_s"] * 1e3), "ratio"),
                "trace.spans": (len(tracer.start_col), "count"),
            }
        )
        spans_path = OUT_DIR / f"spans-{args.workload}.csv.gz"
        tracer.write_spans(spans_path)
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = layers
        print(f"{'layer':<12}{'self ms':>12}{'share':>8}")
        for layer, ms in tracer.self_ms().items():
            print(f"{layer:<12}{ms * scale:>12.1f}{ms / covered:>8.1%}")
        print(f"traced {wall_ms:.0f} ms, untraced {untraced_ms:.0f} ms, overhead {wall_ms - untraced_ms:.0f} ms "
              f"(at reference speed); self times cover {layers['trace.coverage'][0]:.1%} of traced wall time; "
              f"{len(tracer.start_col)} spans in {spans_path.name}")

    OUT_DIR.mkdir(exist_ok=True)
    record["errors"] = errors
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    env = record["environment"]
    print(f"environment: commit {env['commit'][:12]} source {env['source_sha256']} python {env['python']} "
          f"numpy {env['numpy']} nproc {env['nproc']} blas_threads {env['blas_threads']} threads {env['threads']}")
    if errors:
        result_path.write_text(json.dumps(record, indent=1) + "\n")
        for e in errors[:20]:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        _print_result(False, len(raw["batches"]) + len(raw["evals"]), len(errors), {})
        return 1

    declared = _declared_metrics()
    if declared is not None and sorted(metrics) != sorted(declared[1 if args.trace else 0]):
        raise BenchError("the metrics measured differ from those BENCHMARK.json lists")
    if not args.trace:
        print(f"{'metric':<20}{'normalized':>14} {'unit':<8}{'wall clock':>14}")
        for name, (value, unit) in {**metrics, **reported}.items():
            note = notes.get(name, "not in the result line" if name in REPORTED else "")
            print(f"{name:<20}{value:>14.4f} {unit:<8}{wall[name]:>14.4f}  {note}")
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    _print_result(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
