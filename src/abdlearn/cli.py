"""Command line front end: data generation, training, evaluation, benchmarks.

Exit codes: 0 success, 2 bad flags or config, 3 missing or malformed data,
4 search budget exhausted without a program.  Outputs land only under the
directory the user names; inputs are never touched.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bench import bench_abduction, bench_metarule_sizes
from .em import EMConfig, EMError, run_curriculum, train
from .metarules import (
    DEFAULT_LIBRARY,
    Program,
    program_from_json,
    program_text,
    program_to_json,
)
from .mil import SearchBudget, SettingError
from .perception import MLP, PairModel, PerceptionError
from .tasks import (
    Metrics,
    SyntheticDigitGen,
    Task,
    TaskError,
    TASK_IDS,
    answer_each,
    few_shot_examples,
    gen_sequences,
    labels_path_for,
    load_dataset,
    make_task,
    save_dataset,
    score,
)

OK, CONFIG_ERR, DATA_ERR, BUDGET_ERR = 0, 2, 3, 4


class CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


# ---------------------------------------------------------------------------
# run config (INI)

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# section -> key -> (parser, default); None default means "unset"
_SCHEMA = {
    "run": {
        "task": (str, None),
        "out": (str, None),
        "seed": (int, 0),
    },
    "data": {
        "train": (str, None),
        "val": (str, None),
    },
    "em": {
        "epochs": (int, 10),
        "batch_size": (int, 32),
        "m_epochs": (int, 8),
        "m_batch": (int, 32),
        "lr": (float, 0.1),
        "lr_decay": (float, 1.0),
        "hidden": (int, 64),
        "pretrain": (_parse_bool, False),  # few-shot warm start from sidecar truths
    },
    "budget": {
        "max_clauses": (int, 0),  # 0 = task default
        "max_nodes": (int, 0),  # 0 = unlimited
        "wall_ms": (int, 0),
        "pruning": (int, 1),
    },
    "curriculum": {
        "stage1_task": (str, None),
        "stage1_train": (str, None),
        "stage1_epochs": (int, 5),
        "stage1_batch_size": (int, 0),  # 0 = whole dataset in one batch
    },
}


def read_config(path: Path) -> "dict[str, dict]":
    """Parse and validate a run config; unknown sections or keys are errors."""
    if not path.is_file():
        raise CliError(CONFIG_ERR, f"config not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as e:
        raise CliError(CONFIG_ERR, f"bad config: {e}") from e
    out: "dict[str, dict]" = {s: {k: d for k, (_, d) in keys.items()} for s, keys in _SCHEMA.items()}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise CliError(CONFIG_ERR, f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise CliError(CONFIG_ERR, f"unknown config key {section}.{key}")
            caster = _SCHEMA[section][key][0]
            try:
                out[section][key] = caster(raw)
            except ValueError as e:
                raise CliError(CONFIG_ERR, f"bad value for {section}.{key}: {raw!r}") from e
    if not out["run"]["task"]:
        raise CliError(CONFIG_ERR, "config is missing run.task")
    if out["run"]["task"] not in TASK_IDS:
        raise CliError(CONFIG_ERR, f"unknown task {out['run']['task']!r}")
    if not out["data"]["train"]:
        raise CliError(CONFIG_ERR, "config is missing data.train")
    for key in ("epochs", "batch_size", "m_epochs", "m_batch", "hidden"):
        if out["em"][key] <= 0:
            raise CliError(CONFIG_ERR, f"em.{key} must be positive")
    if not (0.0 < out["em"]["lr"] < float("inf")):  # a NaN fails this too
        raise CliError(CONFIG_ERR, "em.lr must be positive and finite")
    if not (0.0 < out["em"]["lr_decay"] <= 1.0):
        raise CliError(CONFIG_ERR, "em.lr_decay must be in (0, 1]")
    for key, value in out["budget"].items():
        if value < 0:
            raise CliError(CONFIG_ERR, f"budget.{key} cannot be negative")
    s1 = out["curriculum"]
    if bool(s1["stage1_task"]) != bool(s1["stage1_train"]):
        raise CliError(CONFIG_ERR, "curriculum needs both stage1_task and stage1_train")
    if s1["stage1_task"] and out["em"]["pretrain"]:
        raise CliError(CONFIG_ERR, "em.pretrain warm-starts a digit classifier; a curriculum trains a pair model")
    if s1["stage1_epochs"] <= 0 or s1["stage1_batch_size"] < 0:
        raise CliError(CONFIG_ERR, "curriculum.stage1_epochs must be positive, stage1_batch_size not negative")
    return out


def write_resolved(cfg: "dict[str, dict]", path: Path) -> None:
    """Record the fully defaulted config next to the artifacts it produced."""
    cp = configparser.ConfigParser()
    for section, keys in cfg.items():
        cp[section] = {k: "" if v is None else str(v) for k, v in keys.items()}
    with open(path, "w") as fh:
        cp.write(fh)


def _budget_from(cfg: "dict[str, dict]", task: Task) -> SearchBudget:
    b = cfg["budget"]
    return SearchBudget(
        max_clauses=b["max_clauses"] or task.max_clauses,
        max_nodes=b["max_nodes"] or None,
        wall_ms=b["wall_ms"] or None,
        pruning=bool(b["pruning"]),
    )


def _load_examples(path: str, task_id: Optional[str] = None, truth: bool = False):
    """The dataset at path; with truth, every sequence needs its sidecar digits."""
    p = Path(path)
    if not p.is_file():
        raise CliError(DATA_ERR, f"dataset not found: {p}")
    try:
        _, examples = load_dataset(p, expect_task=task_id)
    except (TaskError, OSError, ValueError) as e:
        raise CliError(DATA_ERR, f"bad dataset {p}: {e}") from e
    if not examples:
        raise CliError(DATA_ERR, f"dataset {p} is empty")
    if truth and any(ex.truth is None for ex in examples):
        raise CliError(DATA_ERR, f"dataset {p} lacks ground-truth digits in {labels_path_for(p)}")
    return examples


def _feature_dim(examples) -> int:
    return int(np.asarray(examples[0].x).shape[1])


def _fresh_out_dir(raw: str) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# gen-data


def _parse_lengths(raw: str) -> "tuple[int, int]":
    try:
        parts = [int(p) for p in raw.split(",")]
    except ValueError:
        raise CliError(CONFIG_ERR, f"bad --lengths {raw!r}, want LO,HI")
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2 or parts[0] < 1 or parts[1] < parts[0]:
        raise CliError(CONFIG_ERR, f"bad --lengths {raw!r}, want LO,HI with 1 <= LO <= HI")
    return parts[0], parts[1]


def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.train <= 0:
        raise CliError(CONFIG_ERR, "--train must be at least 1")
    if args.val < 0 or args.test < 0:
        raise CliError(CONFIG_ERR, "--val/--test cannot be negative")
    if args.seed < 0:
        raise CliError(CONFIG_ERR, "--seed cannot be negative")
    task = make_task(args.task)
    lengths = _parse_lengths(args.lengths)
    try:
        gen = SyntheticDigitGen(
            n_classes=task.n_classes, dim=args.dim, noise=args.noise, seed=args.seed
        )
    except TaskError as e:
        raise CliError(CONFIG_ERR, f"bad --dim or --noise: {e}") from e
    splits = [("train", args.train), ("val", args.val), ("test", args.test)]
    drawn = []
    for name, n in splits:
        if n == 0:
            continue
        # distinct seed stream per split so val/test are not train prefixes
        offset = {"train": 0, "val": 7919, "test": 15859}[name]
        try:
            drawn.append((name, gen_sequences(task, n, lengths=lengths, gen=gen, seed=args.seed + offset)))
        except TaskError as e:
            raise CliError(CONFIG_ERR, str(e)) from e
    out = _fresh_out_dir(args.out)  # after every draw, so a failed one writes nothing
    for name, exs in drawn:
        path = out / f"{task.id}_{name}.tsv"
        save_dataset(exs, task.id, path)
        print(f"wrote {len(exs)} {name} sequences to {path}")
    return OK


# ---------------------------------------------------------------------------
# train


def _save_program(p: Program, stem: Path) -> None:
    stem.with_suffix(".pl").write_text(program_text(p, DEFAULT_LIBRARY) + "\n")
    stem.with_suffix(".json").write_text(json.dumps(program_to_json(p), indent=2) + "\n")


def _load_program(path: Path) -> Program:
    if path.suffix != ".json":
        sib = path.with_suffix(".json")
        if sib.is_file():
            path = sib
    if not path.is_file():
        raise CliError(DATA_ERR, f"program file not found: {path}")
    try:
        program = program_from_json(json.loads(path.read_text()))
        for ms in program.metasubs:
            if ms.rule not in DEFAULT_LIBRARY:
                raise ValueError(f"unknown metarule {ms.rule!r}")
            want = DEFAULT_LIBRARY[ms.rule].existentials
            named = all(isinstance(v, str) for _, v in ms.bindings)
            if tuple(e for e, _ in ms.bindings) != want or not named:
                raise ValueError(f"{ms.rule} must bind exactly {', '.join(want)}, each to a name")
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(DATA_ERR, f"bad program file {path}: {e}") from e
    return program


def _em_config(cfg: "dict[str, dict]", task: Task, out: Path, *, epochs=None, batch=None) -> EMConfig:
    em = cfg["em"]
    return EMConfig(
        epochs=epochs if epochs is not None else em["epochs"],
        batch_size=batch if batch is not None else em["batch_size"],
        m_epochs=em["m_epochs"],
        m_batch=em["m_batch"],
        lr_decay=em["lr_decay"],
        seed=cfg["run"]["seed"],
        budget=_budget_from(cfg, task),
        pretrain=em["pretrain"],
        metrics_path=out / "metrics.csv",
        artifacts_dir=out,
    )


def _few_shot_seed(examples, task: Task):
    try:
        return few_shot_examples(examples, task.n_classes, task.value_base)
    except TaskError as e:
        raise CliError(DATA_ERR, str(e)) from e


def cmd_train(args: argparse.Namespace) -> int:
    cfg = read_config(Path(args.config))
    if args.seed is not None:
        cfg["run"]["seed"] = args.seed
    if cfg["run"]["seed"] < 0:
        raise CliError(CONFIG_ERR, "run.seed (or --seed) cannot be negative")
    if args.out:
        cfg["run"]["out"] = args.out
    if not cfg["run"]["out"]:
        raise CliError(CONFIG_ERR, "no output directory (run.out or --out)")
    task = make_task(cfg["run"]["task"])
    seed = cfg["run"]["seed"]

    examples = _load_examples(cfg["data"]["train"], task.id)
    dim = _feature_dim(examples)
    stage1 = None
    if cfg["curriculum"]["stage1_task"]:
        t1 = make_task(cfg["curriculum"]["stage1_task"])
        if not t1.dyadic or not task.dyadic:
            raise CliError(CONFIG_ERR, "curriculum stages must both be pairwise tasks")
        stage1 = (t1, _load_examples(cfg["curriculum"]["stage1_train"], t1.id))
    elif task.dyadic:
        raise CliError(CONFIG_ERR, f"{task.id} needs a [curriculum] section")
    val_exs = _load_examples(cfg["data"]["val"], task.id) if cfg["data"]["val"] else None

    out = _fresh_out_dir(cfg["run"]["out"])
    write_resolved(cfg, out / "resolved.ini")
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    try:
        if stage1 is not None:
            t1, exs1 = stage1
            s1_out = _fresh_out_dir(str(out / "stage1"))
            s2_out = _fresh_out_dir(str(out / "stage2"))
            cfg1 = _em_config(
                cfg, t1, s1_out,
                epochs=cfg["curriculum"]["stage1_epochs"],
                batch=cfg["curriculum"]["stage1_batch_size"] or len(exs1),
            )
            cfg2 = _em_config(cfg, task, s2_out)
            pair = PairModel(dim, hidden=cfg["em"]["hidden"], lr=cfg["em"]["lr"], seed=seed)
            st1, st2, merged = run_curriculum((t1, exs1, cfg1), (task, examples, cfg2), pair)
            _save_program(st1.best_program, s1_out / "program")
            _save_program(st2.best_program, s2_out / "program")
            _save_program(merged, out / "program")
            pair.save(out / "model.ckpt")
            best = merged
            trained_model = pair
        else:
            model = MLP(dim, task.n_classes, hidden=cfg["em"]["hidden"], lr=cfg["em"]["lr"], seed=seed)
            seed_data = _few_shot_seed(examples, task) if cfg["em"]["pretrain"] else None
            state = train(
                task, examples, _em_config(cfg, task, out),
                model=model, pretrain_data=seed_data,
            )
            _save_program(state.best_program, out / "program")
            model.save(out / "model.ckpt")
            best = state.best_program
            trained_model = model
    except EMError as e:
        raise CliError(BUDGET_ERR, f"training failed: {e}") from e
    wall = time.perf_counter() - t0
    print(f"trained {task.id} in {wall:.1f}s; program ({best.size} clauses):")
    print(program_text(best, DEFAULT_LIBRARY))
    print(f"artifacts in {out}")
    if val_exs is not None:
        table = _per_length_table(task, best, val_exs, trained_model)
        (out / "metrics_val.tsv").write_text(table + "\n")
        print("validation metrics:")
        print(table)
    return OK


# ---------------------------------------------------------------------------
# eval


_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(Metrics))


def _metrics_table(per_len: "list[tuple[str, Metrics]]") -> str:
    lines = ["\t".join(("split",) + _METRIC_FIELDS)]
    for name, m in per_len:
        cells = [name]
        for f in _METRIC_FIELDS:
            v = getattr(m, f)
            cells.append("" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v)))
        lines.append("\t".join(cells))
    return "\n".join(lines)


def _per_length_table(task: Task, program: Program, examples, model, use_truth: bool = False) -> str:
    """One row per length and one for all: each example runs once, and
    every row reduces its examples' answers in dataset order."""
    answers = answer_each(program, task, examples, model=model, use_truth=use_truth)
    by_len: "dict[int, list]" = {}
    for a in answers:
        by_len.setdefault(len(a.ex), []).append(a)
    rows = [(f"len={ln}", score(task, by_len[ln])) for ln in sorted(by_len)]
    rows.append(("all", score(task, answers)))
    return _metrics_table(rows)


def _load_model(path: Path, task: Task, dim: int):
    """The task's kind of checkpoint, checked against the data's feature
    width and the task's class count; one that does not fit is a data error."""
    if not path.is_file():
        raise CliError(DATA_ERR, f"model checkpoint not found: {path}")
    try:
        model = PairModel.load(path) if task.dyadic else MLP.load(path)
    except (PerceptionError, OSError) as e:
        raise CliError(DATA_ERR, f"bad model checkpoint {path}: {e}") from e
    if model.n_in != dim or (not task.dyadic and model.n_classes != task.n_classes):
        raise CliError(DATA_ERR, f"model checkpoint {path} does not fit {task.id} data with {dim} features")
    return model


def cmd_eval(args: argparse.Namespace) -> int:
    task = make_task(args.task)
    examples = _load_examples(args.data, task.id, truth=args.use_truth)
    program = _load_program(Path(args.program))
    model = None
    if not args.use_truth:
        if not args.model:
            raise CliError(CONFIG_ERR, "need --model or --use-truth")
        model = _load_model(Path(args.model), task, _feature_dim(examples))
    table = _per_length_table(task, program, examples, model, use_truth=args.use_truth)
    print(table)
    if args.out:
        out = _fresh_out_dir(args.out)
        (out / "metrics_eval.tsv").write_text(table + "\n")
        print(f"wrote {out / 'metrics_eval.tsv'}")
    return OK


def cmd_show_program(args: argparse.Namespace) -> int:
    path = Path(args.program)
    if path.is_dir():
        path = path / "program.json"
    program = _load_program(path)
    print(program_text(program, DEFAULT_LIBRARY))
    print(f"# {program.size} clauses, {len(program.invented)} invented predicates")
    return OK


# ---------------------------------------------------------------------------
# benches


def cmd_bench_abduction(args: argparse.Namespace) -> int:
    task = make_task(args.task)
    if task.dyadic:
        raise CliError(CONFIG_ERR, "labeling-order bench expects a numeric task")
    if args.batch_size < 1 or args.batches < 0:
        raise CliError(CONFIG_ERR, "--batch-size must be at least 1 and --batches cannot be negative")
    examples = _load_examples(args.data, task.id)
    model = _load_model(Path(args.model), task, _feature_dim(examples))
    size = args.batch_size
    batches = [examples[i : i + size] for i in range(0, len(examples), size)]
    if args.batches:
        batches = batches[: args.batches]
    rows = bench_abduction(task, batches, model)
    print("batch\tconstraint_first\tenumerate_first\tconstraint_ms\tenumerate_ms\tsolved")
    for r in rows:
        print(f"{r.batch}\t{r.h_to_z}\t{r.z_to_h}\t{r.h_to_z_ms:.2f}\t{r.z_to_h_ms:.2f}\t{int(r.solved)}")
    solved = sum(r.solved for r in rows)
    print(f"# solved {solved}/{len(rows)} batches")
    if solved < len(rows):
        raise CliError(BUDGET_ERR, "some batches found no program within budget")
    return OK


def _builds_alone(task: Task) -> bool:
    """Whether task's setting builds from its own background knowledge: a
    body pool may name a predicate that only a curriculum's first stage
    defines."""
    try:
        task.setting()
    except SettingError:
        return False
    return True


def cmd_bench_metarules(args: argparse.Namespace) -> int:
    task = make_task(args.task)
    if args.limit < 0:
        raise CliError(CONFIG_ERR, "--limit cannot be negative")
    examples = _load_examples(args.data, task.id, truth=True)
    if args.limit:
        examples = examples[: args.limit]
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        rows = bench_metarule_sizes(task, examples, sizes=sizes)
    except ValueError as e:
        raise CliError(CONFIG_ERR, str(e)) from e
    print("n_rules\tnodes\twall_ms\tsolved\tworst_subset")
    for r in rows:
        print(f"{r.n_rules}\t{r.nodes}\t{r.wall_ms:.2f}\t{int(r.solved)}\t{','.join(r.names)}")
    return OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="abdlearn",
        description="induce list programs and train perception from weak sequence labels",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic digit-sequence datasets")
    g.add_argument("--task", required=True, choices=sorted(TASK_IDS))
    g.add_argument("--out", required=True)
    g.add_argument("--train", type=int, required=True)
    g.add_argument("--val", type=int, default=0)
    g.add_argument("--test", type=int, default=0)
    g.add_argument("--lengths", default="2,5", help="LO,HI sequence length range")
    g.add_argument("--noise", type=float, default=0.12)
    g.add_argument("--dim", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="run alternating induction/perception training from a config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", help="override run.out")
    t.add_argument("--seed", type=int, help="override run.seed")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="score a trained program/model on a dataset")
    e.add_argument("--task", required=True, choices=sorted(TASK_IDS))
    e.add_argument("--program", required=True, help="program.json from a training run")
    e.add_argument("--model", help="model checkpoint; omit with --use-truth")
    e.add_argument("--data", required=True)
    e.add_argument("--use-truth", action="store_true", help="bypass perception, read gold digits")
    e.add_argument("--out", help="also write metrics_eval.tsv here")
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("show-program", help="pretty-print a saved program")
    s.add_argument("program", help="program.json or a run directory")
    s.set_defaults(fn=cmd_show_program)

    ba = sub.add_parser("bench-abduction", help="constraint-guided vs enumerate-then-check labeling cost")
    ba.add_argument("--task", required=True, choices=sorted(TASK_IDS))
    ba.add_argument("--data", required=True)
    ba.add_argument("--model", required=True)
    ba.add_argument("--batch-size", type=int, default=8)
    ba.add_argument("--batches", type=int, default=0, help="cap on batch count, 0 = all")
    ba.set_defaults(fn=cmd_bench_abduction)

    bm = sub.add_parser("bench-metarules", help="search cost vs metarule-set size (worst case per size)")
    bm.add_argument("--task", required=True, choices=sorted(t for t in TASK_IDS if _builds_alone(make_task(t))))
    bm.add_argument("--data", required=True)
    bm.add_argument("--sizes", default="2,3,9")
    bm.add_argument("--limit", type=int, default=0, help="use only the first N examples")
    bm.set_defaults(fn=cmd_bench_metarules)
    return ap


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, which matches our config-error code
        return int(e.code or 0)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BrokenPipeError:
        return OK


if __name__ == "__main__":
    sys.exit(main())
