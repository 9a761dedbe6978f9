"""End-to-end command line behavior: artifacts, determinism, exit codes."""

import configparser
import dataclasses
import csv
import json
from pathlib import Path

import pytest

from abdlearn import cli, tasks
from abdlearn.cli import main
from abdlearn.em import METRIC_COLUMNS
from abdlearn.mil import SearchBudget, SettingError
from abdlearn.perception import MLP, PairModel
from abdlearn.tasks import TASK_IDS, make_task


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sum_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    code = run(
        "gen-data", "--task", "sum", "--out", d, "--train", 40, "--test", 20,
        "--lengths", "2,3", "--seed", 5,
    )
    assert code == 0
    return d


def write_cfg(path: Path, **over) -> Path:
    sections = {
        "run": {"task": "sum", "out": str(path.parent / "run"), "seed": "0"},
        "data": {"train": str(over.pop("train_path"))},
        "em": {"epochs": "2", "batch_size": "20", "m_epochs": "4"},
    }
    for section, items in over.items():
        sections.setdefault(section, {}).update({k: str(v) for k, v in items.items()})
    cfg = configparser.ConfigParser()
    for name, items in sections.items():
        cfg[name] = items
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_is_byte_identical(tmp_path, sum_data):
    other = tmp_path / "again"
    assert run(
        "gen-data", "--task", "sum", "--out", other, "--train", 40, "--test", 20,
        "--lengths", "2,3", "--seed", 5,
    ) == 0
    for name in ("sum_train.tsv", "sum_train.tsv.labels", "sum_test.tsv"):
        assert (other / name).read_bytes() == (sum_data / name).read_bytes()


def test_gen_data_rejects_zero_train(tmp_path):
    assert run("gen-data", "--task", "sum", "--out", tmp_path, "--train", 0) == 2
    assert not list(tmp_path.glob("*.tsv"))


def test_gen_data_rejects_bad_lengths(tmp_path):
    assert run(
        "gen-data", "--task", "sum", "--out", tmp_path, "--train", 5, "--lengths", "4,2"
    ) == 2


def test_gen_data_rejects_impossible_distinct_draw(tmp_path):
    # sorting data uses distinct digits, so lengths above the digit span fail
    assert run(
        "gen-data", "--task", "sorted_concept", "--out", tmp_path / "out", "--train", 5,
        "--lengths", "11,12",
    ) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_gen_data_every_task(tmp_path, task_id):
    assert run("gen-data", "--task", task_id, "--out", tmp_path, "--train", 6, "--test", 3) == 0
    assert (tmp_path / f"{task_id}_train.tsv").is_file()
    assert (tmp_path / f"{task_id}_test.tsv").is_file()


@pytest.mark.parametrize("flag, value", [("--dim", 0), ("--noise", -1), ("--seed", -1)])
def test_gen_data_rejects_bad_generator_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert run("gen-data", "--task", "sum", "--out", out, "--train", 5, flag, value) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts_and_is_deterministic(tmp_path, sum_data):
    cfg = write_cfg(tmp_path / "a.ini", train_path=sum_data / "sum_train.tsv")
    assert run("train", "--config", cfg) == 0
    out = tmp_path / "run"
    for name in ("program.pl", "program.json", "model.ckpt", "metrics.csv", "resolved.ini"):
        assert (out / name).is_file(), name
    resolved = configparser.ConfigParser()
    resolved.read(out / "resolved.ini")
    assert resolved["run"]["task"] == "sum"
    assert resolved["em"]["m_batch"] == "32"  # default materialized
    prog = json.loads((out / "program.json").read_text())
    assert 1 <= len(prog["metasubs"]) <= 2
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(METRIC_COLUMNS)

    again = tmp_path / "run2"
    assert run("train", "--config", cfg, "--out", again) == 0
    assert (again / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
    assert (again / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()


def test_train_rejects_unknown_key(tmp_path, sum_data):
    cfg = write_cfg(
        tmp_path / "c.ini",
        train_path=sum_data / "sum_train.tsv",
        em={"not_a_knob": 1},
    )
    assert "not_a_knob" in cfg.read_text()
    code = run("train", "--config", cfg)
    assert code == 2
    assert not (tmp_path / "run").exists()


def test_train_rejects_the_removed_workers_setting(tmp_path, sum_data, capsys):
    cfg = write_cfg(tmp_path / "w.ini", train_path=sum_data / "sum_train.tsv", run={"workers": 2})
    assert run("train", "--config", cfg) == 2
    assert "run.workers" in capsys.readouterr().err
    ok = write_cfg(tmp_path / "ok.ini", train_path=sum_data / "sum_train.tsv")
    assert run("train", "--config", ok, "--workers", 2) == 2
    assert not (tmp_path / "run").exists()


def test_train_rejects_the_removed_depth_limit_setting(tmp_path, sum_data, capsys):
    # the depth bound comes from each goal's list items: there is no key for it
    cfg = write_cfg(tmp_path / "l.ini", train_path=sum_data / "sum_train.tsv", budget={"depth_limit": 512})
    assert run("train", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key budget.depth_limit")
    assert not (tmp_path / "run").exists()


def test_train_rejects_the_removed_solver_max_nodes_setting(tmp_path, sum_data, capsys):
    # the solver stops only when the runtime budget runs out: there is no cap of its own
    assert list(cli._SCHEMA["budget"]) == [f.name for f in dataclasses.fields(SearchBudget)]
    cfg = write_cfg(tmp_path / "n.ini", train_path=sum_data / "sum_train.tsv", budget={"solver_max_nodes": 5})
    assert run("train", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key budget.solver_max_nodes")
    assert not (tmp_path / "run").exists()


def test_train_rejects_unknown_section(tmp_path, sum_data):
    cfg = write_cfg(tmp_path / "d.ini", train_path=sum_data / "sum_train.tsv")
    cfg.write_text(cfg.read_text() + "\n[mystery]\nx = 1\n")
    assert run("train", "--config", cfg) == 2


def test_train_missing_dataset_no_partial_artifacts(tmp_path):
    cfg = write_cfg(tmp_path / "e.ini", train_path=tmp_path / "absent.tsv")
    assert run("train", "--config", cfg) == 3
    assert not (tmp_path / "run").exists()


def test_train_missing_val_dataset_before_training(tmp_path, sum_data):
    cfg = write_cfg(
        tmp_path / "v.ini", train_path=sum_data / "sum_train.tsv", data={"val": tmp_path / "absent.tsv"}
    )
    assert run("train", "--config", cfg) == 3
    assert not (tmp_path / "run").exists()


def test_train_pairwise_task_without_curriculum_writes_nothing(tmp_path):
    d = tmp_path / "data"
    assert run("gen-data", "--task", "bogosort", "--out", d, "--train", 6, "--test", 3) == 0
    cfg = write_cfg(tmp_path / "b.ini", train_path=d / "bogosort_train.tsv", run={"task": "bogosort"})
    assert run("train", "--config", cfg) == 2
    assert not (tmp_path / "run").exists()


def test_train_curriculum_with_pretrain_writes_nothing(tmp_path, capsys):
    """The few-shot warm start is for a digit classifier; a curriculum
    trains a pair model, so the config is refused before any output."""
    d = tmp_path / "data"
    for task in ("sorted_concept", "bogosort"):
        assert run("gen-data", "--task", task, "--out", d, "--train", 6, "--test", 3) == 0
    capsys.readouterr()
    cfg = write_cfg(
        tmp_path / "c.ini", train_path=d / "bogosort_train.tsv", run={"task": "bogosort"},
        em={"pretrain": "true"},
        curriculum={"stage1_task": "sorted_concept", "stage1_train": d / "sorted_concept_train.tsv"},
    )
    assert run("train", "--config", cfg) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: em.pretrain")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("budget", "max_nodes", -1),
        ("budget", "wall_ms", -5),
        ("run", "seed", -1),
        ("curriculum", "stage1_epochs", 0),
        ("em", "hidden", 0),
        ("em", "lr", 0),
        ("em", "lr", -1),
        ("em", "lr", "nan"),
    ],
)
def test_train_rejects_out_of_range_values(tmp_path, sum_data, capsys, section, key, value):
    cfg = write_cfg(tmp_path / "r.ini", train_path=sum_data / "sum_train.tsv", **{section: {key: value}})
    assert run("train", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith(f"error: {section}.{key}")
    assert not (tmp_path / "run").exists()


def test_train_rejects_a_negative_seed_flag(tmp_path, sum_data, capsys):
    cfg = write_cfg(tmp_path / "s.ini", train_path=sum_data / "sum_train.tsv")
    assert run("train", "--config", cfg, "--seed", -1) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "run").exists()


def test_train_budget_exhausted(tmp_path, sum_data):
    cfg = write_cfg(
        tmp_path / "f.ini",
        train_path=sum_data / "sum_train.tsv",
        budget={"max_nodes": 5},
    )
    assert run("train", "--config", cfg) == 4


def test_train_pretrain_flag(tmp_path, sum_data):
    cfg = write_cfg(
        tmp_path / "g.ini",
        train_path=sum_data / "sum_train.tsv",
        em={"epochs": 2, "batch_size": 20, "m_epochs": 4, "pretrain": "true"},
    )
    assert run("train", "--config", cfg) == 0
    assert (tmp_path / "run" / "program.pl").is_file()


def test_missing_config_file(tmp_path):
    assert run("train", "--config", tmp_path / "nope.ini") == 2


# ---------------------------------------------------------------------------
# eval / show-program


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, sum_data):
    base = tmp_path_factory.mktemp("trained")
    cfg = write_cfg(base / "cfg.ini", train_path=sum_data / "sum_train.tsv")
    assert run("train", "--config", cfg) == 0
    return base / "run"


def test_eval_truth_mode_reports_per_length(capsys, trained_run, sum_data, tmp_path):
    code = run(
        "eval", "--task", "sum", "--program", trained_run / "program.json",
        "--data", sum_data / "sum_test.tsv", "--use-truth", "--out", tmp_path,
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("split\tn\tfailures")
    rows = {ln.split("\t")[0] for ln in lines[1:] if "\t" in ln}
    assert {"len=2", "len=3", "all"} <= rows
    table = (tmp_path / "metrics_eval.tsv").read_text()
    # exact program on exact digits: zero error everywhere
    for ln in table.strip().splitlines()[1:]:
        cells = ln.split("\t")
        assert float(cells[3]) == 1.0 and float(cells[4]) == 0.0


def test_eval_with_model(capsys, trained_run, sum_data):
    code = run(
        "eval", "--task", "sum", "--program", trained_run / "program.json",
        "--model", trained_run / "model.ckpt", "--data", sum_data / "sum_test.tsv",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cls_acc" in out.splitlines()[0] or "split" in out.splitlines()[0]


def test_eval_needs_model_or_truth(trained_run, sum_data):
    assert run(
        "eval", "--task", "sum", "--program", trained_run / "program.json",
        "--data", sum_data / "sum_test.tsv",
    ) == 2


def test_eval_task_mismatch(trained_run, sum_data):
    assert run(
        "eval", "--task", "product", "--program", trained_run / "program.json",
        "--data", sum_data / "sum_test.tsv", "--use-truth",
    ) == 3


def test_show_program(capsys, trained_run):
    assert run("show-program", trained_run) == 0
    out = capsys.readouterr().out
    assert "f(A,B)" in out and "clauses" in out


def test_show_program_missing(tmp_path):
    assert run("show-program", tmp_path / "nothing.json") == 3


@pytest.mark.parametrize(
    "metasub, invented",
    [
        ({"rule": "ident", "bindings": [["P", "f", "x"], ["Q", "eq"]]}, []),  # a three-part binding
        ({"rule": "ident", "bindings": [["P", "f"], ["Q", "f_1"]]}, [["f_1", "x"]]),  # arity not a number
        ({"rule": "nope", "bindings": [["P", "f"], ["Q", "eq"]]}, []),  # no such metarule
        ({"rule": "chain", "bindings": [["P", "f"], ["Q", "add"]]}, []),  # R left unbound
        ({"rule": "ident", "bindings": [["P", "f"], ["Q", ["eq"]]]}, []),  # a symbol that is not a name
    ],
)
def test_malformed_program_file_exits_3(capsys, tmp_path, sum_data, metasub, invented):
    bad = tmp_path / "program.json"
    bad.write_text(json.dumps({"metasubs": [metasub], "invented": invented}))
    assert run("show-program", bad) == 3
    assert "bad program file" in capsys.readouterr().err
    assert run("eval", "--task", "sum", "--program", bad, "--data", sum_data / "sum_test.tsv", "--use-truth") == 3


def _per_length_reference(task, program, examples, model, use_truth):
    """Reference: the table as eval built it with one evaluate call per
    length and one more over every example."""
    by_len = {}
    for ex in examples:
        by_len.setdefault(len(ex), []).append(ex)
    rows = [(f"len={ln}", tasks.evaluate(program, task, by_len[ln], model, use_truth)) for ln in sorted(by_len)]
    rows.append(("all", tasks.evaluate(program, task, examples, model, use_truth)))
    return cli._metrics_table(rows)


@pytest.mark.parametrize("use_truth", [False, True])
def test_eval_deduces_each_example_once(monkeypatch, tmp_path, trained_run, use_truth):
    d = tmp_path / "d"
    assert run("gen-data", "--task", "sum", "--out", d, "--train", 1, "--test", 30, "--lengths", "1,6", "--seed", 4) == 0
    calls = []
    deduce = tasks.deduce

    def counting(goal, kb, **kw):
        calls.append(goal)
        return deduce(goal, kb, **kw)

    monkeypatch.setattr(tasks, "deduce", counting)
    flags = ["--use-truth"] if use_truth else ["--model", trained_run / "model.ckpt"]
    assert run("eval", "--task", "sum", "--program", trained_run / "program.json",
               "--data", d / "sum_test.tsv", "--out", tmp_path, *flags) == 0
    _, examples = tasks.load_dataset(d / "sum_test.tsv")
    assert len(calls) == len(examples) == 30
    monkeypatch.setattr(tasks, "deduce", deduce)
    model = None if use_truth else MLP.load(trained_run / "model.ckpt")
    program = cli._load_program(trained_run / "program.json")
    want = _per_length_reference(make_task("sum"), program, examples, model, use_truth)
    got = (tmp_path / "metrics_eval.tsv").read_text()
    assert got == want + "\n"
    assert len(got.splitlines()) == 1 + len({len(ex) for ex in examples}) + 1


def test_a_dataset_without_its_truth_sidecar_is_a_data_error(capsys, tmp_path, trained_run, sum_data):
    """eval --use-truth and bench-metarules read the sidecar's digits: without
    it they exit 3 with one error line."""
    data = tmp_path / "sum_test.tsv"
    data.write_text((sum_data / "sum_test.tsv").read_text())
    for argv in (
        ("eval", "--task", "sum", "--program", trained_run / "program.json", "--data", data, "--use-truth"),
        ("bench-metarules", "--task", "sum", "--data", data, "--sizes", "2"),
    ):
        assert run(*argv) == 3, argv[0]
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and len(out.err.splitlines()) == 1
        assert "sum_test.tsv.labels" in out.err


def test_eval_rejects_a_truth_sidecar_that_does_not_fit(capsys, tmp_path, trained_run, sum_data):
    data = tmp_path / "sum_test.tsv"
    data.write_text((sum_data / "sum_test.tsv").read_text())
    truths = (sum_data / "sum_test.tsv.labels").read_text().splitlines()
    (tmp_path / "sum_test.tsv.labels").write_text("\n".join([truths[0] + ",1"] + truths[1:]) + "\n")
    code = run("eval", "--task", "sum", "--program", trained_run / "program.json", "--data", data, "--use-truth")
    assert code == 3
    assert ".labels:1:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory, trained_run):
    """Datasets for every task kind, the trained 10-class sum model
    ("digits"), a pair model ("pair") and a file with a bad magic number."""
    d = tmp_path_factory.mktemp("checkpoints")
    for task in ("sum", "product", "bogosort"):
        assert run("gen-data", "--task", task, "--out", d, "--train", 4, "--test", 4, "--lengths", "2,3") == 0
    (d / "digits.ckpt").write_bytes((trained_run / "model.ckpt").read_bytes())
    (d / "magic.ckpt").write_bytes(b"NOPE" + (trained_run / "model.ckpt").read_bytes()[4:])
    PairModel(8).save(d / "pair.ckpt")
    return d


@pytest.mark.parametrize(
    "task, ckpt, commands",
    [
        ("sum", "magic", ("eval", "bench-abduction")),
        ("bogosort", "digits", ("eval",)),  # bench-abduction refuses a pairwise task before any model
        ("sum", "pair", ("eval", "bench-abduction")),
        ("product", "digits", ("eval", "bench-abduction")),  # 10 classes where product has 9
    ],
)
def test_a_checkpoint_that_does_not_fit_the_task_exits_3(capsys, trained_run, checkpoints, task, ckpt, commands):
    d = checkpoints
    capsys.readouterr()
    for cmd in commands:
        args = ["--task", task, "--data", d / f"{task}_test.tsv", "--model", d / f"{ckpt}.ckpt"]
        if cmd == "eval":
            args += ["--program", trained_run / "program.json"]
        assert run(cmd, *args) == 3, cmd
        out = capsys.readouterr()
        assert "model checkpoint" in out.err and out.out == ""


# ---------------------------------------------------------------------------
# benches


def test_bench_abduction_cli(capsys, trained_run, tmp_path):
    d = tmp_path / "b"
    assert run(
        "gen-data", "--task", "sum", "--out", d, "--train", 16, "--lengths", "4,4",
        "--seed", 9,
    ) == 0
    capsys.readouterr()  # drop the gen-data chatter
    code = run(
        "bench-abduction", "--task", "sum", "--data", d / "sum_train.tsv",
        "--model", trained_run / "model.ckpt", "--batch-size", 8,
    )
    out = capsys.readouterr().out
    assert code in (0, 4)  # a tiny model may leave a batch unsolved
    assert out.startswith("batch\tconstraint_first\tenumerate_first")
    assert len(out.strip().splitlines()) >= 3


def test_bench_metarules_cli(capsys, sum_data):
    code = run(
        "bench-metarules", "--task", "sum", "--data", sum_data / "sum_train.tsv",
        "--limit", 8, "--sizes", "2,3",
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("n_rules\tnodes")
    n2 = int(lines[1].split("\t")[1])
    n3 = int(lines[2].split("\t")[1])
    assert n2 < n3


def test_bench_metarules_on_a_pairwise_task(capsys, tmp_path):
    """The sidecar digits give the true pair order as well as the labels."""
    d = tmp_path / "d"
    assert run(
        "gen-data", "--task", "sorted_concept", "--out", d, "--train", 12, "--lengths", "1,4",
        "--noise", 0.04, "--seed", 3,
    ) == 0
    capsys.readouterr()
    assert run("bench-metarules", "--task", "sorted_concept", "--data", d / "sorted_concept_train.tsv", "--sizes", 3) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("n_rules\tnodes") and lines[1].split("\t")[:1] == ["3"]
    assert lines[1].split("\t")[3] == "1"


def test_bench_metarules_offers_only_tasks_whose_setting_builds_alone(capsys, tmp_path):
    """A task whose setting builds on its own gets as far as reading its
    data (missing here: exit 3); any other, bogosort, whose body pool names
    the s/1 of a curriculum's first stage, is no choice at all (exit 2)."""
    alone = []
    for t in TASK_IDS:
        try:
            make_task(t).setting()
            alone.append(t)
        except SettingError:
            pass
    assert "bogosort" not in alone and "sum" in alone
    for t in TASK_IDS:
        code = run("bench-metarules", "--task", t, "--data", tmp_path / "missing.tsv")
        err = capsys.readouterr().err
        if t in alone:
            assert code == 3 and "dataset not found" in err
        else:
            assert code == 2 and "invalid choice" in err and "body pool" not in err


@pytest.mark.parametrize("flag, value", [("--batch-size", 0), ("--batches", -1)])
def test_bench_abduction_rejects_out_of_range_flags(capsys, trained_run, sum_data, flag, value):
    assert run(
        "bench-abduction", "--task", "sum", "--data", sum_data / "sum_train.tsv",
        "--model", trained_run / "model.ckpt", flag, value,
    ) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and out.out == ""


def test_bench_metarules_rejects_a_negative_limit(capsys, sum_data):
    assert run(
        "bench-metarules", "--task", "sum", "--data", sum_data / "sum_train.tsv",
        "--limit", -3, "--sizes", "2,3",
    ) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and out.out == ""


def test_bench_metarules_rejects_bad_sizes(sum_data):
    assert run(
        "bench-metarules", "--task", "sum", "--data", sum_data / "sum_train.tsv",
        "--sizes", "1,2",
    ) == 2


def test_bench_metarules_rejects_unparsable_sizes(capsys, sum_data):
    assert run(
        "bench-metarules", "--task", "sum", "--data", sum_data / "sum_train.tsv",
        "--sizes", "2,x",
    ) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_unknown_subcommand():
    assert run("frobnicate") == 2


# ---------------------------------------------------------------------------
# the sorting curriculum, end to end


def test_sorting_curriculum_from_the_cli(tmp_path, capsys):
    d = tmp_path / "data"
    assert run(
        "gen-data", "--task", "sorted_concept", "--out", d, "--train", 18,
        "--lengths", "1,4", "--noise", 0.04, "--seed", 3,
    ) == 0
    assert run(
        "gen-data", "--task", "bogosort", "--out", d, "--train", 96, "--test", 40,
        "--lengths", "2,5", "--noise", 0.04, "--seed", 3,
    ) == 0
    cfg = write_cfg(
        tmp_path / "sort.ini",
        train_path=d / "bogosort_train.tsv",
        run={"task": "bogosort"},
        curriculum={"stage1_task": "sorted_concept", "stage1_train": d / "sorted_concept_train.tsv"},
    )
    assert run("train", "--config", cfg) == 0
    out = tmp_path / "run"
    assert "s(" in (out / "program.pl").read_text()
    capsys.readouterr()
    assert run(
        "eval", "--task", "bogosort", "--program", out / "program.json",
        "--model", out / "model.ckpt", "--data", d / "bogosort_test.tsv",
    ) == 0
    assert capsys.readouterr().out.startswith("split\tn\tfailures")
