import csv
import io
import json
import random
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from ttp.cli import main

from conftest import FIXTURES, drift_instance_text

EXAMPLE = str(FIXTURES / "example5.ttp")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- parse -------------------------------------------------------------------

def test_parse_ok(capsys):
    code, out, _ = run(capsys, "parse", EXAMPLE)
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 5 and data["m"] == 4
    assert data["capacity"] == 10
    assert data["edge_weight_type"] == "EXPLICIT"


def test_parse_missing_file(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/foo.ttp")
    assert code == 1
    assert "error" in err


def test_parse_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.ttp"
    bad.write_text("DIMENSION: not_a_number\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert "parse error" in err


def test_parse_explicit_instance_with_partial_coordinates(tmp_path, capsys):
    bad = tmp_path / "partial.ttp"
    bad.write_text(Path(EXAMPLE).read_text().replace("ITEMS SECTION", "NODE_COORD_SECTION\n1 0 0\nITEMS SECTION"))
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert err == "parse error: expected 5 coordinate lines, found 1\n"


def test_usage_error_on_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# --- eval --------------------------------------------------------------------

def test_eval_worked_example(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    tour.write_text("1 2 3 4 5\n")
    packing = tmp_path / "packing.txt"
    packing.write_text("0 1 1 1\n")
    code, out, _ = run(capsys, "eval", EXAMPLE, "--tour", str(tour),
                       "--packing", str(packing))
    data = json.loads(out)
    assert code == 0
    assert data["gain"] == pytest.approx(2.596121799727314)
    assert data["total_profit"] == 18
    assert data["feasible"] is True


def test_eval_flags_a_packing_a_hair_over_capacity(tmp_path, capsys):
    # example5 with two items of weights 0.5 and 0.5000000000001 at capacity 1
    text = Path(EXAMPLE).read_text().replace("ITEMS: 4", "ITEMS: 2").replace("KNAPSACK: 10", "KNAPSACK: 1")
    inst = tmp_path / "hair.ttp"
    inst.write_text(text[: text.index("1 101")] + "1 1 0.5 2\n2 1 0.5000000000001 3\n")
    tour = tmp_path / "tour.txt"
    tour.write_text("1 2 3 4 5\n")
    packing = tmp_path / "packing.txt"
    packing.write_text("1 1\n")
    code, out, _ = run(capsys, "eval", str(inst), "--tour", str(tour), "--packing", str(packing))
    data = json.loads(out)
    assert code == 0
    assert data["final_weight"] == 1.0000000000001 and data["feasible"] is False


def test_eval_invalid_tour(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    tour.write_text("2 1 3 4 5\n")
    packing = tmp_path / "packing.txt"
    packing.write_text("0 0 0 0\n")
    code, _, err = run(capsys, "eval", EXAMPLE, "--tour", str(tour),
                       "--packing", str(packing))
    assert code == 1
    assert "error" in err


# --- tour / score / pack -----------------------------------------------------

def test_tour_outputs_permutation(tmp_path, capsys):
    out_file = tmp_path / "tour.txt"
    code, _, _ = run(capsys, "tour", EXAMPLE, "--out", str(out_file), "--time", "2")
    assert code == 0
    tour = [int(t) for t in out_file.read_text().split()]
    assert sorted(tour) == [1, 2, 3, 4, 5] and tour[0] == 1


def test_tour_prints_to_stdout_without_out(capsys):
    code, out, _ = run(capsys, "tour", EXAMPLE, "--time", "2")
    assert code == 0
    assert sorted(int(t) for t in out.split()) == [1, 2, 3, 4, 5] and out.split()[0] == "1"


@pytest.mark.parametrize("seconds", ["-1", "0", "nan"])
def test_tour_rejects_a_time_that_is_not_positive(capsys, seconds):
    code, out, err = run(capsys, "tour", EXAMPLE, "--time", seconds)
    assert code == 1 and out == ""
    assert "time must be positive" in err


def test_score_json(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    tour.write_text("1 2 3 4 5\n")
    code, out, _ = run(capsys, "score", EXAMPLE, "--tour", str(tour),
                       "--alpha", "1.0")
    data = json.loads(out)
    assert code == 0
    scores = [row["score"] for row in data["items"]]
    assert scores == pytest.approx([1.01, 0.8, 1.0, 1.0])
    assert data["positive_count"] == 4


def test_score_csv(tmp_path, capsys):
    out_csv = tmp_path / "scores.csv"
    code, _, _ = run(capsys, "score", EXAMPLE, "--alpha", "1.0",
                     "--csv", str(out_csv))
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 4
    assert float(rows[0]["score"]) == pytest.approx(1.01)


@pytest.mark.parametrize("command", ["score", "pack"])
@pytest.mark.parametrize("alpha", ["nan", "-inf"])
def test_score_and_pack_reject_an_alpha_that_is_not_finite(capsys, command, alpha):
    code, out, err = run(capsys, command, EXAMPLE, f"--alpha={alpha}")
    assert code == 1 and out == ""
    assert "alpha must be finite" in err


@pytest.mark.parametrize("command", ["score", "pack"])
def test_score_and_pack_take_an_alpha_whose_power_overflows(capsys, command):
    code, out, err = run(capsys, command, EXAMPLE, "--alpha", "400")
    assert code == 0 and err == ""
    data = json.loads(out)
    if command == "score":
        # 10 ** 400 overflows; 4 ** 400 and 2 ** 400 do not
        scores = [row["score"] for row in data["items"]]
        assert scores[0] == 0.0 and min(scores[1:]) > 0.0
    else:
        assert data["feasible"] is True


def test_pack_worked_example(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    tour.write_text("1 2 3 4 5\n")
    code, out, _ = run(capsys, "pack", EXAMPLE, "--tour", str(tour),
                       "--alpha", "1.0", "--beta", "0")
    data = json.loads(out)
    assert code == 0
    assert data["packing"] == [0, 1, 1, 1]
    assert data["feasible"] is True
    assert data["gain"] == pytest.approx(2.596121799727314)


def test_pack_keeps_the_load_in_tour_order_within_capacity(tmp_path, capsys):
    # float weights whose sum in pick order fits where the sum in tour order
    # does not: the plan is judged by the load evaluate reads
    tour = tmp_path / "tour.txt"
    tour.write_text("1 4 3 2\n")
    rng = random.Random(19)
    for _ in range(10):
        instance = tmp_path / "drift.ttp"
        instance.write_text(drift_instance_text(rng))
        code, out, _ = run(capsys, "pack", str(instance), "--tour", str(tour))
        assert code == 0
        assert json.loads(out)["feasible"] is True


# --- solve -------------------------------------------------------------------

def test_solve_smoke(tmp_path, capsys):
    record = tmp_path / "record.json"
    # the budget is far above two restarts' work, so they decide the gain
    code, out, _ = run(capsys, "solve", EXAMPLE, "--time", "60", "--max-restarts", "2",
                       "--seed", "0", "--json", str(record))
    data = json.loads(out)
    assert code == 0
    assert data["gain"] == pytest.approx(81.0)
    full = json.loads(record.read_text())
    assert full["best_gain"] == pytest.approx(81.0)
    assert sorted(full["best_tour"]) == [1, 2, 3, 4, 5]


def test_solve_max_restarts_fixes_the_work(tmp_path, capsys):
    records = []
    for k in range(2):
        record = tmp_path / f"record{k}.json"
        code, out, _ = run(capsys, "solve", EXAMPLE, "--time", "60", "--max-restarts", "3",
                           "--seed", "4", "--json", str(record))
        assert code == 0 and json.loads(out)["restarts"] == 3
        full = json.loads(record.read_text())
        records.append([full[key] for key in ("best_gain", "best_tour", "best_packing")])
    assert records[0] == records[1]
    code, out, err = run(capsys, "solve", EXAMPLE, "--max-restarts", "0")
    assert code == 1 and "max_restarts must be at least 1" in err and out == ""


def test_solve_record_validates_against_the_schema(tmp_path, capsys):
    record = tmp_path / "record.json"
    code, _, _ = run(capsys, "solve", EXAMPLE, "--time", "60", "--max-restarts", "2", "--beta", "0.5",
                     "--json", str(record))
    assert code == 0
    schema = json.loads((Path(__file__).parents[1] / "schemas" / "runrecord.schema.json").read_text())
    jsonschema.validate(json.loads(record.read_text()), schema)


def test_solve_tour_in_not_a_permutation_is_a_usage_error(tmp_path, capsys):
    tour = tmp_path / "tour.txt"
    tour.write_text("1 2 2 4 5\n")
    code, out, err = run(capsys, "solve", EXAMPLE, "--time", "1", "--tour-in", str(tour))
    assert code == 1
    assert "permutation" in err and out == ""


def test_solve_bitflip_smoke(capsys):
    code, out, _ = run(capsys, "solve", EXAMPLE, "--time", "60", "--max-restarts", "2", "--bitflip")
    assert code == 0
    assert json.loads(out)["gain"] >= 0.0


# --- bench / rank ------------------------------------------------------------

def test_bench_and_rank(tmp_path, capsys):
    outdir = tmp_path / "bench"
    # the budget is far above two restarts' work, so they decide every gain
    code, out, _ = run(capsys, "bench", EXAMPLE, "--out", str(outdir),
                       "--runs", "2", "--time", "60", "--alpha", "1.5",
                       "--alpha", "1.0", "--max-restarts", "2")
    data = json.loads(out)
    assert code == 0
    assert data["runs"] == 4 and data["failed"] == 0

    records = [json.loads(l) for l in (outdir / "records.jsonl").open()]
    assert {r["label"] for r in records} == {"alpha1.5", "alpha1"}
    assert all(r["best_gain"] == pytest.approx(81.0) for r in records)

    with (outdir / "summary.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "instance"
    assert rows[-2][0] == "average_ranking" or rows[-1][0] == "average_ranking"

    code, out, _ = run(capsys, "rank", str(outdir / "records.jsonl"))
    data = json.loads(out)
    assert code == 0
    assert sorted(data["methods"]) == ["alpha1", "alpha1.5"]


def test_bench_summary_survives_zero_mean_gains(tmp_path, capsys):
    # no items and no rent: every run's gain is 0, so no cell has a relative spread
    inst = tmp_path / "zero.ttp"
    inst.write_text("\n".join([
        "PROBLEM NAME: zero", "DIMENSION: 4", "NUMBER OF ITEMS: 0",
        "CAPACITY OF KNAPSACK: 10", "MIN SPEED: 0.1", "MAX SPEED: 1",
        "RENTING RATIO: 0", "EDGE_WEIGHT_TYPE: CEIL_2D", "NODE_COORD_SECTION",
        "1 0 0", "2 10 0", "3 10 10", "4 0 10", "ITEMS SECTION", "",
    ]))
    outdir = tmp_path / "bench"
    code, out, _ = run(capsys, "bench", str(inst), "--out", str(outdir), "--runs", "2",
                       "--time", "5", "--max-restarts", "1")
    assert code == 0
    assert json.loads(out)["runs"] == 2
    with (outdir / "summary.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["zero", "0.0", "nan"]


def test_bench_keeps_the_other_records_when_a_task_raises(tmp_path, capsys, monkeypatch):
    import shutil

    import ttp.cli as cli

    for name in ("a.ttp", "b.ttp"):
        shutil.copy(EXAMPLE, tmp_path / name)
    real = cli.solve

    def solve(inst, config):
        if inst.name == "broken":
            raise RuntimeError("solver crashed")
        return real(inst, config)

    monkeypatch.setattr(cli, "solve", solve)
    b = tmp_path / "b.ttp"
    b.write_text(b.read_text().replace("PROBLEM NAME: example5", "PROBLEM NAME: broken"))
    outdir = tmp_path / "bench"
    code, out, err = run(capsys, "bench", str(tmp_path / "*.ttp"), "--out", str(outdir),
                         "--workers", "1", "--runs", "2", "--time", "5", "--max-restarts", "1")
    assert code == 0
    data = json.loads(out)
    assert data["runs"] == 2 and data["failed"] == 2
    failures = [line for line in err.splitlines() if line.startswith("failed: ")]
    assert len(failures) == 2 and all(str(b) in f and "solver crashed" in f for f in failures)
    records = [json.loads(l) for l in (outdir / "records.jsonl").open()]
    assert [r["instance_path"] for r in records] == [str(tmp_path / "a.ttp")] * 2
    with (outdir / "summary.csv").open() as fh:
        assert [row[0] for row in csv.reader(fh)][1] == records[0]["instance"]


def test_bench_reports_an_unparseable_instance_and_runs_the_others(tmp_path, capsys):
    import shutil

    shutil.copy(EXAMPLE, tmp_path / "a.ttp")
    (tmp_path / "b.ttp").write_text("DIMENSION: three\n")
    outdir = tmp_path / "bench"
    code, out, err = run(capsys, "bench", str(tmp_path / "*.ttp"), "--out", str(outdir),
                         "--runs", "1", "--time", "60", "--max-restarts", "1")
    assert code == 0
    data = json.loads(out)
    assert data["runs"] == 1 and data["failed"] == 1
    failures = [line for line in err.splitlines() if line.startswith("failed: ")]
    assert len(failures) == 1 and str(tmp_path / "b.ttp") in failures[0] and "expected a number" in failures[0]
    records = [json.loads(l) for l in (outdir / "records.jsonl").open()]
    assert [r["instance_path"] for r in records] == [str(tmp_path / "a.ttp")]


def test_bench_writes_each_record_when_its_run_ends(tmp_path, capsys, monkeypatch):
    import ttp.cli as cli

    real = cli.solve
    outdir = tmp_path / "bench"
    seen = []  # the records in the file as each run starts

    def solve(inst, config):
        path = outdir / "records.jsonl"
        seen.append([json.loads(l)["run"] for l in path.open()] if path.exists() else None)
        return real(inst, config)

    monkeypatch.setattr(cli, "solve", solve)
    code, out, err = run(capsys, "bench", EXAMPLE, "--out", str(outdir), "--workers", "1",
                         "--runs", "3", "--time", "5", "--max-restarts", "1")
    assert code == 0 and json.loads(out)["runs"] == 3
    assert seen == [[], [0], [0, 1]]
    progress = [line for line in err.splitlines() if line.startswith("bench: ")]
    assert progress == ["bench: 1/3 runs", "bench: 2/3 runs", "bench: 3/3 runs"]


def test_bench_on_two_workers_keeps_task_order(tmp_path, capsys):
    outdir = tmp_path / "bench"
    code, out, err = run(capsys, "bench", EXAMPLE, "--out", str(outdir), "--workers", "2",
                         "--runs", "4", "--time", "5", "--max-restarts", "1")
    assert code == 0 and json.loads(out)["runs"] == 4
    assert [json.loads(l)["run"] for l in (outdir / "records.jsonl").open()] == [0, 1, 2, 3]
    assert [line for line in err.splitlines() if line.startswith("bench: ")] == [
        f"bench: {k}/4 runs" for k in range(1, 5)]


def test_bench_where_every_run_raises_writes_the_header_alone_and_rank_refuses_it(tmp_path, capsys, monkeypatch):
    import ttp.cli as cli

    def solve(inst, config):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(cli, "solve", solve)
    outdir = tmp_path / "bench"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "bench", EXAMPLE, "--out", str(outdir), "--workers", "1",
                             "--runs", "3", "--time", "5", "--max-restarts", "1")
    assert code == 0
    assert json.loads(out)["runs"] == 0 and json.loads(out)["failed"] == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err
    with (outdir / "summary.csv").open() as fh:
        assert list(csv.reader(fh)) == [["instance"]]
    for results in ("summary.csv", "records.jsonl"):
        code, out, err = run(capsys, "rank", str(outdir / results))
        assert code == 1 and out == "" and "no runs" in err


def test_bench_rejects_a_bad_beta_before_any_run(tmp_path, capsys):
    code, out, err = run(capsys, "bench", EXAMPLE, "--out", str(tmp_path / "o"), "--beta", "1.5")
    assert code == 1
    assert "beta" in err and out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--runs", "-2"), ("--workers", "0"), ("--workers", "-3")])
def test_bench_rejects_runs_or_workers_below_one_before_any_run(tmp_path, capsys, flag, value):
    code, out, err = run(capsys, "bench", EXAMPLE, "--out", str(tmp_path / "o"), flag, value)
    assert code == 1
    assert f"{flag} must be at least 1" in err and out == ""
    assert not (tmp_path / "o").exists()


def test_pack_takes_no_annealing_flags(capsys):
    with pytest.raises(SystemExit):
        main(["pack", "--help"])
    usage = capsys.readouterr().out
    assert "--beta" in usage
    assert not any(flag in usage for flag in ("--sa-t0", "--sa-cooling", "--seed"))


def test_bench_no_match(tmp_path, capsys):
    code, _, err = run(capsys, "bench", str(tmp_path / "*.ttp"),
                       "--out", str(tmp_path / "o"))
    assert code == 1
    assert "no instances" in err


def test_rank_on_bundled_table(tmp_path, capsys):
    src = resources.files("ttp.reference").joinpath("table1_category_a.csv")
    path = tmp_path / "table1.csv"
    path.write_text(src.read_text())
    code, out, _ = run(capsys, "rank", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["methods"] == ["MATLS", "S5", "CS2SA*", "RWS"]
    assert data["average_ranking"] == pytest.approx([2.75, 1.35, 3.05, 2.85])
    assert data["friedman_F"] > 0
    assert data["df"] == 3


def test_rank_rewrites_the_bundled_table_with_its_rsds(tmp_path, capsys):
    text = resources.files("ttp.reference").joinpath("table1_category_a.csv").read_text()
    path, out = tmp_path / "table1.csv", tmp_path / "out.csv"
    path.write_text(text)
    code, _, _ = run(capsys, "rank", str(path), "--csv", str(out))
    assert code == 0
    source, written = (list(csv.DictReader(io.StringIO(t))) for t in (text, out.read_text()))
    rows = [row for row in written if not row["instance"].startswith(("average_ranking", "friedman"))]
    assert len(rows) == len(source) > 0
    assert rows[0]["instance"] == "eil76" and rows[0]["MATLS_rsd"] == "1.35"
    for got, want in zip(rows, source):
        assert got["instance"] == want["instance"]
        # means and RSDs are carried over exactly
        for key, value in want.items():
            if key.endswith(("_mean", "_rsd")):
                assert float(got[key]) == float(value)


def test_rank_writes_nan_for_a_summary_without_rsds(tmp_path, capsys):
    c, out = tmp_path / "s.csv", tmp_path / "out.csv"
    c.write_text("instance,x_mean,y_mean\na,1.0,2.0\nb,2.0,3.0\n")
    code, _, _ = run(capsys, "rank", str(c), "--csv", str(out))
    assert code == 0
    assert list(csv.reader(out.open()))[1:3] == [["a", "1.0", "nan", "2.0", "nan"], ["b", "2.0", "nan", "3.0", "nan"]]


def test_rank_mixed_inputs_rejected(tmp_path, capsys):
    j = tmp_path / "r.jsonl"
    j.write_text(json.dumps({"instance": "a", "label": "x", "best_gain": 1.0}) + "\n")
    c = tmp_path / "s.csv"
    c.write_text("instance,x_mean\na,1.0\n")
    code, _, err = run(capsys, "rank", str(j), str(c))
    assert code == 1
    assert "not a mix" in err


def test_rank_rejects_a_nan_mean(tmp_path, capsys):
    c = tmp_path / "s.csv"
    c.write_text("instance,x_mean,y_mean\na,1.0,nan\nb,2.0,3.0\n")
    code, out, err = run(capsys, "rank", str(c))
    assert code == 1 and out == ""
    assert "finite" in err
