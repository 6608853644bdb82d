"""Command-line entry point.

Subcommands: parse, eval, tour, score, pack, solve, bench, rank.
Exit codes: 0 ok, 1 usage error, 2 instance parse error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import glob as _glob
import json
import math
import sys
import time as _time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ttp.evaluate import Solution, build_prefix_cache, evaluate
from ttp.instance import Instance, ParseError, load_instance
from ttp.packing import initial_picking_plan
from ttp.scoring import DEFAULT_ALPHA, build_score_table
from ttp.solver import RunRecord, SolverConfig, solve
from ttp.stats import ResultMatrix, average_ranking, chi2_critical, friedman_statistic
from ttp.tour import delaunay_candidates, nearest_neighbor_tour, two_opt_improve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_ints(path: str) -> list[int]:
    """The whitespace-separated integers of a tour or packing file."""
    return [int(tok) for tok in Path(path).read_text().split()]


def _beta(text: str) -> float | None:
    """A ``--beta`` value: a number, or ``auto`` (None) for the instance's default."""
    return None if text == "auto" else float(text)


def _instance_and_tour(instance: str, tour_file: str | None) -> tuple[Instance, Solution]:
    """The instance, and its tour from ``tour_file`` or else the
    nearest-neighbour tour, validated, with nothing picked."""
    inst = load_instance(instance)
    tour = _read_ints(tour_file) if tour_file else nearest_neighbor_tour(inst)
    sol = Solution(tour, [0] * inst.m)
    sol.validate(inst)
    return inst, sol


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        time_budget=args.time,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
        use_sa=not args.bitflip,
        tour_in=_read_ints(args.tour_in) if args.tour_in else None,
    )


def cmd_parse(args) -> int:
    inst = load_instance(args.instance)
    print(json.dumps({
        "name": inst.name,
        "n": inst.n,
        "m": inst.m,
        "capacity": inst.capacity,
        "v_min": inst.v_min,
        "v_max": inst.v_max,
        "renting_ratio": inst.renting_ratio,
        "edge_weight_type": inst.edge_weight_type.value,
        "total_item_weight": inst.total_item_weight,
    }))
    return EXIT_OK


def cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    sol = Solution(_read_ints(args.tour), _read_ints(args.packing))
    sol.validate(inst)
    res = evaluate(inst, sol)
    print(json.dumps({
        "gain": res.gain,
        "travel_time": res.travel_time,
        "total_profit": res.total_profit,
        "final_weight": res.final_weight,
        "feasible": res.feasible,
    }))
    return EXIT_OK


def cmd_tour(args) -> int:
    inst, sol = _instance_and_tour(args.instance, args.tour_in)
    candidates = delaunay_candidates(inst)
    deadline = _time.monotonic() + args.time
    sol = two_opt_improve(inst, sol, None, candidates, deadline)
    text = " ".join(str(c) for c in sol.tour)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_score(args) -> int:
    inst, sol = _instance_and_tour(args.instance, args.tour)
    table = build_score_table(inst, build_prefix_cache(inst, sol), args.alpha)
    columns = zip(inst.city.tolist(), inst.profit.tolist(), inst.weight.tolist(), table.scores, table.marginal)
    rows = [
        {"item": j, "city": city, "profit": profit, "weight": weight, "score": score, "marginal_gain": gain}
        for j, (city, profit, weight, score, gain) in enumerate(columns, start=1)
    ]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else ["item"])
            writer.writeheader()
            writer.writerows(rows)
    else:
        print(json.dumps({
            "avg_score": table.avg_score,
            "max_score": table.max_score,
            "positive_count": table.positive_count,
            "ratio": table.ratio,
            "items": rows,
        }))
    return EXIT_OK


def cmd_pack(args) -> int:
    config = SolverConfig(alpha=args.alpha, beta=args.beta)
    inst, sol = _instance_and_tour(args.instance, args.tour)
    sol.packing = initial_picking_plan(inst, sol.tour, build_prefix_cache(inst, sol), config)
    res = evaluate(inst, sol)
    print(json.dumps({"packing": sol.packing, "gain": res.gain, "feasible": res.feasible}))
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    record = solve(inst, _solver_config(args))
    # reported best must round-trip through a fresh evaluation
    check = evaluate(inst, Solution(record.best_tour, record.best_packing))
    if not check.feasible or not math.isclose(check.gain, record.best_gain, rel_tol=1e-6, abs_tol=1e-6):
        print("internal error: best solution fails re-evaluation", file=sys.stderr)
        return EXIT_INTERNAL
    payload = record.to_dict()
    if args.json:
        Path(args.json).write_text(json.dumps(payload))
    print(json.dumps({"instance": record.instance, "gain": record.best_gain,
                      "wall_time": record.wall_time, "restarts": len(record.trace)}))
    return EXIT_OK


def _bench_task(task: tuple) -> dict:
    path, label, config_dict, run = task
    inst = load_instance(path)
    config = SolverConfig(**config_dict)
    record = solve(inst, config)
    out = record.to_dict()
    out["label"] = label
    out["run"] = run
    out["instance_path"] = str(path)
    return out


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def cmd_bench(args) -> int:
    paths = sorted(_glob.glob(args.instances))
    if not paths:
        print(f"error: no instances match {args.instances!r}", file=sys.stderr)
        return EXIT_USAGE
    # built before any run, so a bad setting fails the whole bench at once
    configs = [
        (f"alpha{alpha:g}", run, SolverConfig(time_budget=args.time, alpha=alpha, beta=args.beta,
                                              seed=args.seed + run, max_restarts=args.max_restarts))
        for alpha in args.alpha or [DEFAULT_ALPHA]
        for run in range(args.runs)
    ]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    tasks = []
    failed: list[str] = []
    for path in paths:
        try:
            load_instance(path)
        except (ParseError, OSError) as exc:
            failed.append(f"{path}: {exc}")
            continue
        tasks += [(path, label, cfg.to_dict(), run) for label, run, cfg in configs]

    # a task that raises is reported as failed; the other records are kept
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = [pool.submit(_bench_task, t) for t in tasks]
            outcomes = [_outcome(f.result) for f in futures]
    else:
        outcomes = [_outcome(_bench_task, t) for t in tasks]
    results = []
    for (path, label, _, run), out in zip(tasks, outcomes):
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
            failed.append(f"{path} ({label}, run {run}): {type(out).__name__}: {out}")
        else:
            results.append(out)

    records_path = outdir / "records.jsonl"
    with open(records_path, "w") as fh:
        for rec in results:
            fh.write(json.dumps(rec) + "\n")

    matrix = _matrix_from_records(results)
    _write_summary(outdir / "summary.csv", matrix)
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "records": str(records_path),
        "summary": str(outdir / "summary.csv"),
        "runs": len(results),
        "failed": len(failed),
    }))
    return EXIT_OK


def _matrix_from_records(records: list[dict]) -> ResultMatrix:
    instances = sorted({r["instance"] for r in records})
    methods = sorted({r["label"] for r in records})
    gains = [
        [
            [r["best_gain"] for r in records if r["instance"] == inst and r["label"] == lab]
            for lab in methods
        ]
        for inst in instances
    ]
    return ResultMatrix(instances=instances, methods=methods, gains=gains)


def _write_summary(path: Path, matrix: ResultMatrix) -> None:
    """Mean and RSD per cell, the average ranking and, for at least two
    instances and methods, the Friedman statistic; the header alone when
    there is no run to summarise."""
    header = ["instance"]
    for m in matrix.methods:
        header += [f"{m}_mean", f"{m}_rsd"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if not matrix.instances:
            return
        means = matrix.means()
        rsds = matrix.rsds()
        for i, name in enumerate(matrix.instances):
            row = [name]
            for j in range(len(matrix.methods)):
                row += [f"{means[i, j]:.6g}", f"{rsds[i, j]:.4g}"]
            writer.writerow(row)
        footer = ["average_ranking"]
        ranks = average_ranking(means)
        for j in range(len(matrix.methods)):
            footer += [f"{ranks[j]:.4g}", ""]
        writer.writerow(footer)
        if means.shape[0] >= 2 and means.shape[1] >= 2:
            f, rank_sums, df = friedman_statistic(means)
            stat_row = ["friedman_F", f"{f:.6g}", f"df={df}"]
            try:
                stat_row.append(f"chi2_crit={chi2_critical(df):g}")
            except ValueError:
                pass
            writer.writerow(stat_row)


def _load_means_csv(path: str) -> ResultMatrix:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        methods = [f[: -len("_mean")] for f in fields if f.endswith("_mean")]
        instances, gains = [], []
        for row in reader:
            if not row.get("instance") or row["instance"].startswith(("average_ranking", "friedman")):
                continue
            instances.append(row["instance"])
            gains.append([[float(row[f"{m}_mean"])] for m in methods])
    return ResultMatrix(instances=instances, methods=methods, gains=gains)


def cmd_rank(args) -> int:
    records: list[dict] = []
    matrices: list[ResultMatrix] = []
    for path in args.results:
        if path.endswith(".jsonl"):
            with open(path) as fh:
                records += [json.loads(line) for line in fh if line.strip()]
        else:
            matrices.append(_load_means_csv(path))
    if records:
        matrices.append(_matrix_from_records(records))
    if len(matrices) > 1:
        print("error: pass either run records or one summary CSV, not a mix", file=sys.stderr)
        return EXIT_USAGE
    if not matrices or not matrices[0].instances:
        print("error: the result files hold no runs to rank", file=sys.stderr)
        return EXIT_USAGE
    matrix = matrices[0]
    out = Path(args.csv) if args.csv else None
    if out is None:
        means = matrix.means()
        ranks = average_ranking(means)
        payload = {"methods": matrix.methods, "average_ranking": list(ranks)}
        if means.shape[0] >= 2:
            f, rank_sums, df = friedman_statistic(means)
            payload |= {"friedman_F": f, "rank_sums": list(map(float, rank_sums)), "df": df}
        print(json.dumps(payload))
    else:
        _write_summary(out, matrix)
        print(json.dumps({"csv": str(out)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ttp", description="Travelling Thief Problem solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tour_opt=False):
        p.add_argument("instance")
        if tour_opt:
            p.add_argument("--tour", help="tour file (whitespace-separated permutation)")

    def beta_opt(p):
        p.add_argument("--beta", type=_beta, default="auto",
                       help="phase-1 picking threshold in [0, 1], or auto (from the item factor)")

    p = sub.add_parser("parse", help="validate an instance file")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a (tour, packing) pair")
    common(p)
    p.add_argument("--tour", required=True)
    p.add_argument("--packing", required=True, help="packing file (0/1 vector)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tour", help="construct and 2-OPT-improve a tour")
    common(p)
    p.add_argument("--out")
    p.add_argument("--tour-in", dest="tour_in")
    p.add_argument("--time", type=float, default=10.0)
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("score", help="dump per-item scores for a tour")
    common(p, tour_opt=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("pack", help="build the initial picking plan")
    common(p, tour_opt=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    beta_opt(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("solve", help="run the full solver")
    common(p)
    p.add_argument("--time", type=float, default=10.0)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    beta_opt(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bitflip", action="store_true", help="bit-flip hill climbing instead of SA")
    p.add_argument("--tour-in", dest="tour_in")
    p.add_argument("--json", help="write the full run record here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="batch benchmark over an instance glob")
    p.add_argument("instances", help="glob of instance files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--time", type=float, default=10.0)
    p.add_argument("--alpha", type=float, action="append", help="repeat for one config per value")
    beta_opt(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-restarts", dest="max_restarts", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rank", help="rank methods from run records or a summary CSV")
    p.add_argument("results", nargs="+")
    p.add_argument("--csv", help="write the ranking table here")
    p.set_defaults(func=cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
