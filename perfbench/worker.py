"""Runs the program in a process of its own, so that import time and peak
memory are the program's and not the benchmark's.

    worker.py setup <instance.ttp>...  one set-up: import ttp, parse the instances
    worker.py rounds <spec.json>       repeat the fixed work for a while

Both print one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

SRC = Path(__file__).resolve().parents[1] / "src"

# fixed points for the host-speed reference, from a linear congruential walk
_REF_POINTS = [(float(i * 7919 % 1000), float(i * 104729 % 1000)) for i in range(400)]


def reference() -> float:
    """Seconds taken by a fixed pure-Python walk shaped like the program's
    hot loops (ceil'd distances, load-dependent speed, float sums): 10–15 ms
    on the 2-vCPU machine the benchmark was built on.  It imports nothing from
    ``ttp``, so only the host's speed moves it."""
    start = time.perf_counter()
    pts = _REF_POINTS
    n = len(pts)
    t = w = 0.0
    seen = {}
    for rep in range(40):
        for i in range(n - 1):
            (x1, y1), (x2, y2) = pts[i], pts[(i * 7 + rep) % n]
            d = math.ceil(math.hypot(x1 - x2, y1 - y2))
            w += 0.5
            t += d / max(1.0 - w * 1e-5, 0.1)
            seen[i] = d
    return time.perf_counter() - start


class HostClock:
    """Times work between host-speed samples, taken every ``period`` seconds
    by a SIGALRM handler, so long program calls are sampled too.  ``raw`` is
    the work's wall time without the samples; ``units`` adds each stretch of
    work over the mean of the references taken just before and after it.
    Samples that fall inside a traced span count in its time."""

    def __init__(self, period: float):
        self.refs = [reference()]
        self.raw = self.units = 0.0
        self._start = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def _sample(self, *_) -> None:
        span = time.perf_counter() - self._start
        self.refs.append(reference())
        self.raw += span
        self.units += span * 2 / (self.refs[-2] + self.refs[-1])
        self._start = time.perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()


def import_ttp():
    sys.path.insert(0, str(SRC))
    import ttp

    if not Path(ttp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ttp was imported from {ttp.__file__}, not from {SRC}")
    return ttp


def setup(paths: list[str]) -> dict:
    start = time.perf_counter()
    ttp = import_ttp()
    imported = time.perf_counter()
    for path in paths:
        ttp.parse_instance(Path(path).read_text())
    return {"import_s": imported - start, "parse_s": time.perf_counter() - imported}


def solve_one(ttp, inst, config: dict) -> dict:
    rec = ttp.solve(inst, ttp.SolverConfig(**config))
    return {"tour": rec.best_tour, "packing": rec.best_packing, "gain": rec.best_gain,
            "restarts": len(rec.trace), "wall_time": rec.wall_time}


def construct_one(ttp, inst) -> dict:
    """Candidate lists, the nearest-neighbour tour and the initial picking
    plan on it: the construction that ``ttp tour`` and ``ttp pack`` run.
    Functions are looked up at call time, so traced bindings are used."""
    # the package's ``evaluate`` attribute is the function, not the module
    tour_mod, eval_mod, pack_mod = (sys.modules[f"ttp.{m}"] for m in ("tour", "evaluate", "packing"))
    tour = tour_mod.nearest_neighbor_tour(inst)
    tour_mod.delaunay_candidates(inst)
    cache = eval_mod.build_prefix_cache(inst, ttp.Solution(tour, [0] * inst.m))
    params = pack_mod.PackingParams(beta=pack_mod.default_beta(inst))
    packing = pack_mod.initial_picking_plan(inst, tour, cache, params)
    gain = eval_mod.evaluate(inst, ttp.Solution(tour, packing)).gain
    return {"tour": tour, "packing": packing, "gain": gain}


def layer_metrics(tr) -> dict:
    """Per-layer figures of one traced round."""
    calls = tr.calls_of
    s = tr.self_s
    flips = calls("evaluate.delta_flip")
    sa = "packing.simulated_annealing_kp"
    probes = calls("evaluate.delta_flip", sa)
    return {
        "tour.nearest_neighbor_s": s["tour.nearest_neighbor_tour"],
        "tour.candidates_s": s["tour.delaunay_candidates"],
        "tour.two_opt_s": s["tour.two_opt_improve"],
        "tour.two_opt_calls": calls("tour.two_opt_improve"),
        "evaluate.prefix_cache_s": s["evaluate.build_prefix_cache"],
        "evaluate.prefix_cache_calls": calls("evaluate.build_prefix_cache"),
        "evaluate.delta_flip_s": s["evaluate.delta_flip"],
        "evaluate.delta_flip_calls": flips,
        "evaluate.delta_flip_us": 1e6 * s["evaluate.delta_flip"] / flips if flips else 0.0,
        "evaluate.evaluate_s": s["evaluate.evaluate"],
        "scoring.score_table_s": s["scoring.build_score_table"],
        "packing.plan_s": s["packing.initial_picking_plan"],
        "packing.plan_picks": tr.picked,
        "packing.sa_s": s[sa],
        "packing.sa_probes": probes,
        "packing.sa_probes_per_s": probes / tr.total_s[sa] if probes else 0.0,
        "packing.sa_accept_ratio": calls("evaluate.build_prefix_cache", sa) / probes if probes else 0.0,
        "solver.self_s": s["solver.solve"],
        "solver.restarts": tr.restarts,
    }


def rounds(spec: dict) -> dict:
    """Repeat the fixed work in whole rounds while another round is expected
    to end within ``seconds``; run at least one round.  With
    ``trace`` set, rounds alternate untraced and traced, starting untraced, so
    that both kinds run under the same conditions, and at least one of each
    runs."""
    ttp = import_ttp()
    from tracing import Tracer

    insts = [ttp.parse_instance(Path(p).read_text()) for p in spec["instances"]]
    config = spec["solver"]
    out = []
    start = time.perf_counter()
    while (not out or (spec["trace"] and len(out) < 2)
           or (time.perf_counter() - start) * (1 + 1 / len(out)) <= spec["seconds"]):
        traced = spec["trace"] and len(out) % 2 == 1
        with Tracer() if traced else nullcontext() as tracer:
            clock = HostClock(period=0.5)
            try:
                results = [solve_one(ttp, inst, config) if config else construct_one(ttp, inst)
                           for inst in insts]
            finally:
                clock.stop()
        entry = {"seconds": clock.raw, "ref_units": clock.units, "ref_s": median(clock.refs),
                 "traced": traced, "results": results}
        if tracer:
            entry["layers"] = layer_metrics(tracer)
        out.append(entry)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rounds": out, "peak_rss_mb": peak_mb}


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("setup", "rounds"):
        raise SystemExit("usage: worker.py {setup <instance.ttp>... | rounds <spec.json>}")
    if sys.argv[1] == "setup":
        result = setup(sys.argv[2:])
    else:
        result = rounds(json.loads(Path(sys.argv[2]).read_text()))
    print(json.dumps(result))
