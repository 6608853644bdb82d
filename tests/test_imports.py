"""Importing the package loads numpy and nothing heavier: scipy is imported
only to triangulate, and ``solve`` imports it before it reads its clock.
Each check runs in a fresh interpreter, whose modules are not those this
test run has loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str, cwd: Path) -> dict:
    """The JSON object that ``code`` prints last, run in ``cwd`` by a new
    interpreter that imports the package from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


PRELUDE = """
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def test_no_scipy_until_a_triangulation(tmp_path):
    out = fresh(PRELUDE + f"""
steps = {{}}
import ttp
steps["import ttp"] = scipy_loaded()
steps["benchmark modules missing"] = [m for m in ("ttp.tour", "ttp.evaluate", "ttp.scoring", "ttp.packing",
                                                  "ttp.solver") if m not in sys.modules]
import ttp.cli
steps["import ttp.cli"] = scipy_loaded()
from ttp.evaluate import Solution, evaluate
inst = ttp.load_instance({str(FIXTURES / "category_c_20.ttp")!r})
evaluate(inst, Solution(list(range(1, inst.n + 1)), [0] * inst.m))
steps["parse and evaluate"] = scipy_loaded()
example = {str(FIXTURES / "example5.ttp")!r}
with open("tour.txt", "w") as fh:
    fh.write("1 2 3 4 5")
with open("packing.txt", "w") as fh:
    fh.write("0 1 1 1")
from importlib import resources
table = str(resources.files("ttp.reference").joinpath("table1_category_a.csv"))
for argv in (["parse", example], ["eval", example, "--tour", "tour.txt", "--packing", "packing.txt"],
             ["score", example], ["pack", example], ["rank", table]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ttp.cli.main(argv) == 0, argv
    steps["ttp " + argv[0]] = scipy_loaded()
print(json.dumps(steps))
""", tmp_path)
    assert out.pop("benchmark modules missing") == []
    assert out == {step: [] for step in out}
    assert list(out) == ["import ttp", "import ttp.cli", "parse and evaluate",
                         "ttp parse", "ttp eval", "ttp score", "ttp pack", "ttp rank"]


def test_solve_imports_scipy_before_it_reads_its_clock(tmp_path):
    out = fresh(PRELUDE + f"""
import time
import ttp, ttp.solver

class Clock:
    loaded_at_reads = []

    @staticmethod
    def monotonic():
        Clock.loaded_at_reads.append("scipy.spatial" in sys.modules)
        return time.monotonic()

ttp.solver._time = Clock
inst = ttp.load_instance({str(FIXTURES / "category_c_20.ttp")!r})
before = scipy_loaded()
ttp.solve(inst, ttp.SolverConfig(time_budget=60.0, max_restarts=1))
print(json.dumps({{"before": before, "at_first_read": Clock.loaded_at_reads[0]}}))
""", tmp_path)
    assert out == {"before": [], "at_first_read": True}
