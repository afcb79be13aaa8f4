import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *argv], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_graph_atlas_with_ideals():
    rows = run_script("graph_atlas.py", "--max", "3", "--ideals")
    assert rows[0] == ["n", "vertices", "edges", "clique", "diameter"]
    assert rows[1:] == [
        ["2", "5", "1", "2", "disc(4)"],
        ["rank<=1:", "4", "vertices,", "diameter", "disc(3)"],
        ["3", "32", "73", "6", "disc(2)"],
        ["rank<=1:", "9", "vertices,", "diameter", "2"],
        ["rank<=2:", "27", "vertices,", "diameter", "4"]]


def test_extremal_census_table():
    rows = run_script("extremal_census.py", "--min", "3", "--max", "4")
    assert rows[0] == ["n", "max", "order", "count", "balanced-null", "time"]
    assert [r[:4] for r in rows[1:]] == [["3", "3", "12", "6/12"],
                                         ["4", "7", "6", "6/6"]]
