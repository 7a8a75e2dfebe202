"""tools/reached.py: the `src/semslam` functions and statements that the
panel jobs never run, from a line trace of one job."""

import os
import subprocess
import sys

import semslam

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_loop_job_report_is_deterministic_and_names_what_it_skips():
    """Two traces of loop-1 print the same report. The job optimizes its
    pose graph and never evaluates a trajectory, so `graph.optimize` is
    entered and `cli.cmd_eval` is not."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(semslam.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tool = [sys.executable, os.path.join(ROOT, "tools", "reached.py"), "--job", "loop-1"]
    first, second = (subprocess.run(tool, env=env, capture_output=True, text=True, check=True).stdout for _ in range(2))
    assert first == second
    digest, *lines = first.splitlines()
    assert digest.startswith("loop-1 measurements.csv=")
    not_entered = [line.split()[2] for line in lines if line.startswith("not entered: ")]
    assert "cli.cmd_eval" in not_entered and "graph.optimize" not in not_entered
    assert any(line.startswith("missed: graph.optimize (graph.py): ") for line in lines)
    assert all(line.startswith(("not entered: ", "missed: ")) for line in lines)
