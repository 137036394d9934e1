"""The demo scripts run in order from a clean copy and reproduce demos/output byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_demos_reproduce_tracked_outputs(tmp_path):
    scripts = sorted(DEMOS.glob("[0-9][0-9]_*.py"))
    assert len(scripts) == 5
    work = tmp_path / "demos"
    work.mkdir()
    for script in scripts:
        shutil.copy(script, work)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script in scripts:
        done = subprocess.run([sys.executable, script.name], cwd=work, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (script.name, done.stderr)
    tracked = sorted(p.name for p in (DEMOS / "output").iterdir())
    assert sorted(p.name for p in (work / "output").iterdir()) == tracked
    for name in tracked:
        assert (work / "output" / name).read_bytes() == (DEMOS / "output" / name).read_bytes(), name
