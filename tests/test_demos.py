"""Each demo runs to completion in its own interpreter, against the package
in ``src/``: a renamed or removed keyword shows up here as a failed demo."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "demo_family_gallery.py", "demo_holding_certificates.py",
        "demo_iceberg_profile.py", "demo_planar_widths.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
