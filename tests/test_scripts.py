import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("baseline", [[], ["--baseline", str(ROOT)]], ids=["plain", "baseline"])
def test_retrieval_scale_runs_and_finds_the_rankings_identical(baseline):
    command = [sys.executable, str(ROOT / "scripts" / "retrieval_scale.py"), "20", "--queries", "3", *baseline]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "rankings identical" in done.stdout, done.stdout
