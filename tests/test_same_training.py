"""tools/same_training.py, which tells whether two checkouts train bitwise alike."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_training.py"


def same_training(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new)], capture_output=True, text=True, timeout=600
    )


def test_a_checkout_trains_like_itself():
    proc = same_training(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    digests = [line.split()[0] for line in proc.stdout.splitlines()]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_a_different_optimizer_step_is_told_apart(tmp_path):
    shutil.copytree(ROOT / "src" / "symfa", tmp_path / "src" / "symfa")
    learn = tmp_path / "src" / "symfa" / "learn.py"
    text = learn.read_text()
    assert "eps=1e-8" in text
    learn.write_text(text.replace("eps=1e-8", "eps=1e-7"))
    proc = same_training(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
