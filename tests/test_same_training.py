"""tools/same_training.py, which tells whether two checkouts run and train bitwise alike."""

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
    digests = [line.split()[:2] for line in proc.stdout.splitlines()]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_a_different_optimizer_step_is_told_apart(tmp_path):
    shutil.copytree(ROOT / "src" / "symfa", tmp_path / "src" / "symfa")
    learn = tmp_path / "src" / "symfa" / "learn.py"
    text = learn.read_text()
    assert "eps=1e-8" in text
    learn.write_text(text.replace("eps=1e-8", "eps=1e-7"))
    proc = same_training(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "training differ" in proc.stderr and "recursions differ" not in proc.stderr


def test_a_different_recursion_is_told_apart(tmp_path):
    shutil.copytree(ROOT / "src" / "symfa", tmp_path / "src" / "symfa")
    automaton = tmp_path / "src" / "symfa" / "automaton.py"
    text = automaton.read_text()
    start = "alpha[..., c.sfa.initial] = 1.0"
    assert start in text
    automaton.write_text(text.replace(start, start + " + 2.0**-52"))
    proc = same_training(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "recursions differ" in proc.stderr
