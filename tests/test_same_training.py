"""tools/same_training.py, which tells whether checkouts run, train and infer bitwise alike."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_training.py"
spec = importlib.util.spec_from_file_location("same_training", TOOL)
same_training = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_training)

START = "alpha[..., c.sfa.initial] = 1.0"
# each copy of src/symfa the tool compares with ROOT, and its one edit
COPIES = {
    "unchanged": None,
    "optimizer": ("learn.py", "eps=1e-8", "eps=1e-7"),
    "recursion": ("automaton.py", START, START + " + 2.0**-52"),
}


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """One run of the tool on ROOT and every copy: one child per checkout.

    Returns the finished process, each copy's path by name, and each
    checkout's digest line (its recursion, training, mixed and infer
    digests)."""
    paths = {}
    for name, edit in COPIES.items():
        path = paths[name] = tmp_path_factory.mktemp(name)
        shutil.copytree(ROOT / "src" / "symfa", path / "src" / "symfa")
        if edit is not None:
            module, old, new = edit
            source = path / "src" / "symfa" / module
            text = source.read_text()
            assert old in text
            source.write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), *map(str, paths.values())],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 1, proc.stderr
    parts = len(same_training.PARTS)
    lines = {line.split()[parts]: line.split()[:parts] for line in proc.stdout.splitlines()}
    return proc, paths, lines


def test_a_checkout_trains_like_itself(compared):
    proc, paths, lines = compared
    assert len(lines) == 1 + len(COPIES)
    assert lines[str(paths["unchanged"])] == lines[str(ROOT)]
    assert f"{paths['unchanged']}: " not in proc.stderr


def test_a_different_optimizer_step_is_told_apart(compared):
    proc, paths, _ = compared
    assert f"{paths['optimizer']}: training differ" in proc.stderr
    assert f"{paths['optimizer']}: mixed differ" in proc.stderr
    assert f"{paths['optimizer']}: recursions differ" not in proc.stderr


def test_a_different_recursion_is_told_apart(compared):
    proc, paths, _ = compared
    assert f"{paths['recursion']}: recursions differ" in proc.stderr


def test_the_exit_status_says_whether_every_new_checkout_agrees(monkeypatch, capsys):
    # children stubbed by checkout name: "a" and "b" agree, "c" and "d"
    # differ, "d" in its mixed-length training only
    digests = {"a": ("r", "t", "m", "i"), "b": ("r", "t", "m", "i"), "c": ("r", "u", "m", "j")}
    digests["d"] = ("r", "t", "n", "i")
    monkeypatch.setattr(same_training, "_child", lambda path: digests[str(path)])
    assert same_training.main(["same_training.py", "a", "b"]) == 0
    assert same_training.main(["same_training.py", "a", "b", "c", "d"]) == 1
    assert capsys.readouterr().err == "c: training differ\nc: infer differ\nd: mixed differ\n"
    monkeypatch.setattr(same_training, "_child", lambda path: None)
    assert same_training.main(["same_training.py", "a", "b"]) == 2
    assert same_training.main(["same_training.py", "a"]) == 2


def test_a_different_infer_output_is_told_apart(monkeypatch):
    # in-process, on this checkout's symfa: half the accepting mass in accept mode
    from symfa import automaton

    before = same_training.infer_digest()
    assert same_training.infer_digest() == before
    mask = automaton._accepting_mask
    monkeypatch.setattr(automaton, "_accepting_mask", lambda c: mask(c) / 2)
    assert same_training.infer_digest() != before
