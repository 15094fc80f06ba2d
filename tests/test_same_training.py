"""tools/same_training.py, which tells whether checkouts run, train and infer bitwise alike."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    checkout's digest line (its recursion, training, mixed, infer, losses
    and errors digests)."""
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
    assert f"{paths['optimizer']}: losses differ" not in proc.stderr


def test_a_different_recursion_is_told_apart(compared):
    proc, paths, _ = compared
    assert f"{paths['recursion']}: recursions differ" in proc.stderr
    assert f"{paths['recursion']}: losses differ" in proc.stderr


def test_the_exit_status_says_whether_every_new_checkout_agrees(monkeypatch, capsys):
    # children stubbed by checkout name: "a" and "b" agree, "c" to "f"
    # differ, "d" in its mixed-length training only, "e" in its losses,
    # "f" in its errors
    digests = {"a": ("r", "t", "m", "i", "l", "e"), "b": ("r", "t", "m", "i", "l", "e")}
    digests["c"] = ("r", "u", "m", "j", "l", "e")
    digests["d"] = ("r", "t", "n", "i", "l", "e")
    digests["e"] = ("r", "t", "m", "i", "k", "e")
    digests["f"] = ("r", "t", "m", "i", "l", "f")
    monkeypatch.setattr(same_training, "_child", lambda path: digests[str(path)])
    assert same_training.main(["same_training.py", "a", "b"]) == 0
    assert same_training.main(["same_training.py", "a", "b", "c", "d", "e", "f"]) == 1
    err = (
        "c: training differ\nc: infer differ\nd: mixed differ\ne: losses differ\n"
        "f: errors differ\n"
    )
    assert capsys.readouterr().err == err
    monkeypatch.setattr(same_training, "_child", lambda path: None)
    assert same_training.main(["same_training.py", "a", "b"]) == 2
    assert same_training.main(["same_training.py", "a"]) == 2


def test_a_different_infer_output_is_told_apart(monkeypatch):
    # in-process, on this checkout's symfa: half the accepting mass in
    # accept mode, and alphas a last bit apart
    from symfa import automaton

    # each recursion's form, BLOCK_ROWS, and whether a block ends inside a
    # run of one width
    seen, run = set(), automaton._run_forward

    def recording(c, packed, rows, out=None):
        ends = [t1 for _, t1, *_ in packed.blocks[:-1]]
        split = any(packed.widths[t - 1] == packed.widths[t] for t in ends)
        seen.add((c._plan.next is None, automaton.BLOCK_ROWS, split))
        return run(c, packed, rows, out)

    monkeypatch.setattr(automaton, "_run_forward", recording)
    block_rows = automaton.BLOCK_ROWS
    before = same_training.infer_digest()
    assert automaton.BLOCK_ROWS == block_rows
    # both forms, each with blocks that split runs, at both block sizes
    assert seen == {(gather, rows, True) for gather in (False, True) for rows in (block_rows, 64)}
    monkeypatch.undo()
    assert same_training.infer_digest() == before
    mask = automaton._accepting_mask
    monkeypatch.setattr(automaton, "_accepting_mask", lambda c: mask(c) / 2)
    assert same_training.infer_digest() != before
    monkeypatch.undo()

    # every alpha moved by a relative 1e-12, which no 6-decimal cell shows
    def scaled(c, packed, rows, out=None):
        final = run(c, packed, rows, out)
        (final if out is None else out)[...] *= 1 + 1e-12
        return final

    monkeypatch.setattr(automaton, "_run_forward", scaled)
    assert same_training.infer_digest() != before
    assert automaton._run_forward is scaled


def test_a_different_loss_is_told_apart(monkeypatch):
    # in-process, on this checkout's symfa: two clamps inside the log that
    # only probabilities near 0 or near 1 reach
    from symfa import learn

    before = same_training.losses_digest()
    assert same_training.losses_digest() == before
    # every mass below LOG_CLAMP raised to it, not only a mass of exactly 0
    clamped_log_grad = learn._clamped_log_grad
    monkeypatch.setattr(
        learn, "_clamped_log_grad", lambda p: clamped_log_grad(np.maximum(p, learn.LOG_CLAMP))
    )
    assert same_training.losses_digest() != before
    monkeypatch.undo()
    # the cap inside the log at 1 - 1e-6, not 1 - 1e-7
    monkeypatch.setattr(learn, "LOG_CLAMP", 1e-6)
    assert same_training.losses_digest() != before


def test_a_different_error_is_told_apart(monkeypatch):
    # in-process, on this checkout's symfa: the range check's message and a
    # reader's message, each reworded
    from symfa import automaton, learn
    from symfa.errors import InputError

    before = same_training.errors_digest()
    assert same_training.errors_digest() == before
    check = automaton._check_probs

    def reworded(*args):
        try:
            return check(*args)
        except InputError as exc:
            raise InputError(f"{exc}.") from None

    monkeypatch.setattr(automaton, "_check_probs", reworded)
    assert same_training.errors_digest() != before
    monkeypatch.undo()
    extract = learn.LinearExtractor.extract

    def renamed(self, features):
        try:
            return extract(self, features)
        except ValueError as exc:
            raise ValueError(f"{exc}.") from None

    monkeypatch.setattr(learn.LinearExtractor, "extract", renamed)
    assert same_training.errors_digest() != before
