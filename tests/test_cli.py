"""Command-line behavior: exit codes, output formats, reproducibility."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import symfa
from symfa import acceptance, automaton, format_sfa, forward, learn, load_sfa
from symfa.cli import _csv_cells, _load_labeled, main

P1 = [0.8, 0.3, 0.6]
P2 = [0.7, 0.9, 0.3]


@pytest.fixture()
def driving_path(tmp_path, driving):
    from symfa import format_sfa

    path = tmp_path / "driving.sfa"
    path.write_text(format_sfa(driving.sfa))
    return str(path)


@pytest.fixture()
def probs_dataset(tmp_path):
    path = tmp_path / "probs.jsonl"
    path.write_text(json.dumps({"probs": [P1, P2]}) + "\n")
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, driving_path, capsys):
        assert main(["validate", driving_path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_nondeterministic_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.sfa"
        path.write_text(
            "vars: a, b\nstates: q0, q1, q2\ninitial: q0\naccepting: q1\n"
            "q0 -> q1 : a\nq0 -> q2 : a | b\n"
        )
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "overlap" in err and "{a}" in err

    def test_validate_missing_file_is_io_error(self, capsys):
        assert main(["validate", "does-not-exist.sfa"]) == 2

    def test_validate_parse_error_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "broken.sfa"
        path.write_text("vars: a\nstates q0\n")
        assert main(["validate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_validate_deeply_nested_guard_is_a_guard_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "nested.sfa"
        guard = "(" * 400 + "a | !a" + ")" * 400
        path.write_text(f"vars: a\nstates: s\ninitial: s\naccepting: s\ns -> s : {guard}\n")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 5: bad guard: parentheses nest too deeply (at position")
        assert "recursion" not in err

    def test_validate_long_run_of_negations(self, tmp_path, capsys):
        # an even run and an odd run: a | !a
        path = tmp_path / "negations.sfa"
        guard = "!" * 1200 + "a | " + "!" * 1201 + "a"
        path.write_text(f"vars: a\nstates: s\ninitial: s\naccepting: s\ns -> s : {guard}\n")
        assert main(["validate", str(path)]) == 0
        assert "valid: 1 states, 1 transitions" in capsys.readouterr().out

    def test_incomplete_with_no_complete_flag(self, tmp_path, capsys):
        path = tmp_path / "partial.sfa"
        path.write_text(
            "vars: a\nstates: q0, q1\ninitial: q0\naccepting: q1\nq0 -> q1 : a\n"
        )
        assert main(["validate", str(path), "--no-complete"]) == 1
        assert main(["validate", str(path)]) == 0

    def test_help_everywhere(self, capsys):
        for cmd in ("validate", "compile", "infer", "train", "generate", "bench"):
            with pytest.raises(SystemExit) as exit_info:
                main([cmd, "--help"])
            assert exit_info.value.code == 0
            assert "usage" in capsys.readouterr().out


class TestCompile:
    def test_dump_lists_circuits_per_transition(self, driving_path, capsys):
        assert main(["compile", driving_path]) == 0
        out = capsys.readouterr().out
        assert "# q0 -> q1" in out
        assert "leaf" in out and ("sum" in out or "prod" in out)

    def test_driving_dump_golden(self, driving_path, capsys):
        # sums, products, a leaf shared by two products, a literal, a constant
        assert main(["compile", driving_path]) == 0
        assert capsys.readouterr().out == (
            "# q0 -> q0\n0 leaf 0 -\n1 leaf 1 -\n2 prod 0 1\n"
            "# q0 -> q1\n0 leaf 0 +\n1 leaf 0 -\n2 leaf 1 +\n3 prod 1 2\n4 sum 0 3\n"
            "# q1 -> q0\n0 leaf 0 -\n1 leaf 1 -\n2 leaf 2 -\n3 prod 1 2\n4 prod 0 3\n"
            "# q1 -> q1\n0 leaf 0 +\n1 leaf 2 -\n2 prod 0 1\n3 leaf 0 -\n4 leaf 1 +\n"
            "5 prod 4 1\n6 prod 3 5\n7 sum 2 6\n"
            "# q1 -> q2\n0 leaf 2 +\n"
            "# q2 -> q2\n0 const 1\n"
        )


class TestInfer:
    def test_accept_mode_prints_worked_example(self, driving_path, probs_dataset, capsys):
        assert main(["infer", driving_path, probs_dataset]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,acceptance"
        assert abs(float(lines[1].split(",")[1]) - 0.742) <= 1e-3

    def test_empty_dataset_prints_header_only(self, driving_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["infer", driving_path, str(empty)]) == 0
        assert capsys.readouterr().out == "index,acceptance\n"

    def test_tag_mode_rows_sum_to_one(self, driving_path, tmp_path, capsys):
        data = tmp_path / "one.jsonl"
        data.write_text(json.dumps({"probs": [P1]}) + "\n")
        assert main(["infer", driving_path, str(data), "--mode", "tag"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,step,q0,q1,q2"
        assert len(lines) == 2
        alpha = [float(v) for v in lines[1].split(",")[2:]]
        assert sum(alpha) == pytest.approx(1.0, abs=1e-6)

    def test_features_without_model_is_an_input_error(self, driving_path, tmp_path, capsys):
        data = tmp_path / "feat.jsonl"
        data.write_text(json.dumps({"features": [[0.0] * 6]}) + "\n")
        assert main(["infer", driving_path, str(data)]) == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probabilities_are_an_input_error(
        self, driving_path, tmp_path, capsys, bad
    ):
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps({"probs": [P1, [bad, 0.2, 0.3]]}) + "\n")
        for mode in ("accept", "tag"):
            assert main(["infer", driving_path, str(data), "--mode", mode]) == 2
            assert "finite" in capsys.readouterr().err


    def test_out_of_range_probabilities_are_an_input_error(self, driving_path, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps({"probs": [[1.5, -0.3, 2.0], P2]}) + "\n")
        for mode in ("accept", "tag"):
            assert main(["infer", driving_path, str(data), "--mode", mode]) == 2
            assert "[0, 1]" in capsys.readouterr().err

    # each record is range-checked as it is read, so the first bad record in
    # file order is named, whichever length group it would have run in
    @pytest.mark.parametrize(
        "records",
        [
            [[[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]], [[2, 0, 0]], [[0.5, 0.5, 0.5], [0.1, 0.1, 7]]],
            [[[0.5, 0.5, 0.5]], [[0.5, 0.5, 0.5], [0.1, 0.1, 7]], [[2, 0, 0]]],
            [[[0.5, 0.5, 0.5]], [[-1, 0, 0], [0.5, 0.5, 0.5]], [[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]]],
        ],
        ids=["in-a-group-run-later", "in-the-failing-group", "first-of-a-group"],
    )
    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_out_of_range_names_the_first_bad_record_in_file_order(
        self, driving_path, tmp_path, capsys, records, mode
    ):
        data = tmp_path / "bad.jsonl"
        data.write_text("".join(json.dumps({"probs": r}) + "\n" for r in records))
        assert main(["infer", driving_path, str(data), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sequence 1: symbol probabilities must be finite and within [0, 1] (±1e-06)\n"
        )

    # a later record or line that cannot be read does not hide an earlier
    # out-of-range record
    @pytest.mark.parametrize(
        "last_line",
        [json.dumps({"probs": [["a", 0.2, 0.3]]}), "{"],
        ids=["later-bad-record", "later-bad-json"],
    )
    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_out_of_range_comes_before_a_later_unreadable_line(
        self, driving_path, tmp_path, capsys, last_line, mode
    ):
        data = tmp_path / "bad.jsonl"
        records = [{"probs": [[0.1, 0.2, 0.3]]}, {"probs": [[2.0, 0.2, 0.3]]}]
        data.write_text("".join(json.dumps(r) + "\n" for r in records) + last_line + "\n")
        assert main(["infer", driving_path, str(data), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sequence 1: symbol probabilities must be finite and within [0, 1] (±1e-06)\n"
        )

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_an_empty_list_is_a_zero_step_record(self, driving, driving_path, tmp_path, capsys, mode):
        sequences = [[P1], [], [P1, P2]]
        data = tmp_path / "zero.jsonl"
        data.write_text("".join(json.dumps({"probs": ps}) + "\n" for ps in sequences))
        assert main(["infer", driving_path, str(data), "--mode", mode]) == 0
        assert capsys.readouterr().out == reference_csv(driving.compiled, sequences, mode)

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_empty_features_are_the_zero_step_record(self, driving_path, tmp_path, capsys, mode):
        model = tmp_path / "model.bin"
        learn.save_extractor(learn.LinearExtractor(np.zeros((3, 4)), np.zeros(3)), model)
        outputs = []
        for record in ({"features": []}, {"probs": []}):
            data = tmp_path / "zero.jsonl"
            data.write_text(json.dumps(record) + "\n")
            argv = ["infer", driving_path, str(data), "--model", str(model), "--mode", mode]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    # only an empty list is the zero-step record: empty rows are refused
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("probs", [[]], "probabilities must be a (steps, 3) array, got shape (1, 0)"),
            ("probs", [[], []], "probabilities must be a (steps, 3) array, got shape (2, 0)"),
            ("probs", [[[]]], "probabilities must be a (steps, 3) array, got shape (1, 1, 0)"),
            ("features", [[]], "feature dimension 0 != extractor's 4"),
            ("features", [[], []], "feature dimension 0 != extractor's 4"),
            ("features", [[[]]], "features must be a (steps, feature_dim) array"),
        ],
    )
    def test_empty_rows_are_not_the_zero_step_record(
        self, driving_path, tmp_path, capsys, key, value, message
    ):
        model = tmp_path / "model.bin"
        learn.save_extractor(learn.LinearExtractor(np.zeros((3, 4)), np.zeros(3)), model)
        data = tmp_path / "rows.jsonl"
        data.write_text(json.dumps({"probs": [P1]}) + "\n" + json.dumps({key: value}) + "\n")
        assert main(["infer", driving_path, str(data), "--model", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sequence 1: {message}\n"

    @pytest.mark.parametrize("row", [[0.1, 0.2, 0.3, 0.4], [0.1, 0.2]])
    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_probabilities_of_the_wrong_width_name_the_sequence(
        self, driving_path, tmp_path, capsys, row, mode
    ):
        data = tmp_path / "wide.jsonl"
        records = [{"probs": [P1]}, {"probs": [row, row]}]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["infer", driving_path, str(data), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sequence 1: probabilities must be a (steps, 3) array, got shape (2, {len(row)})\n"
        )

    # pytest captures warnings, so the CLI runs in its own process
    @pytest.mark.parametrize("bad_second_record", [False, True])
    def test_overflowing_logits_print_no_warning(
        self, driving_path, tmp_path, bad_second_record
    ):
        model = tmp_path / "ones.bin"
        learn.save_extractor(learn.LinearExtractor(np.ones((3, 3)), np.ones(3)), model)
        lines = [{"features": [[1e308, 1e308, 1e308]]}] + [{"steps": 1}] * bad_second_record
        data = tmp_path / "huge.jsonl"
        data.write_text("".join(json.dumps(line) + "\n" for line in lines))
        env = {**os.environ, "PYTHONPATH": str(Path(symfa.__file__).parent.parent)}
        env.pop("PYTHONWARNINGS", None)
        argv = ["infer", driving_path, str(data), "--model", str(model)]
        done = subprocess.run(
            [sys.executable, "-m", "symfa", *argv], capture_output=True, text=True, env=env
        )
        if bad_second_record:
            assert (done.returncode, done.stdout) == (2, "")
            assert re.fullmatch(r"error: sequence 1: [^\n]*\n", done.stderr), done.stderr
        else:
            assert done.returncode == 0
            assert (done.stdout, done.stderr) == ("index,acceptance\n0,1.000000\n", "")


def reference_csv(compiled, sequences, mode: str) -> str:
    """The CSV one acceptance/forward call per record gives."""
    if mode == "accept":
        return "index,acceptance\n" + "".join(
            f"{k},{acceptance(compiled, ps):.6f}\n" for k, ps in enumerate(sequences)
        )
    lines = ["index,step," + ",".join(compiled.states) + "\n"]
    for k, ps in enumerate(sequences):
        for t, alpha in enumerate(forward(compiled, ps)):
            lines.append(f"{k},{t}," + ",".join(f"{v:.6f}" for v in alpha) + "\n")
    return "".join(lines)


class TestBackToBackCalls:
    """`main` reuses one parser; nothing of one call reaches the next."""

    def test_infer_mode_defaults_to_accept_after_a_tag_call(
        self, driving_path, probs_dataset, capsys
    ):
        assert main(["infer", driving_path, probs_dataset, "--mode", "tag"]) == 0
        assert capsys.readouterr().out.startswith("index,step,")
        assert main(["infer", driving_path, probs_dataset]) == 0
        assert capsys.readouterr().out.startswith("index,acceptance\n")

    def test_compile_writes_to_stdout_after_an_out_call(self, driving_path, tmp_path, capsys):
        dump = tmp_path / "dump.txt"
        assert main(["compile", driving_path, "--out", str(dump)]) == 0
        assert capsys.readouterr().out == ""
        dump.unlink()
        assert main(["compile", driving_path]) == 0
        assert capsys.readouterr().out.startswith("# q0 -> ")
        assert not dump.exists()


class TestInferByLength:
    """One forward recursion runs every record, whatever the lengths; rows keep file order."""

    LENGTHS = (3, 1, 7, 7, 3, 1, 1, 3, 7, 3)

    @pytest.fixture()
    def recursions(self, monkeypatch):
        # each packed layout made, and each run of the core that
        # forward_alphas, acceptance_batch and `symfa infer` run, in order
        calls = []
        run, init = automaton._run_forward, automaton._Packed.__init__

        def counted(c, packed, rows, out=None):
            calls.append(("forward", list(packed.lengths)))
            return run(c, packed, rows, out)

        def made(packed, lengths):
            init(packed, lengths)
            calls.append(("layout", list(packed.lengths)))

        monkeypatch.setattr(automaton, "_run_forward", counted)
        monkeypatch.setattr(automaton._Packed, "__init__", made)
        return calls

    def write(self, path, key, sequences):
        path.write_text("".join(json.dumps({key: s.tolist()}) + "\n" for s in sequences))
        return str(path)

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_matches_per_record_runs(
        self, driving, driving_path, tmp_path, capsys, recursions, mode
    ):
        rng = np.random.default_rng(5)
        sequences = [rng.uniform(size=(t, 3)) for t in self.LENGTHS]
        data = self.write(tmp_path / "mixed.jsonl", "probs", sequences)
        assert main(["infer", driving_path, data, "--mode", mode]) == 0
        # one layout and one recursion, longest first, records of one length
        # in file order
        lengths = sorted(self.LENGTHS, reverse=True)
        assert recursions == [("layout", lengths), ("forward", lengths)]
        assert capsys.readouterr().out == reference_csv(driving.compiled, sequences, mode)

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_output_bytes_on_edge_records(
        self, driving, driving_path, tmp_path, capsys, mode, to_file
    ):
        # 11 records of length 2 between records of length 1 and 4, so one
        # length's rows are written under one- and two-digit indices
        rng = np.random.default_rng(8)
        lengths = (2, 1, 2, 2, 4, 2, 2, 1, 2, 2, 2, 4, 2, 2, 1, 2)
        sequences = [rng.uniform(size=(t, 3)) for t in lengths]
        # exact 0/1 inputs print 1.000000 and 0.000000; inputs just outside
        # [0, 1] but within PROB_RANGE_TOL print -0.000001 and 1.000001
        sequences[3] = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        sequences[12] = np.array([[-5e-7, 1 + 5e-7, -5e-7], [0.0, 0.0, 1.0]])
        data = self.write(tmp_path / "edges.jsonl", "probs", sequences)
        argv = ["infer", driving_path, data, "--mode", mode]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)] if to_file else argv) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        assert text == reference_csv(driving.compiled, sequences, mode)
        if mode == "tag":
            assert "3,0,1.000000,0.000000,0.000000\n3,1,0.000000,1.000000,0.000000\n" in text
            assert "\n12,0,-0.000001,1.000001,0.000000\n12,1," in text

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    @pytest.mark.parametrize("block_rows", [automaton.BLOCK_ROWS, 64])
    def test_output_bytes_across_digit_widths(
        self, driving, driving_path, tmp_path, capsys, monkeypatch, mode, block_rows
    ):
        # 120 records, so `index` has 1, 2 and 3 digits, and lengths on both
        # sides of the step's digit widths; then one record of each length
        # 0..130 and five more of zero steps, shuffled in, so that the
        # packed batch narrows at every step, and ties and zero-step records
        # fall anywhere in the file. 64-row blocks split tag mode's writes,
        # down to one 100-step record a block, and the recursion's blocks
        # inside a run of steps of one width
        monkeypatch.setattr(automaton, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(9)
        lengths = [(1, 9, 10, 11, 100, 101)[k % 6] for k in range(120)]
        lengths += rng.permutation(list(range(131)) + [0] * 5).tolist()
        rng.shuffle(lengths)
        sequences = [rng.uniform(size=(t, 3)) for t in lengths]
        # every fifth record holds 0s and 1s moved by up to PROB_RANGE_TOL,
        # whose state masses drift further outside [0, 1] step by step
        tol = automaton.PROB_RANGE_TOL
        for ps in sequences[::5]:
            ps[:] = rng.integers(0, 2, size=ps.shape) + rng.uniform(-tol, tol, size=ps.shape)
        data = self.write(tmp_path / "widths.jsonl", "probs", sequences)
        argv, out = ["infer", driving_path, data, "--mode", mode], tmp_path / "out.csv"
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text == reference_csv(driving.compiled, sequences, mode)
        assert "\n255," in text and ",-0.00000" in text
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == text

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    @pytest.mark.parametrize("bad", [{"probs": [[1.5, 0.2, 0.3]]}, {"steps": 2}])
    def test_bad_last_record_writes_nothing(self, driving_path, tmp_path, capsys, mode, bad):
        rng = np.random.default_rng(6)
        data = tmp_path / "bad-last.jsonl"
        self.write(data, "probs", [rng.uniform(size=(t, 3)) for t in self.LENGTHS])
        with data.open("a") as fh:
            fh.write(json.dumps(bad) + "\n")
        out = tmp_path / "out.csv"
        assert main(["infer", driving_path, str(data), "--mode", mode, "--out", str(out)]) == 2
        assert main(["infer", driving_path, str(data), "--mode", mode]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_feature_records_with_a_model(
        self, driving, driving_path, tmp_path, capsys, recursions, mode
    ):
        rng = np.random.default_rng(7)
        extractor = learn.LinearExtractor.init_random(3, 4, rng)
        model = tmp_path / "model.bin"
        learn.save_extractor(extractor, model)
        features = [rng.normal(size=(t, 4)) for t in self.LENGTHS]
        data = self.write(tmp_path / "features.jsonl", "features", features)
        assert main(["infer", driving_path, data, "--model", str(model), "--mode", mode]) == 0
        lengths = sorted(self.LENGTHS, reverse=True)
        assert recursions == [("layout", lengths), ("forward", lengths)]
        sequences = [extractor.extract(f) for f in features]
        assert capsys.readouterr().out == reference_csv(driving.compiled, sequences, mode)


def _near_half(m: int, side: int) -> float:
    """(m + 0.5)·1e-6, or its float neighbour below (side -1) or above (side 1)."""
    x = (m + 0.5) * 1e-6
    return float(np.nextafter(x, side * np.inf)) if side else x


CELL_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.builds(_near_half, st.integers(0, 10**7), st.sampled_from([-1, 0, 1])),
    st.builds(lambda j: j / 128, st.integers(0, 1280)),  # exact binary ties, as 0.0078125
    st.floats(-1e-6, 0.0),  # small negatives print -0.000000
    st.floats(10.0, 1e12),
    st.floats(),  # NaN, infinities and huge values take "%.6f" itself
)


class TestCsvCells:
    """The writer's cells are the bytes of "%.6f" % x, "," between, "\n" at each row's end."""

    @settings(max_examples=300)
    @given(values=st.lists(CELL_VALUES, min_size=1, max_size=40), columns=st.integers(1, 4))
    @example(values=[0.0078125, 0.0, -0.0, -1e-7, 12.5, 9.9999995, 1 + 1e-6], columns=1)
    def test_cells_are_percent_format_bytes(self, values, columns):
        rows = np.array(values * columns).reshape(-1, columns)
        text = _csv_cells(rows).tobytes().replace(b"\0", b"").decode()
        assert text == "".join(",".join("%.6f" % x for x in row) + "\n" for row in rows.tolist())


class TestTagAgreesWithAccept:
    PROB_ROWS = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)

    # the examples share tmp_path; each one rewrites the files it reads
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(st.lists(PROB_ROWS, min_size=1, max_size=6), min_size=1, max_size=8))
    def test_last_tag_row_holds_the_acceptance(self, driving, driving_path, tmp_path, records):
        data = tmp_path / "probs.jsonl"
        data.write_text("".join(json.dumps({"probs": r}) + "\n" for r in records))
        rows = {}
        for mode in ("accept", "tag"):
            out = tmp_path / f"{mode}.csv"
            assert main(["infer", driving_path, str(data), "--mode", mode, "--out", str(out)]) == 0
            rows[mode] = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows["tag"]) == sum(map(len, records))
        last = {}
        for k, _, *alpha in rows["tag"]:
            alpha = [float(v) for v in alpha]
            assert sum(alpha) == pytest.approx(1.0, abs=2e-6)
            last[int(k)] = alpha  # rows come in file order, so the last step wins
        # three values, each rounded to 6 decimals
        assert [int(k) for k, _ in rows["accept"]] == sorted(last)
        for k, value in rows["accept"]:
            mass = sum(last[int(k)][q] for q in driving.compiled.accepting)
            assert mass == pytest.approx(float(value), abs=2e-6)


class TestStreamedInput:
    """A record's JSON lists die once its array is built, so peaks follow the arrays kept."""

    @staticmethod
    def write(path, probs):
        path.write_text("".join(json.dumps({"probs": p.tolist()}) + "\n" for p in probs))
        return path, sum(p.nbytes for p in probs)

    @pytest.fixture(scope="class")
    def uniform_probs(self, tmp_path_factory):
        probs = np.random.default_rng(0).uniform(size=(2000, 30, 3))
        return self.write(tmp_path_factory.mktemp("streamed") / "probs.jsonl", probs)

    @pytest.fixture(scope="class")
    def drawn_probs(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        probs = [rng.uniform(size=(t, 3)) for t in rng.integers(1, 61, size=2000)]
        return self.write(tmp_path_factory.mktemp("streamed") / "drawn.jsonl", probs)

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", ["accept", "tag"])
    def test_infer_peak_is_below_four_times_the_arrays(
        self, driving_path, tmp_path, uniform_probs, drawn_probs, mode
    ):
        # 2,000 records of 30 steps, then of lengths drawn from 1–60
        out = str(tmp_path / "o.csv")
        for path, nbytes in (uniform_probs, drawn_probs):
            argv = ["infer", driving_path, str(path), "--mode", mode, "--out", out]
            code, peak = self.peak(lambda: main(argv))
            assert code == 0
            assert peak < 4 * nbytes, f"{path.name}: {peak / nbytes:.2f} x the records' float64 bytes"

    def test_training_load_peak_is_below_twice_the_features(self, tmp_path):
        data = tmp_path / "train.jsonl"
        argv = ["generate", "--pattern", "driving", "--length", "300",
                "--n-pos", "100", "--n-neg", "100", "--seed", "1", "--out", str(data)]
        assert main(argv) == 0
        sequences, peak = self.peak(lambda: _load_labeled(str(data)))
        nbytes = sum(s.features.nbytes for s in sequences)
        assert peak < 2 * nbytes, f"peak {peak / nbytes:.2f} x the feature bytes"


RECORD_KEYS = st.sampled_from(["probs", "features", "label", "step_labels"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)  # a usable row now and then
    | st.dictionaries(RECORD_KEYS, inner, max_size=4),
    max_leaves=16,
)


class TestAnyJsonlInput:
    """Whatever the JSON lines hold, infer and train exit 0, 1 or 2, an error in one line."""

    LINES = st.lists(st.dictionaries(RECORD_KEYS, JSON_VALUES, max_size=4) | JSON_VALUES, max_size=4)

    # the examples share tmp_path; each one rewrites the files it reads
    @settings(max_examples=90, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=LINES, mode=st.sampled_from(["accept", "tag"]))
    @example(lines=[{"probs": [[0.5, 0.5, 0.5]]}, {"probs": [[1.5, 0.0, 0.0]]}], mode="accept")
    def test_infer(self, driving_path, tmp_path, capsys, lines, mode):
        model = tmp_path / "model.bin"
        learn.save_extractor(learn.LinearExtractor(np.zeros((3, 3)), np.zeros(3)), model)
        extra = ("--model", str(model), "--mode", mode)
        code, err = self.check(driving_path, tmp_path, capsys, lines, "infer", *extra)
        if code == 2:  # every input error names its line or its record
            assert re.match(r"^error: (line|sequence) \d+: ", err), err

    @settings(max_examples=90, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=LINES)
    def test_train(self, driving_path, tmp_path, capsys, lines):
        extra = ("--out", str(tmp_path / "m.bin"), "--max-epochs", "2")
        self.check(driving_path, tmp_path, capsys, lines, "train", *extra)

    @staticmethod
    def check(driving_path, tmp_path, capsys, lines, command, *extra):
        data = tmp_path / "lines.jsonl"
        data.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code = main([command, driving_path, str(data), *extra])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        return code, err


class TestGenerate:
    def test_jsonl_to_stdout(self, capsys):
        rc = main(
            ["generate", "--pattern", "driving", "--length", "4", "--n-pos", "2",
             "--n-neg", "2", "--seed", "1"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        record = json.loads(lines[0])
        assert set(record) == {"features", "label", "clean_trace"}
        assert len(record["features"]) == 4

    def test_seeded_generation_reproducible(self, tmp_path):
        args = ["generate", "--pattern", "driving", "--length", "3", "--n-pos", "2",
                "--n-neg", "2", "--seed", "7"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_pattern(self, capsys):
        assert main(["generate", "--pattern", "nope"]) == 2

    def test_random_pattern_argument(self, capsys):
        assert main(["generate", "--pattern", "random:3x2:5", "--length", "4",
                     "--n-pos", "1", "--n-neg", "1"]) == 0

    @pytest.mark.parametrize(
        "pattern, message",
        [
            ("random:3x0", "random patterns need at least one symbol"),
            ("random:8x10:abc", "bad random pattern 'random:8x10:abc', want random:"),
            ("random:3x2:1:9", "bad random pattern 'random:3x2:1:9', want random:"),
        ],
        ids=["no-symbols", "non-integer-seed", "extra-field"],
    )
    def test_bad_random_pattern(self, capsys, pattern, message):
        for argv in (
            ["generate", "--pattern", pattern, "--length", "4", "--n-pos", "1", "--n-neg", "1"],
            ["bench", "--patterns", pattern, "--lengths", "4", "--repetitions", "1"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {message}"), captured.err


class TestTrainCli:
    def _make_dataset(self, tmp_path, capsys, length=5, n=20, seed=11):
        data = tmp_path / "train.jsonl"
        rc = main(
            ["generate", "--pattern", "driving", "--length", str(length),
             "--n-pos", str(n), "--n-neg", str(n), "--seed", str(seed),
             "--out", str(data)]
        )
        assert rc == 0
        return data

    def test_train_writes_checkpoint_and_loss_csv(self, driving_path, tmp_path, capsys):
        data = self._make_dataset(tmp_path, capsys)
        model = tmp_path / "model.bin"
        rc = main(
            ["train", driving_path, str(data), "--out", str(model),
             "--max-epochs", "4", "--seed", "0", "--learning-rate", "0.05"]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "epoch,loss,accuracy"
        assert len(out) == 5
        assert model.exists()

    def test_same_seed_same_checkpoint(self, driving_path, tmp_path, capsys):
        data = self._make_dataset(tmp_path, capsys)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        args = ["train", driving_path, str(data), "--max-epochs", "3", "--seed", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trained_model_drives_feature_inference(self, driving_path, tmp_path, capsys):
        data = self._make_dataset(tmp_path, capsys)
        model = tmp_path / "model.bin"
        assert main(["train", driving_path, str(data), "--out", str(model),
                     "--max-epochs", "25", "--learning-rate", "0.05", "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["infer", driving_path, str(data), "--model", str(model)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 41

    @pytest.mark.parametrize(
        "old, new",
        [("vars: tired, blocked, fast", "vars: blocked, tired, fast"), ("tired", "sleepy")],
        ids=["reordered", "renamed"],
    )
    def test_model_of_other_symbol_names_is_an_input_error(
        self, driving, driving_path, tmp_path, capsys, old, new
    ):
        data = self._make_dataset(tmp_path, capsys, n=4)
        model = tmp_path / "model.bin"
        train = ["train", driving_path, str(data), "--out", str(model), "--max-epochs", "1"]
        assert main(train) == 0
        # the same automaton over symbols in another order, or of another name
        other = tmp_path / "other.sfa"
        other.write_text(format_sfa(driving.sfa).replace(old, new))
        capsys.readouterr()
        assert main(["infer", str(other), str(data), "--model", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(list(driving.sfa.vocab.names)) in captured.err
        assert str(list(load_sfa(other).vocab.names)) in captured.err

    def test_config_file_overlay(self, driving_path, tmp_path, capsys):
        data = self._make_dataset(tmp_path, capsys)
        config = tmp_path / "run.conf"
        config.write_text("max_epochs = 2\nlearning_rate = 0.05\nseed = 3\n")
        model = tmp_path / "model.bin"
        rc = main(["train", driving_path, str(data), "--out", str(model),
                   "--config", str(config)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3  # header + 2 epochs

    def test_flag_beats_config(self, driving_path, tmp_path, capsys):
        data = self._make_dataset(tmp_path, capsys)
        config = tmp_path / "run.conf"
        config.write_text("max_epochs = 9\n")
        model = tmp_path / "model.bin"
        rc = main(["train", driving_path, str(data), "--out", str(model),
                   "--config", str(config), "--max-epochs", "2"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_unset_options_keep_the_library_defaults(
        self, driving_path, tmp_path, capsys, monkeypatch
    ):
        # the CLI passes only what a flag or the config file sets, so
        # TrainConfig's own defaults are the only ones
        from symfa import cli

        data = self._make_dataset(tmp_path, capsys)
        config = tmp_path / "run.conf"
        config.write_text("max_epochs = 9\nseed = 3\n")
        passed = []

        def config_spy(**kwargs):
            passed.append(kwargs)
            return learn.TrainConfig(**kwargs)

        def no_training(c, data, cfg):
            return learn.TrainResult(learn.LinearExtractor(np.zeros((3, 6)), np.zeros(3)))

        monkeypatch.setattr(cli, "TrainConfig", config_spy)
        monkeypatch.setattr(learn, "train", no_training)
        base = ["train", driving_path, str(data), "--out", str(tmp_path / "m.bin")]
        assert main(base) == 0
        assert main(base + ["--config", str(config), "--max-epochs", "2"]) == 0
        assert passed == [{}, {"max_epochs": 2, "seed": 3}]

    @pytest.mark.parametrize("label", [1.5, 0.9, -1, 2, "1", None, True, False, 1.0])
    def test_sequence_label_other_than_0_or_1_rejected(
        self, driving_path, tmp_path, capsys, label
    ):
        data = tmp_path / "train.jsonl"
        records = [{"features": [[0.5, -0.5]], "label": 1}, {"features": [[0.5, -0.5]], "label": label}]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc = main(["train", driving_path, str(data), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sequence 1:" in err and "0 or 1" in err
        assert not (tmp_path / "m.bin").exists()

    # JSON true, false and 1.0 compare equal to 1, 0 and 1; they are not labels
    @pytest.mark.parametrize("label", [1.7, True, False, 1.0])
    def test_step_label_matching_no_state_names_the_sequence(
        self, driving_path, tmp_path, capsys, label
    ):
        data = tmp_path / "train.jsonl"
        records = [
            {"features": [[0.5, -0.5], [0.1, 0.2]], "step_labels": [0, 1]},
            {"features": [[0.5, -0.5], [0.1, 0.2]], "step_labels": [None, label]},
        ]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc = main(["train", driving_path, str(data), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"sequence 1: label {label!r} at step 1 matches no state" in err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("key", ["label", "step_labels"])
    @pytest.mark.parametrize("second_length", [2, 3])
    def test_feature_width_differing_from_the_first_names_the_sequence(
        self, driving_path, tmp_path, capsys, key, second_length
    ):
        first = {"features": [[0.5, -0.5, 0.1, 0.2, 0.3, 0.4]] * 2}
        second = {"features": [[0.5, -0.5, 0.1]] * second_length}
        for record in (first, second):
            steps = len(record["features"])
            record[key] = 1 if key == "label" else [0] * steps
        data = tmp_path / "train.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in (first, second)))
        rc = main(["train", driving_path, str(data), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sequence 1: feature dimension 3 != extractor's 6" in err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-0.1"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_learning_rate_not_finite_and_non_negative_is_an_input_error(
        self, driving_path, tmp_path, capsys, rate, via
    ):
        data = self._make_dataset(tmp_path, capsys, n=4)
        config = tmp_path / "run.conf"
        config.write_text(f"learning_rate = {rate}\n")
        given = [f"--learning-rate={rate}"] if via == "flag" else ["--config", str(config)]
        model = tmp_path / "m.bin"
        rc = main(["train", driving_path, str(data), "--out", str(model), *given])
        assert rc == 2
        assert f"learning rate must be finite and >= 0, got {float(rate)}" in capsys.readouterr().err
        assert not model.exists()

    def test_negative_seed_is_an_input_error(self, driving_path, tmp_path, capsys):
        data = self._make_dataset(tmp_path, capsys, n=4)
        model = tmp_path / "m.bin"
        rc = main(["train", driving_path, str(data), "--out", str(model), "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not model.exists()

    def test_unknown_config_key_rejected(self, driving_path, tmp_path, capsys):
        data = self._make_dataset(tmp_path, capsys)
        config = tmp_path / "run.conf"
        config.write_text("momentum = 0.9\n")
        rc = main(["train", driving_path, str(data), "--out",
                   str(tmp_path / "m.bin"), "--config", str(config)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


class TestEndToEnd:
    def test_generate_train_infer_reaches_accuracy_bar(self, driving_path, tmp_path, capsys):
        train_file = tmp_path / "train.jsonl"
        test_file = tmp_path / "test.jsonl"
        for path, seed in ((train_file, 100), (test_file, 200)):
            assert main(
                ["generate", "--pattern", "driving", "--length", "10",
                 "--n-pos", "100", "--n-neg", "100", "--sigma", "0.3",
                 "--seed", str(seed), "--out", str(path)]
            ) == 0
        model = tmp_path / "model.bin"
        assert main(
            ["train", driving_path, str(train_file), "--out", str(model),
             "--learning-rate", "0.05", "--max-epochs", "60", "--seed", "0"]
        ) == 0
        capsys.readouterr()
        assert main(["infer", driving_path, str(test_file), "--model", str(model)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        predictions = [float(line.split(",")[1]) >= 0.5 for line in lines]
        labels = [
            bool(json.loads(raw)["label"])
            for raw in test_file.read_text().strip().splitlines()
        ]
        accuracy = sum(p == y for p, y in zip(predictions, labels)) / len(labels)
        assert accuracy >= 0.95


@pytest.mark.parametrize(
    "args, name",
    [
        (["generate", "--length", "-3"], "length"),
        (["generate", "--n-pos", "-1"], "n_pos"),
        (["generate", "--n-neg", "-1"], "n_neg"),
        (["bench", "--lengths", "-1"], "length"),
        (["bench", "--lengths", "4,0"], "length"),
        (["bench", "--lengths", "4", "--repetitions", "0"], "repetitions"),
        (["bench", "--lengths", "4", "--repetitions", "-2"], "repetitions"),
        (["bench", "--lengths", "4", "--batch-size", "0"], "batch_size"),
        (["generate", "--sigma", "-1"], "noise"),
        (["generate", "--sigma", "nan"], "noise"),
        (["generate", "--sigma", "inf"], "noise"),
        (["generate", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["bench", "--lengths", "4", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_sizes_out_of_range_are_an_input_error(capsys, args, name):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


class TestBenchCli:
    def test_csv_report(self, capsys):
        rc = main(["bench", "--patterns", "driving", "--lengths", "4",
                   "--batch-size", "4", "--repetitions", "1", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("pattern,states,symbols,length,engine")
        assert len(lines) == 3

    def test_unset_options_keep_the_library_defaults(self, tmp_path, capsys, monkeypatch):
        from symfa import bench

        config = tmp_path / "run.conf"
        config.write_text("repetitions = 2\n")
        used = []

        def fake_benchmark(patterns, lengths, engines, batch_size=3, repetitions=7, seed=0):
            used.append((batch_size, repetitions, seed))
            return bench.BenchReport([])

        monkeypatch.setattr(bench, "run_benchmark", fake_benchmark)
        assert main(["bench", "--lengths", "4"]) == 0
        assert main(["bench", "--lengths", "4", "--config", str(config), "--batch-size", "5"]) == 0
        assert used == [(3, 7, 0), (5, 2, 0)]


class TestMalformedRecords:
    """Records of the wrong JSON type exit 2 with one line naming the record."""

    GOOD = {"features": [[0.5, -0.5, 0.1, 0.2, 0.3, 0.4]], "step_labels": [0]}

    @staticmethod
    def run(driving_path, tmp_path, capsys, command, records, extra=()):
        data = tmp_path / "records.jsonl"
        data.write_text("".join(r + "\n" for r in records))
        argv = [command, driving_path, str(data), *extra]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.bin")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "m.bin").exists()
        return captured.err

    @pytest.mark.parametrize("line", ["null", "5", "true", '"features"', "[1, 2]"])
    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_line_that_is_not_an_object(self, driving_path, tmp_path, capsys, command, line):
        good = {"probs": [P1]} if command == "infer" else self.GOOD
        err = self.run(driving_path, tmp_path, capsys, command, [json.dumps(good), line])
        assert "line 2: " in err and "JSON object" in err

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_line_nested_too_deeply_for_the_decoder(self, driving_path, tmp_path, capsys, command):
        good = {"probs": [P1]} if command == "infer" else self.GOOD
        deep = '{"features": ' + "[" * 100_000 + "]" * 100_000 + "}"
        err = self.run(driving_path, tmp_path, capsys, command, [json.dumps(good), deep])
        assert "line 2: invalid JSON (maximum recursion depth exceeded" in err

    @pytest.mark.parametrize("labels", [5, "01", {"0": 0}, None])
    def test_step_labels_that_are_not_a_list(self, driving_path, tmp_path, capsys, labels):
        bad = {"features": [[0.5, -0.5, 0.1, 0.2, 0.3, 0.4]] * 2, "step_labels": labels}
        records = [json.dumps(self.GOOD), json.dumps(bad)]
        err = self.run(driving_path, tmp_path, capsys, "train", records)
        assert "sequence 1: step labels must be a list" in err

    @pytest.mark.parametrize("row", [[0.1, {"a": 1}, 0.3], [0.1, [0.2], 0.3], {"a": 1}])
    def test_non_number_in_probs(self, driving_path, tmp_path, capsys, row):
        records = [json.dumps({"probs": [P1]}), json.dumps({"probs": [P2, row]})]
        err = self.run(driving_path, tmp_path, capsys, "infer", records)
        assert "sequence 1: " in err

    def test_non_number_in_features_for_infer(self, driving_path, tmp_path, capsys):
        model = tmp_path / "model.bin"
        learn.save_extractor(learn.LinearExtractor(np.zeros((3, 2)), np.zeros(3)), model)
        records = [json.dumps({"features": [[0.1, 0.2]]}), json.dumps({"features": [[0.1, {"a": 1}]]})]
        extra = ("--model", str(model))
        err = self.run(driving_path, tmp_path, capsys, "infer", records, extra)
        assert "sequence 1: " in err and "numbers" in err

    @pytest.mark.parametrize(
        "features, message",
        [
            ([[0.1, 0.2, 0.3, 0.4, 0.5]], "sequence 1: feature dimension 5 != extractor's 4"),
            (5, "sequence 1: features must be a (steps, feature_dim) array"),
        ],
        ids=["too-wide", "not-a-matrix"],
    )
    def test_features_not_fitting_the_model_name_the_sequence(
        self, driving_path, tmp_path, capsys, features, message
    ):
        model = tmp_path / "model.bin"
        learn.save_extractor(learn.LinearExtractor(np.zeros((3, 4)), np.zeros(3)), model)
        records = [json.dumps({"features": [[0.1, 0.2, 0.3, 0.4]]}), json.dumps({"features": features})]
        extra = ("--model", str(model))
        err = self.run(driving_path, tmp_path, capsys, "infer", records, extra)
        assert message in err

    def test_non_number_in_features_for_train(self, driving_path, tmp_path, capsys):
        bad = {"features": [[0.5, -0.5, 0.1, {"a": 1}, 0.3, 0.4]], "step_labels": [0]}
        records = [json.dumps(self.GOOD), json.dumps(bad)]
        err = self.run(driving_path, tmp_path, capsys, "train", records)
        assert "sequence 1: " in err and "numbers" in err

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_first_bad_line_is_the_one_reported(self, driving_path, tmp_path, capsys, command):
        # a record the command cannot use comes before a line that is not JSON
        if command == "infer":
            good, unusable = {"probs": [P1]}, {"steps": 1}
        else:
            good, unusable = self.GOOD, {"features": self.GOOD["features"]}
        out = tmp_path / "out.csv"
        extra = ("--out", str(out)) if command == "infer" else ()
        records = [json.dumps(good), json.dumps(unusable), "{"]
        err = self.run(driving_path, tmp_path, capsys, command, records, extra)
        assert "sequence 1" in err and "line 3" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, kind", [(["0.5", "0.2", "0.9"], "strings"), ([True, False, True], "booleans")]
    )
    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_strings_and_booleans_are_not_numbers(
        self, driving_path, tmp_path, capsys, command, row, kind
    ):
        if command == "infer":
            key, good, bad = "probs", {"probs": [P1]}, {"probs": [row]}
        else:
            key, good, bad = "features", self.GOOD, {"features": [row + row], "step_labels": [0]}
        records = [json.dumps(good), json.dumps(bad)]
        err = self.run(driving_path, tmp_path, capsys, command, records)
        assert f"sequence 1: {key} must hold numbers only, not {kind}" in err

    def test_a_boolean_beside_numbers_reads_as_0_or_1(self, driving_path, tmp_path, capsys):
        data = tmp_path / "records.jsonl"
        data.write_text('{"probs": [[true, false, 1]]}\n{"probs": [[1, 0, 1]]}\n')
        assert main(["infer", driving_path, str(data)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].split(",")[1] == rows[1].split(",")[1]
