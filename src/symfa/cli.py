"""Command-line interface.

Results go to stdout as CSV (or JSON lines for datasets); files are only
written through explicit --out flags. Exit codes: 0 on success, 1 on
domain errors (invalid automaton, diverged training, unsatisfiable
pattern), 2 on usage, IO, and parse errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import automaton as automaton_mod
from . import bench as bench_mod
from . import learn as learn_mod
from .automaton import acceptance, forward  # noqa: F401  (perfbench/layers.py traces these names)
from .automaton import load_sfa, validate_and_compile
from .errors import InputError, SymfaError
from .learn import LabeledSequence, TrainConfig

# Keys a config file may set; a flag given on the command line wins over
# the file, the file wins over built-in defaults. Keys a subcommand does
# not use are ignored by it.
CONFIG_KEYS = {
    "learning_rate": float,
    "optimizer": str,
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "seed": int,
    "length": int,
    "n_pos": int,
    "n_neg": int,
    "sigma": float,
    "lengths": str,
    "repetitions": int,
}


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            if key not in CONFIG_KEYS:
                raise InputError(f"{path}:{lineno}: unknown config key '{key}'")
            try:
                values[key] = CONFIG_KEYS[key](value)
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: bad value {value!r} for '{key}'"
                ) from None
    return values


def _given(args, *keys: str) -> dict:
    """flag > config file; keys set by neither are left out, so the callee's defaults apply."""
    config = getattr(args, "_config_values", {})
    values = {}
    for key in keys:
        given = getattr(args, key, None)
        if given is not None:
            values[key] = given
        elif key in config:
            values[key] = config[key]
    return values


def _resolve(args, key: str, default):
    """flag > config file > default."""
    return _given(args, key).get(key, default)


def _output(args):
    """The --out file, opened for writing and closed on exit, or stdout."""
    return open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)


def _resolve_pattern(text: str, seed: int) -> bench_mod.PatternSpec:
    if text == "driving":
        return bench_mod.driving_pattern()
    if text == "events":
        return bench_mod.events_pattern()
    if text.startswith("random:"):
        shape, colon, pat_seed = text[len("random:") :].partition(":")
        try:
            # a wrong number of fields fails to unpack, a non-integer to convert
            num_states, num_symbols = map(int, shape.split("x"))
            pat_seed = int(pat_seed) if colon else seed
        except ValueError:
            raise InputError(
                f"bad random pattern '{text}', want random:<states>x<symbols>[:<seed>]"
            ) from None
        return bench_mod.random_pattern(num_states, num_symbols, pat_seed)
    if os.path.exists(text):
        sfa = load_sfa(text)
        return bench_mod.PatternSpec(os.path.splitext(os.path.basename(text))[0], sfa)
    raise InputError(
        f"unknown pattern '{text}': expected driving, events, random:QxV[:seed], or a file path"
    )


# --- subcommands -------------------------------------------------------------

def cmd_validate(args) -> int:
    sfa = load_sfa(args.sfa)
    compiled = validate_and_compile(sfa, complete=not args.no_complete)
    completed = ", ".join(compiled.completed_states) or "none"
    print(
        f"valid: {len(compiled.states)} states, {len(compiled.roots)} transitions, "
        f"deterministic and complete (synthesized self-loops: {completed})"
    )
    return 0


def cmd_compile(args) -> int:
    sfa = load_sfa(args.sfa)
    compiled = validate_and_compile(sfa)
    # every guard is extracted before any output, so a guard too deep to
    # extract writes nothing
    dumps = []
    for (src, dst) in sorted(compiled.guards):
        dumps.append(f"# {compiled.states[src]} -> {compiled.states[dst]}\n")
        dumps.append(compiled.guards[(src, dst)].dump(compiled.vocab.names) + "\n")
    with _output(args) as out:
        out.write("".join(dumps))
    return 0


def _records(path, convert):
    """convert(record) for each JSON-lines record of `path`, as its line is read.

    A record's decoded JSON dies with its line. A ValueError or InputError
    raised while converting record k becomes an InputError that names it,
    so the first bad record in file order is the one reported.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for k, record in enumerate(bench_mod.iter_sequences_jsonl(fh)):
            try:
                yield convert(record)
            except (InputError, ValueError) as exc:
                raise InputError(f"sequence {k}: {exc}") from None


def _sequence_probs(record, extractor, compiled) -> np.ndarray:
    """The record's (steps, vars) probabilities, their dtype and shape
    checked; cmd_infer range-checks every record's at once (_joined)."""
    if "probs" in record:
        ps = learn_mod.float_array(record["probs"], "probs")
    elif "features" in record:
        if extractor is None:
            raise ValueError("has features, not probs; pass --model to extract symbols")
        features = learn_mod.float_array(record["features"], "features")
        if features.shape == (0,):  # the zero-step sequence, as for probs
            features = features.reshape(0, extractor.feature_dim)
        if features.ndim != 2:
            raise ValueError("features must be a (steps, feature_dim) array")
        ps = extractor.extract(features)
    else:
        raise ValueError("has neither 'probs' nor 'features'")
    return automaton_mod.one_sequence(ps, len(compiled.vocab))


def _joined(compiled, records) -> tuple[np.ndarray, np.ndarray]:
    """The records' lengths, and their probabilities joined record-major
    into (V, steps), range-checked in one pass: a bad value names the
    first record that holds one, as a check per record would."""
    lengths = np.array([len(ps) for ps in records], dtype=np.intp)
    # (V, steps), record-major: np.take would first copy a transposed view
    joined = np.concatenate([np.empty((len(compiled.vocab), 0)), *(ps.T for ps in records)], 1)
    try:
        automaton_mod._check_probs(compiled, joined.T, 2)
    except InputError as exc:
        tol = automaton_mod.PROB_RANGE_TOL
        col = ((joined >= -tol) & (joined <= 1.0 + tol)).all(axis=0).argmin()
        # side="right": the records that end at col, zero-step ones too, come before it
        k = np.searchsorted(np.cumsum(lengths), col, side="right")
        raise InputError(f"sequence {k}: {exc}") from None
    return lengths, joined


@functools.cache
def _fraction_words() -> tuple[np.ndarray, ...]:
    """0 to 999 as 4-byte words: ".ddd" starts a cell's fraction, "ddd," ends the cell."""
    forms = (b".%03d", b"%03d,")
    return tuple(np.array([form % i for i in range(1000)]).view(np.uint32) for form in forms)


def _csv_cells(values: np.ndarray) -> np.ndarray:
    """Each row of `values` (..., C) as CSV: "%.6f" % x and "," per x, the last "," a "\n".

    The text is NUL-padded uint8 of shape values.shape[:-1] + (C * width,).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(values) * 1e6
        n = np.rint(y)
        # y is off the exact |x|·1e6 by at most y·2^-53, so n is the correctly
        # rounded count of millionths unless y lies within y·2^-52 of a half;
        # those cells, and non-finite or huge ones, take "%.6f" itself
        fix = ~(np.abs(y - n) + y * 2.0**-52 < 0.5)
    whole, frac = np.divmod(np.where(fix, 0, n).astype(np.int64), 1000000)
    fixes = ["%.6f" % x for x in values[fix].tolist()]
    digits = len(str(whole.max(initial=0)))
    width = max([digits + 9] + [len(s) + 1 for s in fixes])
    cells = np.zeros(values.shape + (width,), np.uint8)
    cells[..., -digits - 9] = np.signbit(values) * np.uint8(ord("-"))
    for j in range(digits):  # the whole part; its leading zeros stay NUL
        tens = whole // 10**j
        cells[..., -9 - j] = (tens % 10 + 48) * ((tens > 0) | (j == 0))
    words, (high, low) = cells[..., -8:].view(np.uint32), _fraction_words()
    words[..., 0], words[..., 1] = high[frac // 1000], low[frac % 1000]
    cells[fix, :-1] = np.array(fixes, f"S{width - 1}").view(np.uint8).reshape(-1, width - 1)
    cells[..., -1, -1] = ord("\n")
    return cells.reshape(values.shape[:-1] + (values.shape[-1] * width,))


def _labels(numbers) -> np.ndarray:
    """"n," for each n, as NUL-padded uint8 rows."""
    text = np.array([b"%d," % n for n in numbers], "S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _write_tag_rows(out, alphas: np.ndarray, packed, lengths) -> None:
    """Write a row "k,t," and the cells of alpha_t for each step t of each
    record k, in file order, about BLOCK_ROWS rows at a time.

    `alphas` holds the rows of one recursion over the records of
    `lengths`, in file order, packed as `packed` lays them out (see
    automaton._Packed), so record k is packed sequence place[k]. Each
    block's cells are gathered from it at the layout's rows, and its
    labels from one "k," and one "t," array.
    """
    ends = np.cumsum(lengths)  # one past each record's last row, record-major
    labels = _labels(range(len(lengths))), _labels(range(len(packed.widths)))
    for r0 in range(0, len(alphas), automaton_mod.BLOCK_ROWS):
        row = np.arange(r0, min(r0 + automaton_mod.BLOCK_ROWS, len(alphas)))
        k = np.searchsorted(ends, row, side="right")
        t = row - ends[k] + lengths[k]
        cells = _csv_cells(alphas[packed.row(packed.place[k], t)])
        text = np.concatenate([labels[0][k], labels[1][t], cells], axis=1)
        out.write(text.tobytes().translate(None, b"\0").decode())


def cmd_infer(args) -> int:
    """Acceptance or per-step state distributions of every record.

    Each line becomes its (steps, vars) array, its dtype and shape checked,
    as it is read; an empty list is the zero-step sequence. The records are
    then joined in file order into (V, steps) and range-checked in one
    pass, and a bad value names its record; when a later line cannot be
    read, the records before it are checked first. So the first bad record
    in file order is the one reported, and an input error writes nothing.
    Then the records are packed once, whatever their lengths, into the
    (V, R) rows of one batch, read from the joined array in the layout's
    row order through its one rule, each copy freed once the next is made,
    so at most two copies are held at once. One forward recursion runs
    that batch, and its rows are written in file order.
    """
    compiled = validate_and_compile(load_sfa(args.sfa))
    extractor = learn_mod.load_extractor(args.model, compiled.vocab.names) if args.model else None
    convert = functools.partial(_sequence_probs, extractor=extractor, compiled=compiled)
    records = []
    try:
        # extend keeps the records it appended before an error, and binds
        # no name that would keep the last one alive
        records.extend(_records(args.dataset, convert))
    except (InputError, ValueError):
        _joined(compiled, records)  # an earlier out-of-range record is reported first
        raise
    lengths, joined = _joined(compiled, records)
    del records
    packed = automaton_mod._Packed(lengths)
    probs = joined.take(packed.step_major(np.cumsum(lengths) - lengths), axis=1)
    del joined
    alphas = np.empty((probs.shape[1], compiled.num_states)) if args.mode == "tag" else None
    final = automaton_mod._run_forward(compiled, *automaton_mod._views(packed, probs), alphas)
    with _output(args) as out:
        if alphas is not None:
            out.write(f"index,step,{','.join(compiled.states)}\n")
            _write_tag_rows(out, alphas, packed, lengths)
            return 0
        values = (final @ automaton_mod._accepting_mask(compiled))[packed.place]
        out.write("index,acceptance\n")
        # one value a record: Python formats them faster than a numpy pass
        out.writelines(f"{k},{value:.6f}\n" for k, value in enumerate(values.tolist()))
    return 0


def _labeled(record) -> LabeledSequence:
    # `step_labels`, or a list-valued `label`, gives per-step labels;
    # LabeledSequence and train decide what a label is
    if "features" not in record:
        raise ValueError("training data needs 'features'")
    if "step_labels" in record:
        if record["step_labels"] is None:
            raise ValueError("step labels must be a list, got null")
        labels = {"step_labels": record["step_labels"]}
    elif "label" in record:
        key = "step_labels" if isinstance(record["label"], list) else "label"
        labels = {key: record["label"]}
    else:
        raise ValueError("training data needs 'label' or 'step_labels'")
    return LabeledSequence(record["features"], **labels)


def _load_labeled(path) -> list[LabeledSequence]:
    return list(_records(path, _labeled))


def cmd_train(args) -> int:
    compiled = validate_and_compile(load_sfa(args.sfa))
    data = _load_labeled(args.dataset)
    cfg = TrainConfig(
        **_given(args, "learning_rate", "optimizer", "batch_size", "max_epochs", "patience", "seed")
    )
    result = learn_mod.train(compiled, data, cfg)
    learn_mod.save_extractor(result.extractor, args.out, compiled.vocab.names)
    print("epoch,loss,accuracy")
    for rec in result.history:
        print(f"{rec.epoch},{rec.loss:.8f},{rec.metric:.4f}")
    return 0


def cmd_generate(args) -> int:
    seed = _resolve(args, "seed", 0)
    pattern = _resolve_pattern(args.pattern, seed)
    dataset = bench_mod.generate_dataset(
        pattern,
        length=_resolve(args, "length", 10),
        n_pos=_resolve(args, "n_pos", 100),
        n_neg=_resolve(args, "n_neg", 100),
        noise=_resolve(args, "sigma", bench_mod.DEFAULT_NOISE),
        seed=seed,
    )
    with _output(args) as out:
        bench_mod.write_dataset_jsonl(dataset, out)
    return 0


def cmd_bench(args) -> int:
    seed = _resolve(args, "seed", 0)
    patterns = [
        _resolve_pattern(text.strip(), seed) for text in args.patterns.split(",")
    ]
    lengths = [int(x) for x in str(_resolve(args, "lengths", "10,30")).split(",")]
    engines = [e.strip() for e in args.engines.split(",")]
    report = bench_mod.run_benchmark(
        patterns, lengths, engines, seed=seed, **_given(args, "batch_size", "repetitions")
    )
    with _output(args) as out:
        out.write(report.to_csv())
    return 0


# --- wiring ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built once per process.

    Parsing does not change it: each call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="symfa",
        description="Symbolic automata over uncertain symbol sequences: "
        "validate, compile, infer, train, generate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file overlay")

    p = sub.add_parser("validate", help="check determinism and completeness")
    p.add_argument("sfa", help="automaton description file")
    p.add_argument(
        "--no-complete",
        action="store_true",
        help="fail on uncovered interpretations instead of synthesizing self-loops",
    )
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compile", help="print each guard's decision diagram")
    p.add_argument("sfa")
    p.add_argument("--out", help="write the dump to a file instead of stdout")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("infer", help="acceptance or per-step state distributions")
    p.add_argument("sfa")
    p.add_argument("dataset", help="JSON-lines file with 'probs' or 'features' rows")
    p.add_argument("--mode", choices=("accept", "tag"), default="accept")
    p.add_argument("--model", help="extractor checkpoint for feature inputs")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="train a symbol extractor on labeled sequences")
    p.add_argument("sfa")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample a labeled synthetic dataset")
    p.add_argument(
        "--pattern",
        default="driving",
        help="driving | events | random:<states>x<symbols>[:<seed>] | path to .sfa",
    )
    p.add_argument("--length", type=int)
    p.add_argument("--n-pos", dest="n_pos", type=int)
    p.add_argument("--n-neg", dest="n_neg", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="time compiled vs enumerative acceptance")
    p.add_argument("--patterns", default="driving")
    p.add_argument("--lengths")
    p.add_argument("--engines", default="compiled,enumerative")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--repetitions", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config_values = _read_config(args.config) if args.config else {}
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
