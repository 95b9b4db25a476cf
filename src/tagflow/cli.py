"""Command-line entry point.

Subcommands: train, predict, evaluate, baselines, compare, emotion-flow.
Configuration precedence is command line > config file > defaults; the
fully resolved configuration is written next to every training run so the
run can be re-executed from that file alone.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 runtime numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    EncodedExample,
    Split,
    TagVocabulary,
    _encode_text,
    build_vocabulary,
    encode_records,
    load_corpus,
    load_stopwords,
    make_target,
    validation_split,
)
# Not called here (_encode_text tokenizes once for both views), but kept
# bound: perfbench's tracer patches these names in this module too.
from .corpus import encode_synopsis, preprocess  # noqa: F401
from .emotion import DEFAULT_SEGMENTS, emotion_flow, flow_to_csv, load_lexicon
from .errors import ConfigError, DataError, NumericError, check_keys, open_text
from .metrics import (
    baseline_most_frequent,
    baseline_random,
    evaluate_predictions,
    prediction_overlap,
    recall_delta,
)
from .model import MAX_INPUT_ROWS, VARIANTS, ModelConfig, build_model, load_pretrained_embeddings, predict_top_k
from .training import TrainConfig, evaluate_loss, train


@dataclass
class RunConfig:
    """Fully resolved inputs for one command invocation."""

    model: ModelConfig
    train: TrainConfig
    corpus: str | None = None
    lexicon: str | None = None
    embeddings: str | None = None
    out: str | None = None


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


@contextmanager
def _stage(name):
    """Prefix pipeline errors with the stage that raised them."""
    try:
        yield
    except (ConfigError, DataError, NumericError) as e:
        raise type(e)(f"[{name}] {e}") from None
    except OSError as e:
        raise DataError(f"[{name}] {e}") from None


def _load_config_file(path):
    with open_text(path, error=ConfigError) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _apply_set_overrides(doc, assignments):
    """Apply repeated ``--set section.key=value`` (or ``key=value``) pairs."""
    for assignment in assignments or ():
        if "=" not in assignment:
            raise ConfigError(f"--set expects key=value, got '{assignment}'")
        key, _, raw = assignment.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set key '{key}' does not name a config section")
        target[parts[-1]] = value
    return doc


def _resolve_run_config(args):
    """The run's configuration, and the model keys that the file or ``--set`` gave."""
    doc = _load_config_file(args.config) if args.config else {}
    _apply_set_overrides(doc, args.set)
    check_keys(doc, RunConfig, "config")
    for key in ("model", "train"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"config key '{key}' must be an object, got {doc[key]!r}")
    paths = {key: getattr(args, key) or doc.get(key) for key in ("corpus", "lexicon", "embeddings", "out")}
    for key, path in paths.items():
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"config key '{key}' must be a path string, got {path!r}")
    model_doc = dict(doc.get("model", {}))
    given = set(model_doc)
    train_doc = dict(doc.get("train", {}))
    if args.variant:
        model_doc["variant"] = args.variant
    if args.seed is not None:
        model_doc["seed"] = args.seed
        train_doc["seed"] = args.seed
    with _stage("model"):
        model_config = ModelConfig.from_dict(model_doc)
    with _stage("train"):
        train_config = TrainConfig.from_dict(train_doc)
    return RunConfig(model=model_config, train=train_config, **paths), given


def _parse_k_list(text):
    try:
        ks = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--k expects integers, got '{text}'") from None
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"--k expects positive integers, got '{text}'")
    for i, k in enumerate(ks):
        if k in ks[:i]:
            raise ConfigError(f"--k repeats {k} in '{text}'")
    return ks


def _check_ks(ks, n_tags):
    """Reject any k above the tag count before a command does any work."""
    if max(ks) > n_tags:
        raise ConfigError(f"--k must be in [1, {n_tags}]")
    return ks


def _read_input_texts(args):
    """(movie_id, text) pairs from --text or --input (TSV id<TAB>text or raw lines)."""
    if args.text is not None:
        if not args.text.strip():
            raise ConfigError("--text is blank")
        return [("input-1", args.text)]
    if args.input:
        pairs = []
        first_line = {}
        with open_text(args.input) as f:
            for i, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if "\t" in line:
                    movie_id, _, text = line.partition("\t")
                    if not text.strip():
                        raise DataError(f"{args.input}: line {i}: movie '{movie_id}' has a blank text")
                else:
                    movie_id, text = f"input-{i}", line
                if movie_id in first_line:
                    raise DataError(f"{args.input}: line {i}: movie id '{movie_id}' "
                                    f"repeats line {first_line[movie_id]}")
                first_line[movie_id] = i
                pairs.append((movie_id, text))
        if not pairs:
            raise DataError(f"{args.input}: no input texts found")
        return pairs
    raise ConfigError("provide --text or --input")


def _write_or_print(text, out_path):
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _write_report(report, out_dir, name, label=""):
    """Print the report's summary line; with ``out_dir``, also write it to ``<name>.json`` there."""
    print(label + report.summary_line())
    if out_dir:
        _write_or_print(report.to_json(), Path(out_dir) / f"{name}.json")


def _prediction_text(rows, tag_vocab):
    """One ``movie_id<TAB>rank<TAB>tag<TAB>probability`` line per ranked tag of
    each ``(movie_id, ranked, probs)`` row."""
    return "".join(
        f"{movie_id}\t{rank}\t{tag}\t{float(probs[tag_vocab.index(tag)]):.6f}\n"
        for movie_id, ranked, probs in rows
        for rank, tag in enumerate(ranked, start=1)
    )


def _load_prediction_file(path):
    """Read line-delimited (movie_id, rank, tag, probability) records, as ``predict`` writes them:
    each movie's ranks are 1..n and every probability is a number in [0, 1]."""
    by_movie = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 tab-separated fields")
            movie_id, rank, tag, prob = parts
            try:
                rank = int(rank)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: rank '{parts[1]}' is not an integer") from None
            if rank < 1:
                raise DataError(f"{path}: line {lineno}: rank {rank} is below 1")
            try:
                prob_ok = 0.0 <= float(prob) <= 1.0
            except ValueError:
                prob_ok = False
            if not prob_ok:
                raise DataError(f"{path}: line {lineno}: probability '{prob}' is not a number in [0, 1]")
            ranked = by_movie.setdefault(movie_id, {})
            if rank in ranked or tag in ranked.values():
                what = f"rank {rank}" if rank in ranked else f"tag '{tag}'"
                raise DataError(f"{path}: line {lineno}: movie '{movie_id}' repeats {what}")
            ranked[rank] = tag
    if not by_movie:
        raise DataError(f"{path}: no prediction records found")
    for movie, ranked in by_movie.items():
        if max(ranked) != len(ranked):
            missing = min(set(range(1, len(ranked) + 1)) - set(ranked))
            raise DataError(f"{path}: movie '{movie}' has rank {max(ranked)} but no rank {missing}")
    return {movie: [ranked[rank] for rank in range(1, len(ranked) + 1)] for movie, ranked in by_movie.items()}


def _model_inputs(model, text, stopwords, lexicon):
    """Encode one raw synopsis with the model's own vocabularies."""
    return _encode_text(text, model.vocab, stopwords, lexicon if model.config.uses_flow else None,
                        model.config.seq_len, model.config.n_segments)


def _probabilities(model, movie_id, tokens, flow, conv=None):
    """The model's tag probabilities for one example, given its conv features
    if already computed; NumericError if any is not finite."""
    probs = model.forward(tokens, flow, conv=conv).data
    if not np.isfinite(probs).all():
        raise NumericError(f"non-finite tag probability for movie '{movie_id}'")
    return probs


def _require(value, flag, why):
    if not value:
        raise ConfigError(f"{flag} is required {why}")
    return value


def _load_model(args):
    path = _require(args.checkpoint, "--checkpoint", "to load a model")
    with _stage("checkpoint"):
        model = load_checkpoint(path)
    if model.vocab is None or model.tag_vocab is None:
        raise DataError(f"{path}: checkpoint lacks vocabularies; cannot encode inputs")
    return model


def _read_corpus(path, need=()):
    """Parse the corpus once; return its (train, test) records.

    Raises DataError when a split named in ``need`` has no records.
    """
    with _stage("corpus"):
        records = load_corpus(path)
        splits = {split: [r for r in records if r.split is split] for split in Split}
        for split in need:
            if not splits[split]:
                raise DataError(f"{path}: corpus has no {split.value} records")
    return splits[Split.TRAIN], splits[Split.TEST]


def _read_lexicon(path, config=None):
    """The lexicon at ``path``, or None when ``config``'s variant has no flow
    branch; without a ``config`` (``emotion-flow``) it is always needed."""
    if config is not None and not config.uses_flow:
        return None
    why = f"for variant '{config.variant}'" if config is not None else "to score emotions"
    with _stage("lexicon"):
        return load_lexicon(_require(path, "--lexicon", why))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args):
    run, given = _resolve_run_config(args)
    if run.model.lr != ModelConfig.lr:
        print(f"warning: model.lr={run.model.lr!r} is ignored; train.lr sets RMSprop's learning rate",
              file=sys.stderr)
    corpus_path = _require(run.corpus, "--corpus", "to train")
    out_dir = Path(_require(run.out, "--out", "to store the checkpoint"))
    if run.model.variant == "cnn_fe_pretrained":
        _require(run.embeddings, "--embeddings", "for variant 'cnn_fe_pretrained'")
    lexicon = _read_lexicon(run.lexicon, run.model)

    train_records, _ = _read_corpus(corpus_path, need=(Split.TRAIN,))
    with _stage("corpus"):
        stopwords = load_stopwords()
        vocab = build_vocabulary(train_records, max_words=run.model.vocab_size, stopwords=stopwords)
        tag_vocab = TagVocabulary.from_records(train_records)
    if "n_tags" in given and run.model.n_tags != len(tag_vocab):
        raise ConfigError(f"model.n_tags is {run.model.n_tags}, but the training split "
                          f"of {corpus_path} has {len(tag_vocab)} tags")
    run.model = replace(run.model, n_tags=len(tag_vocab), vocab_size=vocab.size)

    with _stage("encode"):
        examples = encode_records(
            train_records, vocab, tag_vocab, stopwords,
            lexicon=lexicon, max_len=run.model.seq_len, n_segments=run.model.n_segments,
        )
        train_examples, val_examples = validation_split(examples, seed=run.train.seed)
    if not val_examples:
        raise DataError(f"{corpus_path}: {len(train_records)} train records are too few "
                        f"to hold out a validation set")

    with _stage("model"):
        model = build_model(run.model)
        model.vocab = vocab
        model.tag_vocab = tag_vocab
        if run.model.variant == "cnn_fe_pretrained":
            coverage = load_pretrained_embeddings(run.embeddings, vocab, model.embedding)
            print(f"pretrained embedding coverage: {coverage:.1%}")

    with _stage("train"):
        model, history = train(model, train_examples, val_examples, run.train)

    # Nothing reaches out_dir before training succeeds, so a failed run
    # leaves an earlier run's files there as they were.
    with _stage("checkpoint"):
        _write_or_print(json.dumps(asdict(run), indent=2) + "\n", out_dir / "config.json")
        history.write_log(out_dir / "history.jsonl")
        save_checkpoint(model, out_dir / "model.ckpt")
    best = history.epochs[history.best_epoch - 1]
    print(f"trained {len(history.epochs)} epochs; best epoch {history.best_epoch} "
          f"(val_loss {best.val_loss:.4f})")
    print(f"wrote {out_dir / 'model.ckpt'}")
    return 0


def cmd_predict(args):
    model = _load_model(args)
    k = _check_ks(_parse_k_list(args.k), model.config.n_tags)
    if len(k) != 1:
        raise ConfigError("predict takes a single --k")
    k = k[0]
    lexicon = _read_lexicon(args.lexicon, model.config)
    stopwords = load_stopwords()
    rows = []
    with _stage("predict"):
        for movie_id, text in _read_input_texts(args):
            tokens, flow = _model_inputs(model, text, stopwords, lexicon)
            probs = _probabilities(model, movie_id, tokens, flow)
            rows.append((movie_id, predict_top_k(probs, k, model.tag_vocab), probs))
    _write_or_print(_prediction_text(rows, model.tag_vocab), args.out)
    return 0


def cmd_evaluate(args):
    model = _load_model(args)
    ks = _check_ks(_parse_k_list(args.k), model.config.n_tags)
    lexicon = _read_lexicon(args.lexicon, model.config)
    corpus_path = _require(args.corpus, "--corpus", "to evaluate")
    _, test_records = _read_corpus(corpus_path, need=(Split.TEST,))
    with _stage("corpus"):
        truths = {r.movie_id: set(r.tags) for r in test_records}
        stopwords = load_stopwords()
        inputs = [_model_inputs(model, r.synopsis, stopwords, lexicon) for r in test_records]

    with _stage("evaluate"):
        prob_rows, kl_total, n_scored = {}, 0.0, 0
        for r, (tokens, flow) in zip(test_records, inputs):
            # one conv per movie feeds both its probabilities and its KL
            conv = model.conv_features(tokens).data
            prob_rows[r.movie_id] = _probabilities(model, r.movie_id, tokens, flow, conv)
            # the KL needs a target, so movies with no training tag are ranked and scored but not in it
            if any(tag in model.tag_vocab for tag in r.tags):
                example = EncodedExample(r.movie_id, tokens, make_target(r.tags, model.tag_vocab), flow, r.tags)
                # a plain running sum in input order, as evaluate_loss keeps over a list
                kl_total += evaluate_loss(model, [example], conv=[conv])
                n_scored += 1
        mean_kl = kl_total / n_scored if n_scored else None
        for k in ks:
            preds = {
                movie: predict_top_k(probs, k, model.tag_vocab)
                for movie, probs in prob_rows.items()
            }
            report = evaluate_predictions(
                preds, truths, model.tag_vocab, k,
                metadata={"variant": model.config.variant, "mean_kl": mean_kl,
                          "n_movies": len(preds)},
            )
            _write_report(report, args.out, f"metrics_k{k}")
            if args.out:
                rows = ((movie, ranked, prob_rows[movie]) for movie, ranked in preds.items())
                _write_or_print(_prediction_text(rows, model.tag_vocab),
                                Path(args.out) / f"predictions_k{k}.tsv")
    return 0


def cmd_baselines(args):
    corpus_path = _require(args.corpus, "--corpus", "to compute baselines")
    ks = _parse_k_list(args.k)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    train_records, test_records = _read_corpus(corpus_path, need=(Split.TRAIN, Split.TEST))
    tag_vocab = TagVocabulary.from_records(train_records)
    _check_ks(ks, len(tag_vocab))
    truths = {r.movie_id: set(r.tags) for r in test_records}
    movie_ids = [r.movie_id for r in test_records]

    for k in ks:
        frequent = baseline_most_frequent(train_records, tag_vocab, k, movie_ids)
        random_preds = baseline_random(tag_vocab, movie_ids, k, args.seed)
        for name, preds in (("most_frequent", frequent), ("random", random_preds)):
            report = evaluate_predictions(
                preds, truths, tag_vocab, k,
                metadata={"baseline": name, "seed": args.seed if name == "random" else None,
                          "n_movies": len(preds)},
            )
            _write_report(report, args.out, f"{name}_k{k}", label=f"{name:>14}  ")
    return 0


def cmd_compare(args):
    corpus_path = _require(args.corpus, "--corpus", "to score both prediction sets")
    with _stage("predictions"):
        preds_a = _load_prediction_file(args.preds_a)
        preds_b = _load_prediction_file(args.preds_b)
    train_records, test_records = _read_corpus(corpus_path)
    tag_vocab = TagVocabulary.from_records(train_records)
    truths = {r.movie_id: set(r.tags) for r in train_records + test_records}

    with _stage("compare"):
        try:
            overlaps, bands = prediction_overlap(preds_a, preds_b)
            k = len(next(iter(preds_a.values())))
            report_a = evaluate_predictions(preds_a, truths, tag_vocab, k, metadata={"file": args.preds_a})
            report_b = evaluate_predictions(preds_b, truths, tag_vocab, k, metadata={"file": args.preds_b})
        except DataError as e:
            raise DataError(f"{args.preds_a} vs {args.preds_b}: {e}") from None
        deltas = recall_delta(report_a, report_b)

    print("prediction overlap bands (fraction of movies):")
    for band, fraction in bands.items():
        print(f"  {band:>7}: {fraction:.1%}")
    shown = [d for d in deltas if d[1] != 0.0][:20]
    print(f"largest per-tag recall changes (a - b), top {len(shown)}:")
    for tag, delta in shown:
        print(f"  {delta:+.4f}  {tag}")
    if args.out:
        payload = {
            "overlap_bands": bands,
            "per_movie_overlap": overlaps,
            "recall_delta": [{"tag": t, "delta": d} for t, d in deltas],
            "micro_f1_a": report_a.micro_f1,
            "micro_f1_b": report_b.micro_f1,
        }
        _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_emotion_flow(args):
    if not 1 <= args.n_segments <= MAX_INPUT_ROWS:
        raise ConfigError(f"--n-segments must be in [1, {MAX_INPUT_ROWS}], got {args.n_segments}")
    lexicon = _read_lexicon(args.lexicon)
    pairs = _read_input_texts(args)
    if len(pairs) != 1:
        raise ConfigError(f"{args.input}: emotion-flow takes exactly one text, found {len(pairs)}")
    with _stage("emotion"):
        flow = emotion_flow(pairs[0][1], lexicon, args.n_segments)
    _write_or_print(flow_to_csv(flow), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(command, *flags):
    if "config" in flags:
        command.add_argument("--config", help="JSON config file")
        command.add_argument("--set", action="append", metavar="KEY=VALUE",
                             help="override one config key (e.g. model.lstm_units=8); repeatable")
    if "corpus" in flags:
        command.add_argument("--corpus", help="delimiter-separated corpus file")
    if "lexicon" in flags:
        command.add_argument("--lexicon", help="word-emotion association file")
    if "checkpoint" in flags:
        command.add_argument("--checkpoint", help="model checkpoint path")
    if "out" in flags:
        command.add_argument("--out", help="output file or directory")
    if "input" in flags:
        source = command.add_mutually_exclusive_group()
        source.add_argument("--text", help="one synopsis given inline")
        source.add_argument("--input", help="file of synopses (movie_id<TAB>text or one text per line)")


def build_parser():
    parser = _Parser(prog="tagflow", description="Movie-tag prediction from plot synopses.")
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser("train", help="train a model and write a checkpoint")
    _add_common(p, "config", "corpus", "lexicon", "out")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--variant", help="model variant", choices=VARIANTS)
    p.add_argument("--embeddings", help="pretrained word-vector text file")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="rank tags for new synopses")
    _add_common(p, "checkpoint", "lexicon", "out", "input")
    p.add_argument("--k", default="5", help="top-k cutoff")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("evaluate", help="score a checkpoint on the test split")
    _add_common(p, "checkpoint", "corpus", "lexicon", "out")
    p.add_argument("--k", default="3,5,10", help="top-k cutoffs, comma-separated")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("baselines", help="most-frequent and random baselines")
    _add_common(p, "corpus", "out")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--k", default="3,5,10", help="top-k cutoffs, comma-separated")
    p.set_defaults(func=cmd_baselines)

    p = commands.add_parser("compare", help="contrast two prediction files")
    p.add_argument("preds_a", help="first prediction file (tsv)")
    p.add_argument("preds_b", help="second prediction file (tsv)")
    _add_common(p, "corpus", "out")
    p.set_defaults(func=cmd_compare)

    p = commands.add_parser("emotion-flow", help="export a synopsis's emotion trajectory")
    _add_common(p, "lexicon", "out", "input")
    p.add_argument("--n-segments", type=int, default=DEFAULT_SEGMENTS,
                   help="number of narrative segments")
    p.set_defaults(func=cmd_emotion_flow)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help(sys.stderr)
            return 1
        # every value that reaches an output is checked for finiteness (exit 3),
        # so a numpy floating-point warning would only print a line of source
        with np.errstate(all="ignore"):
            return args.func(args) or 0
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
