"""
Full-scale training run and variant comparison
==============================================

Trains the emotion-flow variant and the class-weighted plain variant at
full published scale on the complete corpus, then scores both on the
test split at k = 3, 5, 10.  This is the documented long run: at desk
scale it takes hours (the forward/backward passes are pure numpy), so it
is opt-in and never part of the regular test suite.

    python demos/full_scale_run.py corpus.csv nrc_lexicon.txt --out runs/full

Each variant is trained and scored by the command line itself, exactly
as ``tagflow train`` and ``tagflow evaluate`` would run it, into
``<out>/<variant>/``; without ``--out`` the runs go to a temporary
directory.

Exact reproduction of the published table is not expected — random
initialization, an unreported batch size, and framework differences all
move the third digit — but the run targets micro-F1 within a few points
of it, a tag diversity of 55+ tags at k=5, and the directional result
that the emotion-flow variant learns more tags than class weighting
alone under the same seed and budget.
"""

import argparse
import tempfile
from pathlib import Path

from tagflow.cli import main as tagflow
from tagflow.metrics import MetricsReport

VARIANTS = ("cnn_fe", "cnn_cw")


def _tagflow(*argv):
    status = tagflow([str(a) for a in argv])
    if status != 0:
        raise SystemExit(f"tagflow {argv[0]} exited {status}")


def run(corpus_path, lexicon_path, out_dir=None, seed=0, k_values=(3, 5, 10)):
    """Train both variants and return ``{variant: {k: MetricsReport}}``."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(out_dir or scratch)
        results = {}
        for variant in VARIANTS:
            run_dir = root / variant
            print(f"\n=== {variant}: training (this is the slow part) ===")
            _tagflow("train", "--corpus", corpus_path, "--lexicon", lexicon_path,
                     "--variant", variant, "--seed", seed, "--out", run_dir)
            _tagflow("evaluate", "--checkpoint", run_dir / "model.ckpt", "--corpus", corpus_path,
                     "--lexicon", lexicon_path, "--k", ",".join(map(str, k_values)), "--out", run_dir)
            results[variant] = {
                k: MetricsReport.from_json((run_dir / f"metrics_k{k}.json").read_text(encoding="utf-8"))
                for k in k_values
            }

    flow_tl = results["cnn_fe"][5].tags_learned
    weighted_tl = results["cnn_cw"][5].tags_learned
    print(f"\ntags learned at k=5: emotion-flow {flow_tl} vs class-weighted {weighted_tl}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("corpus", help="full corpus CSV")
    parser.add_argument("lexicon", help="word-emotion association lexicon")
    parser.add_argument("--out", help="directory for checkpoints, logs, and metrics")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run(args.corpus, args.lexicon, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    main()
