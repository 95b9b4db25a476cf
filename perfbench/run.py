"""Run one tagflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 36 --trace 0

Workloads: train_full, infer_full, pipeline_small (see workloads.py). The
inputs are generated from --seed before any clock starts. With --trace 0
the run prints every end-to-end metric; with --trace 1 it patches
tagflow's public functions, prints the per-layer metrics, a per-example
breakdown of the training step, and, when an untraced result for the same
workload and seed exists, the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Everything the run writes goes under .perfbench/ at the repository root;
the generated inputs and checkpoints are deleted when it ends, the result
and span files under .perfbench/results/ are kept.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _limit_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; numpy must not be loaded yet."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _blas_threads(np):
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (from OPENBLAS_NUM_THREADS)"


def machine(nproc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "blas": blas_name, "blas_threads": _blas_threads(np),
            "numpy": np.__version__, "python": platform.python_version()}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(rows):
    return "\n".join(f"  {name:<34}{value:>14.6g} {unit:<8}{note}" for name, value, unit, note in rows)


def main(argv=None):
    args = _parse(argv)
    nproc = _limit_blas_threads()
    if not (ROOT / "src" / "tagflow" / "__init__.py").is_file():
        print(f"error: tagflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import tagflow
    from tagflow import corpus

    from perfbench import datagen, tracer as tracing, workloads

    if Path(tagflow.__file__).resolve().parent != ROOT / "src" / "tagflow":
        print(f"error: imported tagflow from {tagflow.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}"
    work = ROOT / ".perfbench" / f"{stem}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = datagen.generate(w.corpus, args.seed, work / "data", exclude=corpus.load_stopwords())
        tracer = tracing.Tracer() if args.trace else None
        run = workloads.Run(w, args.seed, args.seconds, work, tracer)
        if tracer is None:
            run.run(paths)
        else:
            with tracer:
                tracing.install_tagflow(tracer)
                run.run(paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = machine(nproc)
    e2e = run.end_to_end()
    stats = run.report_rows()
    units = {name: unit for name, unit, *_ in workloads.END_TO_END}
    failed = len(run.failures)
    model = run.state.model
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"inputs: {len(run.state.train_records)} train / {len(run.state.test_records)} test rows, "
          f"vocabulary {model.vocab.size}, tags {len(model.tag_vocab)}, seq_len {model.config.seq_len}, "
          f"padded share train {run.padded_share['train']:.2f} test {run.padded_share['test']:.2f}")
    print("operations: " + ", ".join(f"{k} {len(v)}" for k, v in run.latencies.items()))
    print("end-to-end" + (" (traced)" if args.trace else "") + ", then medians, p90s and rates:")
    print(_table([(name, value, unit, f"n={n}") for name, value, unit, n in stats]
                 + [("error_rate", failed / run.attempted, "", f"attempted={run.attempted} failed={failed}")]))
    print(f"fingerprint: {run.fingerprint}")
    for failure in run.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": info, "end_to_end": e2e,
              "statistics": {name: {"value": value, "unit": unit, "n": n} for name, value, unit, n in stats},
              "attempted": run.attempted,
              "failed": failed, "failures": run.failures, "fingerprint": run.fingerprint}
    if args.trace:
        layer = tracing.per_layer_metrics(tracer, run.evaluated_examples)
        layer_units = {m: u for m, u, *_ in tracing.PER_LAYER}
        layer_units[tracing.FORWARD_CALLS[0]] = tracing.FORWARD_CALLS[1]
        print("per-layer (mean per call):")
        print(_table([(m, v, layer_units[m], f"calls={c}") for m, (v, c) in layer.items()]))
        split = tracing.breakdown(tracer, "op.train")
        examples = w.train_examples * len(run.latencies["train"])
        print(f"training example, traced: mean {sum(split.values()) / examples * 1e3:.3f} ms over all training "
              f"ops, p75 {e2e['train_step_ms_p75']:.3f} ms; the mean split by span self time "
              "(op.train and training.train are glue):")
        print(_table([(name, s / examples * 1e3, "ms", "")
                      for name, s in sorted(split.items(), key=lambda kv: -kv[1])]))
        untraced = results / f"{stem}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text("utf-8"))["statistics"]
            print("tracing overhead (traced - untraced, same seed):")
            print(_table([(name, value - base[name]["value"], unit, f"{(value / base[name]['value'] - 1):+.1%}")
                          for name, value, unit, _ in stats if name in base]))
        else:
            print(f"tracing overhead: run --trace 0 with --seed {args.seed} first to compare")
        record["per_layer"] = {m: {"value": v, "calls": c} for m, (v, c) in layer.items()}
        record["train_breakdown_ms_per_example"] = {k: s / examples * 1e3 for k, s in split.items()}
        tracer.write(results / f"{stem}-spans.json")
        metrics = {m: {"value": v, "unit": layer_units[m]} for m, (v, _) in layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name, *_ in workloads.END_TO_END}
    (results / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
