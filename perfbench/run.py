"""Desk benchmark for edsurrogate.

Run from the repository root:

    python3 perfbench/run.py --workload feds-tune --seed 0 --seconds 40 --trace 0

The workload's inputs come from --seed. The run repeats rounds for about
--seconds (at least three rounds, five when tracing). A round sets the
workload up (corpus, split, starting net) and then runs one pass of the
timed work on it, so drift in the machine's speed hits set-up and passes
alike; the previous round's corpus and outputs are dropped first, so peak
memory is one round's. The run reports the median set-up time and the
median pass time. The first pass's outputs go through every output check;
each later pass must write byte-identical files. With --trace 1 every
second round, starting with the first, records spans at the package's
module boundaries and the run reports the per-layer metrics; the rounds
between give the untraced time that the tracing overhead is measured
against.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics named in BENCHMARK.json. The lines before it give the
environment and every metric with its unit. Outputs, result.json and (when
tracing) spans.csv go to .perfbench_out/<workload>-trace<0|1>/.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3


def import_package():
    """Import edsurrogate from this checkout's src/ and nowhere else."""
    if not (SRC / "edsurrogate" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import edsurrogate

    if Path(edsurrogate.__file__).resolve().parent != SRC / "edsurrogate":
        raise SystemExit(f"error: edsurrogate imported from {edsurrogate.__file__}")


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "edsurrogate").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def _timed(tracer, run_id, fn, *args):
    """fn(*args) and its wall time, traced under run_id when tracer is set."""
    with tracer.recording(run_id) if tracer else contextlib.nullcontext():
        start = perf_counter()
        value = fn(*args)
        return value, perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    import tracer as tracing
    import workloads

    w = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    ops = set(workloads.operations(w, workloads.configs(w, seed)[1]))

    pass_dir = out / "pass"
    rounds = []  # one dict per round: setup_s, run_s, traced, failed operations
    reference = failed_ops = facts = error = None
    first_failures = []
    started = perf_counter()
    # Every second round is traced; tracing needs STEP_PASSES traced rounds.
    min_rounds = 2 * tracing.STEP_PASSES - 1 if tracer else MIN_ROUNDS
    while len(rounds) < min_rounds or (
        perf_counter() - started + statistics.median(r["setup_s"] + r["run_s"] for r in rounds)
        <= seconds
    ):
        k = len(rounds)
        traced = tracer is not None and k % 2 == 0
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        s = po = None  # the CLI never holds two corpora or two passes' outputs
        try:
            s, setup_s = _timed(
                tracer if traced else None, f"setup{k}", workloads.set_up, w, seed
            )
            po, run_s = _timed(
                tracer if traced else None, f"pass{k}", workloads.run_pass, s, pass_dir
            )
        except Exception:  # a round that raises fails all its operations
            error = traceback.format_exc()
            rounds.append({"setup_s": 0.0, "run_s": 0.0, "traced": traced, "failed": ops})
            break
        digest = workloads.output_digest(pass_dir)
        if reference is None:
            reference = digest
            failures = workloads.check_pass(s, po, pass_dir)
            failed_ops = {f.op for f in failures}
            first_failures = [f"{f.op}: {f.message}" for f in failures]
            facts = workloads.pass_facts(s, po, pass_dir)
        # A rerun writes the same bytes, so it shares the first pass's verdict.
        failed = failed_ops if digest == reference else ops
        rounds.append({"setup_s": setup_s, "run_s": run_s, "traced": traced, "failed": failed})

    attempted = sum(len(ops | r["failed"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "setup_s_samples": [r["setup_s"] for r in rounds],
        "run_s_samples": [r["run_s"] for r in rounds],
        "traced_rounds": [r["traced"] for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": first_failures[:20] + ([error] if error else []),
        "correct": failed == 0 and error is None,
        "end_to_end": {},
        "per_layer": {},
    }
    if error is not None:
        return result
    untraced = [r for r in rounds if not r["traced"]]
    if not trace:
        result["end_to_end"] = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "run_s": statistics.median(r["run_s"] for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "heldout_ted": facts["heldout_ted"],
            "in_band_frac": facts["in_band_frac"],
            "failed_frac": result["failed_frac"],
        }
    else:
        traced_ks = [k for k, r in enumerate(rounds) if r["traced"]]
        setups = [tracing.summarize(tracer.spans, f"setup{k}") for k in traced_ks]
        summaries = [tracing.summarize(tracer.spans, f"pass{k}") for k in traced_ks]
        per_layer, tails = tracing.per_layer_metrics(setups, summaries, facts)
        per_layer["trace.overhead_ratio"] = statistics.median(
            rounds[k]["run_s"] for k in traced_ks
        ) / statistics.median(r["run_s"] for r in untraced)
        result["per_layer"] = per_layer
        result["step_tails"] = tails
        tracer.write_csv(out / "spans.csv")
    return result


def contract_line(result: dict, spec: dict) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json names."""
    if result["trace"]:
        names, values = spec["per_layer"], result["per_layer"]
    else:
        names, values = spec["end_to_end"], result["end_to_end"]
    metrics = {}
    if values:  # empty when a pass raised
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out)
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    line = contract_line(result, spec)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(result['run_s_samples'])}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(heldout_ted="count", in_band_frac="fraction", failed_frac="fraction")
    for name, value in {**result["end_to_end"], **result["per_layer"]}.items():
        print(f"{name:42s} {value!r} {units.get(name, '')}")
    for failure in result["failures"]:
        print("FAILED " + failure)
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
