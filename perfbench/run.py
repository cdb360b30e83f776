"""cfmlab benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cfmlab is imported from its `src/`.
With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
traced pass of the workload's own phases gives the per-layer metrics and
the tracing overhead. Every line before the last is for people: the
environment, then a table of every metric with its unit. The last line is
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every operation and correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREADS = 1   # one BLAS thread: small matmuls run faster and steadier on it
THREAD_VARS = ("CFMLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_threads():
    """Must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=("train_short", "train_long", "sample_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_cfmlab():
    """The cfmlab modules of this checkout, or None when it has no sources."""
    src = ROOT / "src"
    if not (src / "cfmlab" / "__init__.py").is_file():
        return None
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import cfmlab
    from cfmlab import (checkpoint, cli, config, evaluate, flow, metrics,
                        numerics, sampler, synthdata, training)
    if Path(cfmlab.__file__).resolve().parent != src / "cfmlab":
        return None
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
        evaluate, flow, metrics, sampler, synthdata, training)}
    return SimpleNamespace(
        src=str(src), modules=modules, Tape=numerics.Tape, cli=cli, config=config,
        evaluate=evaluate, sampler=sampler, synthdata=synthdata,
        training=training,
        errors=(numerics.NumericError, checkpoint.CheckpointError,
                config.ConfigError))


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _table(values, specs, run, reference_s):
    lines = []
    for name, unit, better in specs:
        if name in values:
            raw = values.get("raw." + name)
            raw = "" if raw is None else f"raw {raw:.6g}"
            lines.append(f"  {name:<20} {values[name]:>14.6g} {unit:<8} "
                         f"{better + ' is better':<18} {raw}")
    lines.append(f"  sample_ms_* over {values.get('draws', 0)} draws in "
                 f"{values.get('rounds', 0)} rounds; "
                 f"{run.attempted} operations, {run.failed} failed")
    kernels = ", ".join(f"{kind} {values.get('kernel_ms.' + kind, 0.0):.4f} ms "
                        f"(reference {ref * 1e3:g} ms)"
                        for kind, ref in reference_s.items())
    lines.append(f"  calibration kernels, median: {kernels}")
    return lines


def main(argv=None):
    args = _parse(argv)
    _pin_threads()
    cf = _import_cfmlab()
    if cf is None:
        print(f"perfbench: no cfmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as wl
    from calibration import REFERENCE_S
    from layers import COUNTERS, SPAN_NAMES

    workload = wl.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = wl.Run(cf, workload, args.seed, args.seconds, bool(args.trace),
                 workdir, smoke=args.smoke)
    aborted = None
    try:
        run.execute()
    except wl.Abort as exc:
        aborted = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    run.finish()

    e2e = [(n, u, b) for n, u, b, _ in wl.END_TO_END] + list(wl.REPORTED)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"{workload.name}: {workload.why}")
    for line in _table(run.values, e2e, run, REFERENCE_S):
        print(line)
    if args.trace and aborted is None:
        v = run.values
        print(f"  {'per layer':<36} {'inclusive s':>12} {'self s':>12} {'calls':>8}")
        for name in SPAN_NAMES:
            print(f"    {name:<34} {v[name + '_s']:>12.6f} "
                  f"{v[name + '_self_s']:>12.6f} {v[name + '_calls']:>8}")
        for name, unit, *_ in COUNTERS + wl.TRACE_OVERHEAD:
            print(f"    {name:<34} {v[name]:>12.6g} {unit}")
    for err in run.errors:
        print(f"  error: {err}")
    if aborted:
        print(f"  aborted after: {aborted}")

    names = {n: u for n, u, *_ in (wl.per_layer() if args.trace else wl.END_TO_END)}
    correct = run.failed == 0 and aborted is None
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.values[n], "unit": u}
                    for n, u in names.items() if n in run.values},
    }
    print(json.dumps(result, default=float))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
