"""Run the CLI end to end on two pinned configs and record the SHA-256
digests of what it writes, keyed by the numerical environment.

Each config runs `train-codec`, `train-generator`, `evaluate`, `evaluate
--self-eval` and `generate --count 3` in one fresh process at
`CFMLAB_THREADS=1`. The digests cover both checkpoints, both reports and
details files, the CSVs and sidecars, and the run records without their
wall-clock time and checkpoint paths. `tests/test_pinned_bytes.py` compares
a run with the digests recorded for its environment.

The bits depend on numpy and on the BLAS build and the kernels it picks for
the CPU, so the digests are keyed by `environment_key()`. A change that
moves bits on purpose runs this script and says why in CHANGES.md:

    python tests/record_digests.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DIGEST_FILE = Path(__file__).with_name("pinned_digests.json")
SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = {
    "short": {"dataset": {"n_clips": 96}, "codec": {"epochs": 3}, "flow": {"epochs": 3}},
    "long": {"dataset": {"n_clips": 96, "n_frames": 512, "n_onsets": 32},
             "codec": {"epochs": 1}, "flow": {"epochs": 1}},
}

# argv: config, out dir; each command writes to its own directory
_PIPELINE = """
import sys
from cfmlab.cli import main
cfg, out = sys.argv[1:]
ckpts = ["--checkpoint", f"{out}/train/codec.bin",
         "--checkpoint", f"{out}/train/generator.bin"]
for argv, where in ((["train-codec"], "train"),
                    (["train-generator", *ckpts[:2]], "train"),
                    (["evaluate", *ckpts], "eval"),
                    (["evaluate", "--self-eval", *ckpts[:2]], "self_eval"),
                    (["generate", "--count", "3", *ckpts], "generate")):
    if main([*argv, "--config", cfg, "--out", f"{out}/{where}"]):
        sys.exit(f"{argv[0]} failed")
"""

# every BLAS thread variable the CLI would otherwise take over unchanged
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _blas_config():
    """The BLAS library's configuration as it reports it at run time: a
    DYNAMIC_ARCH OpenBLAS names the kernel set it picked for this CPU,
    which numpy's build-time `show_config` does not."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return " ".join(fn().decode().split())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}, kernels unknown"


def environment_key():
    return f"numpy {np.__version__}; {_blas_config()}"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _digests(out):
    """Relative path -> SHA-256 of every file the pipeline wrote under `out`;
    a run record counts without its wall-clock time and checkpoint paths."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if name.endswith("_record.json"):
            record = json.loads(data)
            del record["wall_clock_s"], record["checkpoints"]
            data = json.dumps(record, sort_keys=True).encode()
        found[name] = _sha256(data)
    return found


def run_all(workdir):
    """Run every config's pipeline under `workdir`, the configs side by side
    in their own processes. Returns config name -> digests."""
    workdir = Path(workdir)
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(CFMLAB_THREADS="1", PYTHONPATH=str(SRC))
    procs = {}
    for name, payload in CONFIGS.items():
        (workdir / name).mkdir(parents=True)
        cfg = workdir / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", _PIPELINE, str(cfg), str(workdir / name)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=300)
        if proc.returncode:
            raise RuntimeError(f"config {name!r}: {err[-2000:]}")
    return {name: _digests(workdir / name) for name in CONFIGS}


def main():
    pinned = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        pinned[environment_key()] = run_all(tmp)
    DIGEST_FILE.write_text(json.dumps(pinned, sort_keys=True, indent=2) + "\n")
    print(f"{DIGEST_FILE}: recorded {environment_key()}")


if __name__ == "__main__":
    main()
