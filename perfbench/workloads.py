"""The benchmark's workloads and the pipeline every one of them runs.

Each workload is one closed loop with a single caller: set up (imports,
dataset, and for `sample_eval` the checkpoint load), train stage 1 and
stage 2 and save both checkpoints, load them back, then for `--seconds`
repeat rounds of training, evaluating the test split and drawing single
samples the way `cfmlab generate` does. Every workload runs every phase so
that it reports every end-to-end metric; the phases a workload exists to
stress are the ones a traced run traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from calibration import Calibration, scaled
from layers import STAGE1, STAGE2, LayerProbe, layer_metrics
from spans import Tracer, summarize

# End-to-end metrics gated by BENCHMARK.json: (name, unit, better, bound).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("stage1_clips_per_s", "clips/s", "higher", 0.2),
    ("stage2_clips_per_s", "clips/s", "higher", 0.2),
    ("stage2_final_loss", "loss", "lower", 0.2),
    ("eval_clips_per_s", "clips/s", "higher", 0.2),
    ("sample_ms_p50", "ms", "lower", 0.2),
    ("sample_ms_p90", "ms", "lower", 0.25),
    ("bc", "score", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Reported in every run and listed as per-layer metrics, but not gated: the
# first two vary across seeds by more than any allowed bound, and the last
# is 0 on working code.
REPORTED = (
    ("stage1_final_loss", "loss", "lower"),
    ("fgd", "score", "lower"),
    ("failed_op_ratio", "ratio", "lower"),
)

TRACE_OVERHEAD = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer():
    """Metrics of a --trace 1 run: (name, unit, better)."""
    return layer_metrics() + list(REPORTED + TRACE_OVERHEAD)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: dict                 # DatasetConfig fields over the defaults
    codec_epochs: int
    flow_epochs: int
    traced: frozenset             # phases a --trace 1 run traces
    setup_loads: bool = False     # checkpoint load is part of set-up


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train_short",
            "512 clips of 64 frames (L=16): many small matmuls, so per-op "
            "Python and tape overhead dominate training",
            {}, 10, 10, frozenset({"setup", "train"})),
        Workload(
            "train_long",
            "128 training clips of 512 frames (L=128): per-op overhead is "
            "amortised and the O(L^2) attention and neighbour-shift matmuls "
            "dominate training",
            {"n_clips": 160, "n_frames": 512, "n_onsets": 32,
             "ratios": (0.8, 0.0, 0.2)},
            6, 6, frozenset({"setup", "train"})),
        Workload(
            "sample_eval",
            "forward only: a briefly trained default model loads its "
            "checkpoints, scores a 512-clip test split and draws single "
            "samples; no backward pass in the traced phases",
            {"n_clips": 640, "ratios": (0.2, 0.0, 0.8)},
            20, 20, frozenset({"setup", "load", "eval", "draw"}),
            setup_loads=True),
    )
}

# The measured part of a run is a sequence of rounds of about equal length.
# A round trains both stages once and runs two units of one evaluate_run
# call plus DRAWS_PER_UNIT draws, one unit between the stages and one after.
# The machine's speed drifts by up to 1.7x over spans of seconds, so every
# timing metric takes its samples from across the whole run, not from one
# stretch of it; then the medians stay steady.
MIN_ROUNDS = 2
MAX_ROUNDS = 20
DRAWS_PER_UNIT = 25      # 2 rounds give >= 100 draws, so >= 10 lie beyond p90
EVAL_KERNELS = 16        # calibration kernel runs inside one evaluate_run call
DRAW_PAIRS = 10          # distinct (test clip, seed) pairs the draws cycle over
SELF_EVAL_FGD_MAX = 1e-6

# What a fresh process imports before its first call into cfmlab.
IMPORT_PROBE = ("import cfmlab.cli, cfmlab.evaluate, cfmlab.sampler, "
                "cfmlab.synthdata, cfmlab.training")

# Tiny sizes for the benchmark's own tests.
SMOKE_DATASET = {"n_clips": 30, "n_frames": 32, "n_onsets": 2,
                 "ratios": (0.6, 0.0, 0.4)}
SMOKE_EPOCHS = 3
SMOKE_DRAWS_PER_UNIT = 4


class Abort(Exception):
    """A step the rest of the run depends on failed."""


@contextmanager
def call_clock(owner, attr, marks, calibrate=None, every=1):
    """Mark returns of `owner.attr` as (return time, time after the
    calibration kernel `calibrate` then runs, kernel seconds it reports).
    With `calibrate`, only every `every`-th call runs the kernel and gets a
    mark."""
    original = getattr(owner, attr)
    calls = 0

    def timed(*args, **kwargs):
        nonlocal calls
        out = original(*args, **kwargs)
        done = time.perf_counter()
        calls += 1
        if calibrate is None:
            marks.append((done, done, 0.0))
        elif calls % every == 0:
            kernel = calibrate()
            marks.append((done, time.perf_counter(), kernel))
        return out

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def epoch_seconds(marks, epochs):
    """(seconds, mean kernel seconds) per epoch from the step marks. An
    epoch is the stretch between the last steps of two successive epochs,
    less the kernel runs inside it. The first epoch, which also holds model
    init, has no start mark and is left out."""
    steps, rest = divmod(len(marks), epochs)
    if steps == 0 or rest:
        return None
    out = []
    for e in range(1, epochs):
        inside = marks[e * steps - 1:(e + 1) * steps]
        span = inside[-1][0] - inside[0][1]
        kernel_runs = sum(after - done for done, after, _ in inside[1:-1])
        out.append((span - kernel_runs, float(np.mean([k for _, _, k in inside]))))
    return out


def smooth_kernels(samples, half=3):
    """Each (seconds, kernel seconds) sample with its kernel time replaced by
    the median over the 2 * half + 1 neighbouring samples. One kernel run
    is short and noisy; the machine's speed changes more slowly than a few
    draws last."""
    kernels = [k for _, k in samples]
    return [(s, float(np.median(kernels[max(0, i - half):i + half + 1])))
            for i, (s, _) in enumerate(samples)]


def _sha256(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


@dataclass
class Trained:
    models: tuple                 # codecs, stacks, net, heads, proj
    records: tuple                # stage-1 and stage-2 RunRecord
    epochs1: list                 # (seconds, kernel seconds) per epoch
    epochs2: list
    wall_s: float
    digest: str


@dataclass
class Run:
    """One workload in one process. `cf` holds the imported cfmlab modules."""

    cf: object
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    workdir: object
    smoke: bool = False
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    overhead: list = field(default_factory=list)   # (traced s, untraced s)

    def __post_init__(self):
        self.tracer = Tracer()
        self.probe = LayerProbe(self.tracer, self.cf.modules, self.cf.Tape)
        self.draws_per_unit = SMOKE_DRAWS_PER_UNIT if self.smoke else DRAWS_PER_UNIT
        self.cal = Calibration()
        self._kernel = None
        self.trained = []
        self.eval_s, self.draw_s = [], []   # (seconds, kernel seconds)
        self.setup_s = {"import": [], "build": [], "load": []}
        self.reports, self.csv_digests = set(), {}

    # ------------------------------------------------------ accounting

    def op(self, name, fn, *args, critical=True, **kwargs):
        """One operation: its NumericError, CheckpointError or ConfigError is
        counted as a failure instead of ending the run."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.cf.errors as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            if critical:
                raise Abort(name) from exc
            return None

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return ok

    def _traced_pass(self, phase, fn, untraced_s):
        """In a traced run, repeat one unit of `phase` with the layer wraps
        installed, and keep its time against the untraced median."""
        if not (self.trace and phase in self.workload.traced):
            return
        self.probe.install()
        try:
            t = time.perf_counter()
            fn()
            self.overhead.append((time.perf_counter() - t, untraced_s))
        finally:
            self.probe.restore()

    def _span(self, name):
        return self.tracer.span(name) if self.probe.installed else nullcontext()

    def _measure(self, fn, repeats=1):
        """fn() between two runs of the text kernel: (result, seconds, mean
        kernel seconds). Traced passes run no kernel."""
        if self.probe.installed:
            t = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t, None
        before = self._kernel if self._kernel is not None else self.cal.text(repeats)
        t = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t
        self._kernel = self.cal.text(repeats)
        return out, dt, (before + self._kernel) / 2

    def _import_once(self):
        """Start a fresh interpreter that imports cfmlab, and wait for it."""
        env = dict(os.environ, PYTHONPATH=self.cf.src)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        self.check("import", proc.returncode == 0, proc.stderr[-500:])

    def _setup_step(self, step, fn):
        """fn() timed as one sample of set-up `step`. Set-up times are not
        scaled: the kernels do not track process start-up."""
        t = time.perf_counter()
        out = fn()
        self.setup_s[step].append(time.perf_counter() - t)
        return out

    # ------------------------------------------------------------ units

    def config(self):
        ds = dict(SMOKE_DATASET if self.smoke else self.workload.dataset)
        e1, e2 = ((SMOKE_EPOCHS, SMOKE_EPOCHS) if self.smoke else
                  (self.workload.codec_epochs, self.workload.flow_epochs))
        return self.op("config", self.cf.config.config_from_dict, {
            "seed": self.seed, "dataset": ds,
            "codec": {"epochs": e1}, "flow": {"epochs": e2}})

    def gradcheck(self):
        with redirect_stdout(StringIO()):
            rc = self.op("gradcheck", self.cf.cli.main, ["gradcheck"])
        self.check("gradcheck", rc == 0, f"(exit {rc})")

    def train_once(self, cfg, ds, between=None):
        """Both stages, then both checkpoints saved. `between` runs after
        stage 1 and is not part of the training time."""
        training = self.cf.training
        marks1, marks2 = [], []
        cal = None if self.probe.installed else self.cal.array
        t0 = time.perf_counter()
        with call_clock(training, "adam_step", marks1, cal), self._span(STAGE1):
            codecs, stacks, rec1 = self.op("train_codec", training.train_codec, cfg, ds)
        wall = time.perf_counter() - t0
        if between is not None:
            between()
        t0 = time.perf_counter()
        with call_clock(training, "adam_step", marks2, cal), self._span(STAGE2):
            net, heads, proj, rec2 = self.op(
                "train_generator", training.train_generator, cfg, ds, codecs, stacks)
        p1, p2 = self.workdir / "codec.bin", self.workdir / "generator.bin"
        self.op("save_stage1", training.save_stage1_checkpoint, p1, codecs, stacks)
        self.op("save_stage2", training.save_stage2_checkpoint, p2, net, heads, proj)
        wall += time.perf_counter() - t0
        wall -= sum(after - done for done, after, _ in marks1 + marks2)
        for rec in (rec1, rec2):
            self.check("loss_curves_finite", all(
                np.all(np.isfinite(v)) for v in rec.curves.values()))
        curves = json.dumps([rec1.curves, rec2.curves], sort_keys=True).encode()
        return Trained((codecs, stacks, net, heads, proj), (rec1, rec2),
                       epoch_seconds(marks1, cfg.codec.epochs),
                       epoch_seconds(marks2, cfg.flow.epochs), wall,
                       _sha256(p1.read_bytes(), p2.read_bytes(), curves))

    def load_once(self):
        training = self.cf.training
        codecs, stacks = self.op("load_stage1", training.load_stage1_checkpoint,
                                 self.workdir / "codec.bin")
        rest = self.op("load_stage2", training.load_stage2_checkpoint,
                       self.workdir / "generator.bin")
        return (codecs, stacks) + rest

    def eval_once(self, cfg, ds, models):
        codecs, stacks, net, heads, proj = models
        evaluate = self.cf.evaluate

        def once():
            return self.op("evaluate_run", evaluate.evaluate_run, cfg, ds, codecs,
                           stacks, net=net, heads=heads, proj=proj)

        if self.probe.installed:
            (report, _), dt, kernel = self._measure(once)
        else:
            # a call lasts up to seconds, so the kernel also runs about
            # EVAL_KERNELS times inside it, after per-clip conditioning
            marks = []
            every = max(1, len(ds.splits["test"]) // EVAL_KERNELS)
            with call_clock(evaluate, "condition_for_clip", marks, self.cal.text, every):
                (report, _), dt, kernel = self._measure(once, repeats=3)
            dt -= sum(after - done for done, after, _ in marks)
            kernel = float(np.mean([kernel] + [k for _, _, k in marks]))
        self.reports.add(report.to_json())
        self.values["fgd"], self.values["bc"] = report.fgd, report.bc
        return dt, kernel

    def draw_once(self, k, ctx):
        """One draw as `cfmlab generate` makes it: generate, then the CSV,
        then the sidecar. Every draw of pair k must write the same bytes."""
        sampler = self.cf.sampler
        cfg, models, conds, seeds, run_hash = ctx
        codecs, stacks, net, heads, proj = models
        ode = sampler.OdeConfig(n=cfg.sampler.steps, scheme=cfg.sampler.scheme,
                                seed=int(seeds[k]))
        csv_path = self.workdir / f"gen_{k:03d}.csv"

        def once():
            motion = self.op("generate", sampler.generate, net, stacks, codecs,
                             conds[k], ode, proj=proj, scale=cfg.sacm.scale,
                             fps=cfg.dataset.fps, config_hash=run_hash,
                             critical=False)
            if motion is not None:
                sampler.write_motion_csv(motion, csv_path)
                sampler.write_sidecar(motion, self.workdir / f"gen_{k:03d}.json",
                                      f"pair:{k}")
            return motion

        motion, dt, kernel = self._measure(once)
        if motion is None:
            return None
        digest = _sha256(csv_path.read_bytes())
        self.check("draw_deterministic",
                   self.csv_digests.setdefault(k, digest) == digest, f"(pair {k})")
        return dt, kernel

    def draw_context(self, cfg, ds, models):
        """DRAW_PAIRS (test clip, seed) pairs; their conditions are built once,
        as `cfmlab generate` builds one condition for all its draws."""
        net, heads = models[2], models[3]
        test = ds.splits["test"]
        clips = [test[k % len(test)] for k in range(DRAW_PAIRS)]
        conds = [self.cf.evaluate.condition_for_clip(u.audio, u.text, net, heads)
                 for u in clips]
        seeds = np.random.default_rng([self.seed, 5]).integers(0, 2**31, size=DRAW_PAIRS)
        return cfg, models, conds, seeds, self.cf.config.config_hash(cfg)

    # ----------------------------------------------------------- whole run

    def execute(self):
        cf = self.cf
        cfg = self.config()

        def build():
            return self.op("build_dataset", cf.synthdata.build_dataset, cfg.dataset)

        self._setup_step("import", self._import_once)
        ds = self._setup_step("build", build)
        self.gradcheck()
        self.trained.append(self.train_once(cfg, ds))
        models = self._setup_step("load", self.load_once)
        self.check("checkpoint_roundtrip", all(
            np.array_equal(_named(a)[k], _named(b)[k])
            for a, b in zip(self.trained[0].models, models) for k in _named(a)),
            "(loaded tensors differ from the trained ones)")
        report, _ = self.op("self_eval", cf.evaluate.evaluate_run, cfg, ds,
                            models[0], models[1], self_eval=True)
        self.check("self_eval_fgd", report.fgd <= SELF_EVAL_FGD_MAX,
                   f"(fgd {report.fgd!r})")

        ctx = self.draw_context(cfg, ds, models)

        def unit():
            self._kernel = None  # the last kernel run predates a training stage
            self.eval_s.append(self.eval_once(cfg, ds, models))
            draws = []
            for _ in range(self.draws_per_unit):
                sample = self.draw_once((len(self.draw_s) + len(draws)) % DRAW_PAIRS, ctx)
                if sample is not None:
                    draws.append(sample)
            self.draw_s += smooth_kernels(draws)

        # round 0 reuses the training above; a further round starts only if
        # it is expected to end within --seconds. Each round also repeats the
        # set-up steps, so that their samples too come from the whole run.
        started, rounds = time.perf_counter(), 0
        while rounds < MIN_ROUNDS or (rounds < MAX_ROUNDS and (
                time.perf_counter() - started) * (rounds + 1) / rounds <= self.seconds):
            self._setup_step("import", self._import_once)
            self._setup_step("build", build)
            self._setup_step("load", self.load_once)
            if rounds:
                self.trained.append(self.train_once(cfg, ds, between=unit))
            else:
                unit()
            unit()
            rounds += 1

        setup = {step: float(np.median(v)) for step, v in self.setup_s.items()}
        self.values["setup_s"] = setup["import"] + setup["build"] + (
            setup["load"] if self.workload.setup_loads else 0.0)
        if self.trace:
            self._traced_pass("setup", build, setup["build"])
            self._traced_pass("load", self.load_once, setup["load"])
            self._traced_pass("train", lambda: self.trained.append(
                self.train_once(cfg, ds)), np.median([r.wall_s for r in self.trained]))
            self._traced_pass("eval", lambda: self.eval_once(cfg, ds, models),
                              np.median([s for s, _ in self.eval_s]))
            self._traced_pass("draw", lambda: [
                self.draw_once(k, ctx) for k in range(DRAW_PAIRS)],
                np.median([s for s, _ in self.draw_s]) * DRAW_PAIRS)
        self.compute_metrics(cfg, ds, rounds)

    def compute_metrics(self, cfg, ds, rounds):
        self.check("train_deterministic", len({r.digest for r in self.trained}) == 1,
                   "(checkpoint bytes or loss curves differ between repeats)")
        self.check("evaluate_deterministic", len(self.reports) == 1)
        untraced = self.trained[:rounds]
        n_train, n_test = len(ds.splits["train"]), len(ds.splits["test"])
        rates = {"eval_clips_per_s": (n_test, self.eval_s, "text")}
        if self.check("epoch_marks", all(r.epochs1 and r.epochs2 for r in untraced),
                      "(optimiser steps do not split evenly into epochs)"):
            for stage in (1, 2):
                epochs = [e for r in untraced for e in getattr(r, f"epochs{stage}")]
                rates[f"stage{stage}_clips_per_s"] = (n_train, epochs, "array")
        for name, (clips, samples, kind) in rates.items():
            self.values[name] = clips / np.median([scaled(s, k, kind) for s, k in samples])
            self.values["raw." + name] = clips / np.median([s for s, _ in samples])
        for prefix, ms in (("", [scaled(s, k, "text") * 1e3 for s, k in self.draw_s]),
                           ("raw.", [s * 1e3 for s, _ in self.draw_s])):
            self.values[prefix + "sample_ms_p50"] = float(np.median(ms))
            self.values[prefix + "sample_ms_p90"] = float(np.percentile(ms, 90))
        rec1, rec2 = self.trained[0].records
        self.values["stage1_final_loss"] = rec1.curves["total"][-1]
        self.values["stage2_final_loss"] = rec2.curves["total"][-1]
        self.values["kernel_ms.text"] = 1e3 * float(np.median(
            [k for _, k in self.draw_s + self.eval_s]))
        self.values["kernel_ms.array"] = 1e3 * float(np.median(
            [k for r in untraced for _, k in r.epochs1 + r.epochs2]))
        self.values["draws"] = len(self.draw_s)
        self.values["rounds"] = rounds
        if self.trace:
            traced = sum(t for t, _ in self.overhead)
            base = sum(u for _, u in self.overhead)
            self.values["trace.overhead_s"] = traced - base
            self.values["trace.overhead_ratio"] = (traced - base) / base
            self.values.update(self.probe.metrics(
                summarize(self.tracer.spans), cfg.codec.epochs, cfg.codec.n_codes))

    def finish(self):
        self.values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.values["failed_op_ratio"] = self.failed / max(self.attempted, 1)


def _named(obj):
    """Name -> array for a trained model part or a per-part dict of them."""
    if isinstance(obj, dict):
        out = {}
        for part in obj.values():
            out.update(_named(part))
        return out
    return {k: getattr(v, "data", v) for k, v in obj.named_tensors().items()}
