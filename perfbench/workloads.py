"""The four benchmark workloads, each a closed loop with one client.

A workload builds its state in `setup` (data, models, the checkpoint round
trip, the probe, a warm-up) and then runs units: a unit is the smallest
piece of work whose outputs can be digested and checked on their own. Outputs
with the same key must give the same digest in every unit of one
invocation; that is the repo's seeded-determinism contract, checked by the
runner.

All calls go through soekit's public API, as the CLI verbs make them. The
workload seed decides the data and every noise draw; the teacher is a fixed,
freshly initialised network, because dense numpy cost does not depend on
weight values.
"""

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import spans
from soekit import data, metrics, nets, train
from soekit.config import RunConfig
from soekit.rng import child_seed
from soekit.schedule import make_schedule

TEACHER_SEED = 0
STYLE = "color_label"


@dataclass(frozen=True)
class Sizes:
    setups: int = 5            # set-ups per run; setup_s is their median
    train_pool: int = 64       # train-small samples the trainer draws batches from
    episode_steps: int = 10    # train steps per fresh Trainer (one unit)
    generic_pool: int = 32     # train-generic samples for pretraining
    pretrain_vae_steps: int = 2
    pretrain_steps: int = 8    # with the line above, the default 700:2600 phase mix
    edit_pool: int = 16        # val-small samples edited in turn
    edits_per_unit: int = 4
    eval_samples: int = 36     # > 32 probe features, so the covariances are not singular
    ddim_steps: int = 10
    student_steps: int = 2     # adapter steps before the student is saved
    probe_count: int = 256
    probe_steps: int = 40


FULL = Sizes()
TINY = Sizes(setups=1, train_pool=8, episode_steps=2, generic_pool=4, pretrain_vae_steps=1,
             pretrain_steps=1, edit_pool=2, edits_per_unit=2, eval_samples=34, ddim_steps=2, student_steps=1,
             probe_count=34, probe_steps=2)


@dataclass
class Unit:
    ops: int                  # train steps, pretrain steps, edits or eval samples
    samples: int              # images processed
    op_seconds: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # output key -> digest; equal keys must agree
    problems: list = field(default_factory=list)
    scale: float = 1.0        # wall time to time at reference host speed (hostspeed.py)
    traced: bool = False
    peak_rss_mb: float = 0.0  # the process's peak so far, read after the unit


def run_config(seed: int, sizes: Sizes) -> RunConfig:
    """The default RunConfig with the workload seed and the benchmark's sizes."""
    cfg = RunConfig()
    cfg.data.seed = cfg.train.seed = cfg.eval.seed = seed
    cfg.train.pretrain_vae_steps = sizes.pretrain_vae_steps
    cfg.train.pretrain_steps = sizes.pretrain_steps
    cfg.eval.ddim_steps = sizes.ddim_steps
    cfg.eval.samples = sizes.eval_samples
    cfg.eval.probe_train_count = sizes.probe_count
    cfg.eval.probe_steps = sizes.probe_steps
    return cfg.validate()


def fresh_teacher(cfg: RunConfig) -> train.Bundle:
    mc = train.model_config(cfg)
    bundle = train.Bundle(
        cfg=cfg, vae=nets.Vae(mc, seed=TEACHER_SEED), unet=nets.MiniUnet(mc, seed=TEACHER_SEED),
        cond=nets.ConditionEmbedder(mc, seed=TEACHER_SEED),
        sched=make_schedule(cfg.schedule.timesteps, cfg.schedule.beta_start, cfg.schedule.beta_end),
        frozen=True, role="teacher",
    )
    for module in (bundle.vae, bundle.unet, bundle.cond):
        module.set_trainable(False)
    return bundle


def sha256(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def nonfinite(what, values) -> list:
    return [] if np.all(np.isfinite(values)) else [f"{what} not finite: {values}"]


class Workload:
    unit_of_work = ""  # what one op is
    unit_ops = 0       # ops per unit

    def __init__(self, seed: int, sizes: Sizes, workdir, host):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.host = host      # hostspeed.HostSpeed, sampled between ops
        self.tracer = None    # spans.Tracer while a traced run measures
        self.cfg = run_config(seed, sizes)

    def timed(self, fn, *args, **kwargs):
        """Run fn as one timed region, less any host sampling inside; traced, it is the root span."""
        spent, t0 = self.host.spent, perf_counter()
        out = self.tracer.call("unit", fn, *args, **kwargs) if self.tracer else fn(*args, **kwargs)
        return out, perf_counter() - t0 - (self.host.spent - spent)

    def teacher_unets(self) -> set:
        return set()

    def _sample_after(self, module, name):
        """Sample the host after each call of module.name, for loops inside the program.

        Untraced runs only: under tracing the sample would sit inside a span.
        """
        def make(fn):
            def sampled(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self.tracer is None:
                    self.host.sample()
                return out
            return sampled
        spans.Patches().function(module, name, make)

    def _student(self):
        """Adapter-tuned student, saved and loaded back as `train` then `edit` would."""
        teacher = fresh_teacher(self.cfg)
        pool = data.build_split(self.seed, "train-small", self.sizes.train_pool)
        trainer = train.Trainer(self.cfg, pool, teacher)
        trainer.run(self.sizes.student_steps)
        path = train.save_bundle(self.workdir / "student.soek", trainer.bundle(), trainer.optimizer)
        return train.load_bundle(path)


class TrainWorkload(Workload):
    """Cross-scale distillation steps; a unit is one fresh Trainer's episode."""

    unit_of_work = "train step"

    @property
    def unit_ops(self):
        return self.sizes.episode_steps

    def setup(self):
        self.pool = data.build_split(self.seed, "train-small", self.sizes.train_pool)
        path = train.save_bundle(self.workdir / "teacher.soek", fresh_teacher(self.cfg))
        self.teacher = train.load_bundle(path)
        train.Trainer(self.cfg, self.pool, self.teacher).train_step(0)

    def teacher_unets(self):
        return {id(self.teacher.unet)}

    def unit(self, i) -> Unit:
        n = self.unit_ops
        u = Unit(ops=n, samples=n * self.cfg.train.batch_size)
        trainer = train.Trainer(self.cfg, self.pool, self.teacher)
        losses = []
        for step in range(n):
            r, dt = self.timed(trainer.train_step, step)
            self.host.sample()
            u.op_seconds.append(dt)
            losses.append((r.denoise, r.distill, r.vae, r.total))
        losses = np.asarray(losses, np.float64)
        u.problems += nonfinite("train losses", losses)
        adapters = trainer.adapters.params()
        u.digests[0] = sha256(losses.tobytes(), *(k.encode() + p.data.tobytes() for k, p in adapters.items()))
        return u


class PretrainWorkload(Workload):
    """Teacher pretraining; a unit is one `pretrain_teacher` call (VAE then denoiser steps)."""

    unit_of_work = "pretrain step"

    @property
    def unit_ops(self):
        return self.cfg.train.pretrain_vae_steps + self.cfg.train.pretrain_steps

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sample_after(train, "batch_tensors")  # once a step, inside pretrain_teacher's loop

    def setup(self):
        self.pool = data.build_split(self.seed, "train-generic", self.sizes.generic_pool)
        warm = run_config(self.seed, self.sizes)
        warm.train.pretrain_vae_steps = warm.train.pretrain_steps = 1
        train.pretrain_teacher(self.pool, warm)

    def unit(self, i) -> Unit:
        n = self.unit_ops
        u = Unit(ops=n, samples=n * self.cfg.train.batch_size)
        loss_csv = self.workdir / "teacher.loss.csv"
        bundle, dt = self.timed(train.pretrain_teacher, self.pool, self.cfg, loss_csv=loss_csv)
        u.op_seconds = [dt / n] * n
        rows = np.loadtxt(loss_csv, delimiter=",", skiprows=1, ndmin=2)
        u.problems += [f"loss csv has {len(rows)} rows, expected {n}"] if len(rows) != n else []
        u.problems += nonfinite("pretrain losses", rows[:, 1:5])
        with self.tracer.paused() if self.tracer else nullcontext():
            path = train.save_bundle(self.workdir / "teacher.soek", bundle)  # as the CLI verb does
        u.digests[0] = sha256(path.read_bytes())
        return u


class EditWorkload(Workload):
    """Single-image DDIM edits at batch 1; a unit is a few edits in turn."""

    unit_of_work = "edit"

    @property
    def unit_ops(self):
        return self.sizes.edits_per_unit

    def setup(self):
        self.samples = data.build_split(self.seed, "val-small", self.sizes.edit_pool)
        self.bundle = self._student()
        self._edit(self.samples[0], 0)

    def _edit(self, s, k):
        return train.edit(s.image, s.bbox, s.label, s.color, STYLE, self.bundle,
                          steps=self.sizes.ddim_steps, seed=child_seed(self.seed, "eval", k))

    def unit(self, i) -> Unit:
        n = self.unit_ops
        u = Unit(ops=n, samples=n)
        for j in range(n):
            k = (i * n + j) % len(self.samples)
            s = self.samples[k]
            out, dt = self.timed(self._edit, s, k)
            self.host.sample()
            u.op_seconds.append(dt)
            u.digests[k] = sha256(out.tobytes())
            u.problems += self._check(s, out)
        return u

    @staticmethod
    def _check(s, out) -> list:
        if out.shape != s.image.shape or out.dtype != s.image.dtype:
            return [f"edit output {out.shape} {out.dtype} != input {s.image.shape} {s.image.dtype}"]
        problems = nonfinite("edit output", out)
        if out.min() < 0.0 or out.max() > 1.0:
            problems.append(f"edit output outside [0, 1]: [{out.min()}, {out.max()}]")
        outside = s.mask() == 0
        if not np.array_equal(out[outside], s.image[outside]):
            problems.append(f"edit of {s.id} changed pixels outside bbox {s.bbox}")
        return problems


class EvalWorkload(Workload):
    """`evaluate` over val-small with a probe; a unit is one evaluate call."""

    unit_of_work = "eval sample"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sample_after(train, "edit")  # evaluate loops over its edits itself

    @property
    def unit_ops(self):
        return self.cfg.eval.samples

    def setup(self):
        ec = self.cfg.eval
        self.samples = data.build_split(self.seed, "val-small", ec.samples)
        self.bundle = self._student()
        probe = metrics.train_probe(seed=ec.probe_seed, count=ec.probe_train_count, steps=ec.probe_steps,
                                    lr=ec.probe_lr, image_side=self.cfg.data.image_side)
        self.probe = metrics.load_probe(metrics.save_probe(self.workdir / "probe.soek", probe, seed=ec.probe_seed))
        s = self.samples[0]
        out = train.edit(s.image, s.bbox, s.label, s.color, STYLE, self.bundle, steps=ec.ddim_steps, seed=0)
        self.probe.features([metrics.masked_crop(out, s.bbox), metrics.masked_crop(s.image, s.bbox)])

    def unit(self, i) -> Unit:
        ec = self.cfg.eval
        n = self.unit_ops
        report, dt = self.timed(metrics.evaluate, self.bundle, self.samples, STYLE, seed=ec.seed,
                           probe=self.probe, ddim_steps=ec.ddim_steps, max_samples=ec.samples)
        text = report.csv_text()
        u = Unit(ops=n, samples=n, op_seconds=[dt / n] * n, digests={0: sha256(text.encode())})
        for row in report.rows:
            if row.n != n:
                u.problems.append(f"eval scored {row.n} samples, expected {n}")
            u.problems += nonfinite("eval metrics", [row.alignment_mean, row.frechet])
            if not 0.0 <= row.alignment_mean <= 1.0:
                u.problems.append(f"alignment {row.alignment_mean} outside [0, 1]")
        return u


WORKLOADS = {"train": TrainWorkload, "pretrain": PretrainWorkload, "edit": EditWorkload, "eval": EvalWorkload}
