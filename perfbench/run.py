"""soekit benchmark: one workload per invocation, every metric by name and unit.

    python3 perfbench/run.py --workload {train,pretrain,edit,eval} --seed N \
        --seconds S --trace {0,1} [--tiny]

With --trace 0 the run measures the end-to-end metrics with nothing
wrapped; their times are scaled to reference host speed (hostspeed.py).
With --trace 1 it wraps soekit's layers (spans.py) in every other unit of
work and reports per-layer metrics per op, the share of wall time the spans
cover and the tracing overhead. Either way the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}, and a
results file with the environment, the config hash, the output digest and
every check lands in perfbench/out/. --tiny shrinks every size for the
smoke test.

The program runs from the checkout's src/ with one BLAS thread: the loop is
one client, and a single thread repeats far more steadily on a shared
two-core machine than two do. numpy's huge-page advice is off, because with
it the kernel's huge-page supply moved peak memory by over 10% between
identical runs.
"""

import os

PINNED_ENV = {  # set before the first numpy import
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {  # name -> unit; the same names and units as BENCHMARK.json
    "samples_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TENSOR_CATEGORIES = ("conv2d", "conv2d_transpose", "group_norm", "matmul", "cross_attention", "resize", "other")
SPANS_WITH_SELF = ("tensor.backward", "nets.vae_encode", "nets.vae_decode", "nets.unet_student",
                   "nets.unet_teacher", "nets.cond_embed", "lora.delta", "schedule",
                   "train.batch_tensors", "train.distill_loss", "train.denoise_loss", "metrics.probe_fwd")
PER_LAYER = {  # name -> unit; run-phase metrics are per unit of work, set-up ones per set-up
    **{f"tensor.{c}.fwd_ms": "ms" for c in TENSOR_CATEGORIES},
    **{f"tensor.{c}.bwd_ms": "ms" for c in TENSOR_CATEGORIES if c != "cross_attention"},
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.gflop": "GFLOP",
    "tensor.conv2d.im2col_bytes": "bytes",
    "tensor.ops.calls": "count",
    **{f"{k}.ms": "ms" for k in SPANS_WITH_SELF},
    **{f"{k}.self_ms": "ms" for k in SPANS_WITH_SELF},
    "lora.delta.calls": "count",
    "optim.step.ms": "ms",
    "optim.scalars": "count",
    "metrics.masked_crop.ms": "ms",
    "metrics.frechet.ms": "ms",
    "data.build_split.s": "s",
    "metrics.train_probe.s": "s",
    "checkpoint.save.ms": "ms",
    "checkpoint.load.ms": "ms",
    "checkpoint.bytes": "bytes",
    "trace.unit_ms": "ms",
    "trace.coverage_share": "share",
    "trace.overhead_share": "share",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "pretrain", "edit", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    return p.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_env": PINNED_ENV,
    }


def measure(wl, seconds: float, host, tracer=None) -> list:
    """Closed loop: the next unit starts when the last ends, until `seconds` pass.

    The host-speed kernel runs between units and, where the workload can,
    between ops; a unit's scale comes from the samples around and inside it.
    With a tracer, every other unit runs traced, so that traced and plain
    units see the same host and their difference is the tracing overhead.
    """
    from workloads import Unit

    units, i = [], 0
    gc.collect()
    edge = host.sample()
    t_end = perf_counter() + seconds
    while True:
        host.take()
        traced = tracer is not None and i % 2 == 1
        if traced:
            patches = spans.install(tracer)
            wl.tracer, tracer.recording = tracer, True
        try:
            u = wl.unit(i)
        except Exception:
            traceback.print_exc()
            u = Unit(ops=wl.unit_ops, samples=0, problems=[f"unit {i} raised; traceback on stderr"])
        finally:
            if traced:
                wl.tracer, tracer.recording = None, False
                patches.undo()
        u.traced = traced
        inner = host.take()
        gc.collect()  # each unit starts from the same collector state, so peak memory repeats
        u.peak_rss_mb = peak_rss_mb()
        after = host.sample()
        u.scale, edge = hostspeed.scale([edge, *inner, after]), after
        units.append(u)
        i += 1
        if perf_counter() >= t_end and (tracer is None or i >= 2):
            return units


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(wl, count: int, host) -> list:
    """(wall seconds, scale) of each of `count` set-ups; the workload keeps the last."""
    setups = []
    edge = host.sample()
    for _ in range(count):
        host.take()
        spent, t0 = host.spent, perf_counter()
        wl.setup()
        dt = perf_counter() - t0 - (host.spent - spent)
        inner = host.take()
        gc.collect()
        after = host.sample()
        setups.append((dt, hostspeed.scale([edge, *inner, after])))
        edge = after
    return setups


def check_digests(units) -> dict:
    """Outputs with one key must agree across units; returns key -> first digest."""
    first = {}
    for u in units:
        if u.problems:
            continue
        for key, digest in u.digests.items():
            ref = first.setdefault(key, digest)
            if digest != ref:
                u.problems.append(f"output {key}: digest {digest[:12]} differs from the first, {ref[:12]}")
    return first


def end_to_end(units, setups, scaled: bool = True) -> dict:
    """The gated metrics, at reference host speed unless `scaled` is false.

    Peak memory is read after set-up and the first unit: later units add
    only allocator fragmentation, which grew the peak by up to 13%, by a
    different amount for each seed.
    op_ms_p90 and the op count go only to the results file: tails follow
    the host's noise too closely to gate on.
    """
    good = [u for u in units if not u.problems]
    op_s = sorted(t * (u.scale if scaled else 1.0) for u in good for t in u.op_seconds)
    if not op_s:
        return {}
    return {
        "samples_per_s": sum(u.samples for u in good) / sum(op_s),
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "setup_s": statistics.median(dt * (k if scaled else 1.0) for dt, k in setups),
        "peak_rss_mb": units[0].peak_rss_mb,
        "op_ms_p90": 1e3 * (statistics.quantiles(op_s, n=10)[-1] if len(op_s) > 1 else op_s[0]),
        "op_samples": len(op_s),
    }


def per_layer(run_stats, run_counts, ops, setup_stats, setup_counts, setups, plain, traced) -> dict:
    def ms(key, col=0):
        return 1e3 * run_stats.get(key, (0.0, 0.0, 0))[col] / ops

    def calls(key):
        return run_stats.get(key, (0.0, 0.0, 0))[2] / ops

    out = {}
    for c in TENSOR_CATEGORIES:
        out[f"tensor.{c}.fwd_ms"] = ms(f"tensor.{c}.fwd")
        if c != "cross_attention":
            out[f"tensor.{c}.bwd_ms"] = ms(f"tensor.{c}.bwd")
    out["tensor.conv2d.calls"] = calls("tensor.conv2d.fwd")
    for k in ("tensor.conv2d.gflop", "tensor.conv2d.im2col_bytes", "tensor.ops.calls", "optim.scalars"):
        out[k] = run_counts.get(k, 0.0) / ops
    for k in SPANS_WITH_SELF:
        out[f"{k}.ms"] = ms(k)
        out[f"{k}.self_ms"] = ms(k, 1)
    out["lora.delta.calls"] = calls("lora.delta")
    out["optim.step.ms"] = ms("optim.step")
    out["metrics.masked_crop.ms"] = ms("metrics.masked_crop")
    out["metrics.frechet.ms"] = ms("metrics.frechet")

    def per_setup(key, scale):
        return scale * setup_stats.get(key, (0.0, 0.0, 0))[0] / setups

    out["data.build_split.s"] = per_setup("data.build_split", 1.0)
    out["metrics.train_probe.s"] = per_setup("metrics.train_probe", 1.0)
    out["checkpoint.save.ms"] = per_setup("checkpoint.save", 1e3)
    out["checkpoint.load.ms"] = per_setup("checkpoint.load", 1e3)
    out["checkpoint.bytes"] = setup_counts.get("checkpoint.bytes", 0.0) / setups

    unit = run_stats.get("unit", (0.0, 0.0, 0))
    out["trace.unit_ms"] = 1e3 * unit[0] / ops  # wall time, like every per-layer time
    out["trace.coverage_share"] = 1.0 - unit[1] / unit[0] if unit[0] else 0.0
    out["trace.overhead_share"] = mean_op_seconds(traced) / mean_op_seconds(plain) - 1.0
    return out


def mean_op_seconds(units) -> float:
    """At reference host speed."""
    good = [u for u in units if not u.problems]
    return sum(sum(u.op_seconds) * u.scale for u in good) / max(1, sum(u.ops for u in good))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import soekit  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    host = hostspeed.HostSpeed()
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir, host)
    problems = []
    try:
        if tracer:
            patches = spans.install(tracer)
            tracer.recording = True
            setups = set_up(wl, sizes.setups, host)
            tracer.recording = False
            patches.undo()
            setup_stats, setup_counts = dict(tracer.stats), dict(tracer.counts)
            tracer.reset()
            tracer.teacher_unets = wl.teacher_unets()
            units = measure(wl, args.seconds, host, tracer)
            traced = [u for u in units if u.traced]
            plain = [u for u in units if not u.traced]
        else:
            setups = set_up(wl, sizes.setups, host)
            units = measure(wl, args.seconds, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = check_digests(units)
    attempted = sum(u.ops for u in units)
    failed = sum(u.ops for u in units if u.problems)
    problems += [p for u in units for p in u.problems]
    e2e = end_to_end(units, setups)
    if not e2e:
        print("error: no unit of work completed its checks", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    layers = {}
    if tracer:
        ops = sum(u.ops for u in traced if not u.problems) or 1
        run_stats, run_counts = dict(tracer.stats), dict(tracer.counts)
        layers = per_layer(run_stats, run_counts, ops, setup_stats, setup_counts, sizes.setups, plain, traced)
        self_sum = sum(st[1] for st in run_stats.values())
        wall = sum(sum(u.op_seconds) for u in traced)
        if self_sum > wall * (1 + 1e-9):
            problems.append(f"self times sum to {self_sum:.6f} s, more than the {wall:.6f} s traced wall time")

    metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()} if tracer else \
        {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    digest = workloads.sha256(*(digests[k].encode() for k in sorted(digests)))
    info = {
        "workload": args.workload,
        "unit_of_work": wl.unit_of_work,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "config_hash": workloads.sha256(json.dumps([wl.cfg.to_dict(), sizes.__dict__], sort_keys=True).encode())[:16],
        "config": wl.cfg.to_dict(),
        "sizes": sizes.__dict__,
        "run_seconds": args.seconds,
        "setup_wall_seconds": [dt for dt, _ in setups],
        "host_reference_ms": [hostspeed.REFERENCE_MS / u.scale for u in units],
        "peak_rss_mb_after_unit": [u.peak_rss_mb for u in units],
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digest": digest,
        "digest_keys": len(digests),
        "problems": problems,
        "end_to_end": e2e,
        "end_to_end_wall": end_to_end(units, setups, scaled=False),
        "per_layer": layers,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(info, indent=2) + "\n")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"{k} {m['value']} {m['unit']}")
    print(f"failed_share {info['failed_share']} share ({failed} of {attempted} {wl.unit_of_work}s)")
    print(f"digest {digest} over {len(digests)} output(s); config {info['config_hash']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
