"""Command-line surface: dataset generation, training, editing, evaluation.

Every command is a thin deterministic wrapper over a module operation.
Configuration is file-first (--config JSON) with flag overrides; the merged
effective config is echoed into every output artifact. A flag that names a
config value (--seed, and edit's and eval's --style and --steps) overrides
it; omitted, the config's value applies. Exit codes: 0 success, 1
validation/runtime failure (one-line machine-parsable message on stderr), 2
usage errors.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from soekit.checkpoint import write_atomic
from soekit.config import ConfigError, RunConfig
from soekit.data import (PROMPT_STYLES, SPLITS, build_split, check_image_side, read_dataset, read_ppm, write_dataset,
                         write_ppm)
from soekit.metrics import effective_area, evaluate, load_probe, map_side, save_probe, train_probe
from soekit.train import Trainer, check_config_matches, load_bundle, pretrain_teacher, save_bundle
from soekit.train import edit as edit_op


def _load_config(path) -> RunConfig:
    return RunConfig.load(path) if path else RunConfig()


def _resolve_seed(flag_value, cfg_value) -> int:
    if flag_value is not None:
        if flag_value < 0:
            raise ValueError(f"--seed must be >= 0, got {flag_value}")
        return flag_value
    return cfg_value


# -- command handlers ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if (Path(args.out) / "index.jsonl").exists():
        raise ValueError(f"{args.out} already holds a dataset (index.jsonl); choose another --out")
    cfg = _load_config(args.config).validate()
    seed = _resolve_seed(args.seed, cfg.data.seed)
    cfg.data.seed = seed
    counts = {
        "train-small": cfg.data.train_small_count,
        "train-generic": cfg.data.train_generic_count,
        "val-small": cfg.data.val_small_count,
    }
    splits = list(SPLITS) if args.split == "all" else [args.split]
    samples = []
    for split in splits:
        n = args.count if args.count is not None else counts[split]
        samples.extend(build_split(seed, split, n, image_side=cfg.data.image_side))
    out = write_dataset(samples, args.out)
    cfg.save(out / "config.json")
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def cmd_pretrain_teacher(args) -> int:
    cfg = _load_config(args.config).validate()
    dataset = read_dataset(args.data, split="train-generic")
    out = Path(args.out)
    bundle = pretrain_teacher(dataset, cfg, loss_csv=out.with_suffix(".loss.csv"))
    save_bundle(out, bundle)
    print(f"teacher checkpoint: {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config).validate()
    teacher = load_bundle(args.teacher)
    dataset = read_dataset(args.data, split="train-small")
    out = Path(args.out)
    trainer = Trainer(cfg, dataset, teacher, loss_csv=out.with_suffix(".loss.csv"))
    trainer.run()
    save_bundle(out, trainer.bundle())
    print(f"student checkpoint: {out}")
    return 0


def cmd_edit(args) -> int:
    bundle = load_bundle(args.checkpoint)
    image = read_ppm(args.image)
    bbox = _int_list("--bbox", args.bbox)
    seed = _resolve_seed(args.seed, bundle.cfg.eval.seed)
    steps = bundle.cfg.eval.ddim_steps if args.steps is None else args.steps
    out_img = edit_op(image, bbox, args.label, args.color, args.style or bundle.cfg.train.prompt_style, bundle,
                      steps=steps, seed=seed)
    write_ppm(args.out, out_img)
    print(f"edited image: {args.out}")
    return 0


def _probe_for(cfg: RunConfig, out_dir: Path):
    """The probe for cfg, trained once and cached under a hash of its settings."""
    settings = {
        "seed": cfg.eval.probe_seed,
        "count": cfg.eval.probe_train_count,
        "steps": cfg.eval.probe_steps,
        "lr": cfg.eval.probe_lr,
        "image_side": cfg.data.image_side,
    }
    key = hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:12]
    cache = out_dir / f"probe-{key}.soek"
    if cache.exists():
        return load_probe(cache)
    probe = train_probe(**settings)
    save_probe(cache, probe, seed=cfg.eval.probe_seed)
    return probe


def cmd_eval(args) -> int:
    bundle = load_bundle(args.checkpoint)
    cfg = _load_config(args.config).validate() if args.config else bundle.cfg
    check_config_matches(bundle.cfg, cfg, args.checkpoint, keys=("schedule", "model", "data.image_side"))
    seed = _resolve_seed(args.seed, cfg.eval.seed)
    val = read_dataset(args.data, split="val-small")
    check_image_side(val, bundle.cfg.data.image_side)
    out_dir = Path(args.out)
    probe = _probe_for(cfg, out_dir)
    report = evaluate(bundle, val, args.style or bundle.cfg.train.prompt_style, seed=seed, probe=probe,
                      ddim_steps=cfg.eval.ddim_steps, max_samples=cfg.eval.samples)
    write_atomic(out_dir / "details.csv", report.details_csv_text())
    write_atomic(out_dir / "metrics.csv", report.csv_text())
    cfg.save(out_dir / "config.json")
    print((out_dir / "metrics.csv").read_text().strip())
    return 0


def _int_list(flag: str, text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def cmd_analyze_effective_area(args) -> int:
    depths = _int_list("--depths", args.depths)
    mask_sides = _int_list("--mask-sides", args.mask_sides)
    lines = []
    for d in depths:
        side = map_side(args.image_side, args.latent_factor, d)
        lines.append(f"# depth={d} map={side:g}x{side:g}")
        lines.append("mask_side,effective_side")
        for m in mask_sides:
            lines.append(f"{m},{effective_area(args.image_side, m, args.latent_factor, d)}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        write_atomic(args.out, text)
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="soekit",
        description="Small-object inpainting at desk scale: data, training, editing, evaluation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a procedural dataset")
    g.add_argument("--config", help="JSON config file (defaults apply otherwise)")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--split", default="all", choices=list(SPLITS) + ["all"],
                   help="which split to generate (default: all)")
    g.add_argument("--count", type=int, help="samples for the chosen split (default: from config)")
    g.add_argument("--seed", type=int, help="master data seed (default: from config)")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("pretrain-teacher", help="train VAE + denoiser on generic-sized objects")
    t.add_argument("--config", help="JSON config file")
    t.add_argument("--data", required=True, help="dataset directory (train-generic split)")
    t.add_argument("--out", required=True, help="output checkpoint path")
    t.set_defaults(fn=cmd_pretrain_teacher)

    tr = sub.add_parser("train", help="adapter fine-tuning with cross-scale distillation")
    tr.add_argument("--config", help="JSON config file")
    tr.add_argument("--data", required=True, help="dataset directory (train-small split)")
    tr.add_argument("--teacher", required=True, help="frozen teacher checkpoint")
    tr.add_argument("--out", required=True, help="output student checkpoint path")
    tr.set_defaults(fn=cmd_train)

    e = sub.add_parser("edit", help="inpaint a bbox with a prompted object")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--image", required=True, help="input P6 PPM")
    e.add_argument("--bbox", required=True, help="x,y,w,h in pixels")
    e.add_argument("--label", required=True)
    e.add_argument("--color", required=True)
    e.add_argument("--style", choices=PROMPT_STYLES,
                   help="prompt style (default: the checkpoint's train.prompt_style)")
    e.add_argument("--steps", type=int, help="DDIM steps (default: the checkpoint's eval.ddim_steps)")
    e.add_argument("--seed", type=int, help="noise seed (default: from config)")
    e.add_argument("--out", required=True, help="output P6 PPM path")
    e.set_defaults(fn=cmd_edit)

    ev = sub.add_parser("eval", help="masked-region metrics on the val-small split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--config", help="JSON config (default: the checkpoint's embedded config)")
    ev.add_argument("--data", required=True, help="dataset directory (val-small split)")
    ev.add_argument("--style", choices=PROMPT_STYLES,
                    help="prompt style (default: the checkpoint's train.prompt_style)")
    ev.add_argument("--seed", type=int, help="eval noise seed (default: from config)")
    ev.add_argument("--out", required=True, help="output directory for metrics.csv and details.csv")
    ev.set_defaults(fn=cmd_eval)

    a = sub.add_parser("analyze-effective-area", help="mask footprint per feature-map depth")
    a.add_argument("--image-side", type=int, default=512)
    a.add_argument("--latent-factor", type=int, default=8)
    a.add_argument("--depths", default="3", help="comma-separated U-Net depths")
    a.add_argument("--mask-sides", default="16,32,64,85,102", help="comma-separated mask sides")
    a.add_argument("--out", help="optional CSV output path")
    a.set_defaults(fn=cmd_analyze_effective_area)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
