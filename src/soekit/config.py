"""Run configuration: a JSON document with sections and strict key checking.

Every field has a default; unknown keys are rejected with the offending
section and key named. A loaded config re-serialises to a semantically
identical document (lists stay lists, numbers keep their values).
"""

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from soekit.data import PROMPT_STYLES, SPLITS, split_sides

LATENT_FACTOR = 4  # the VAE's spatial downscale: its two stride-2 encoder convs


@dataclass
class DataSection:
    image_side: int = 64
    train_small_count: int = 384
    train_generic_count: int = 384
    val_small_count: int = 64
    seed: int = 0


@dataclass
class ScheduleSection:
    timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02


@dataclass
class ModelSection:
    latent_channels: int = 4
    base_width: int = 32
    depth: int = 2
    cond_dim: int = 32
    time_dim: int = 32
    groups: int = 8


@dataclass
class LoraSection:
    rank: int = 4
    alpha: float = 1.0
    blocks: list = field(default_factory=lambda: ["mid", "down1_up1", "down0_up3"])
    init_std: float = 0.01


@dataclass
class TrainSection:
    steps: int = 2000
    batch_size: int = 4
    lr: float = 2e-3
    optimizer: str = "adam"
    crop_size: int = 32
    distill_weight: float = 0.01
    vae_weight: float = 1.0
    distill_loss: str = "huber"      # or "mse"
    huber_delta: float = 1.0
    use_adapters: bool = True
    use_distill: bool = True
    use_vae_tuning: bool = False
    prompt_style: str = "color_label"
    pretrain_vae_steps: int = 700
    pretrain_steps: int = 2600
    pretrain_lr: float = 2e-3
    seed: int = 0


@dataclass
class EvalSection:
    ddim_steps: int = 10
    samples: int = 64
    probe_seed: int = 7
    probe_train_count: int = 1500
    probe_steps: int = 700
    probe_lr: float = 2e-3
    seed: int = 0


_SECTIONS = {
    "data": DataSection,
    "schedule": ScheduleSection,
    "model": ModelSection,
    "lora": LoraSection,
    "train": TrainSection,
    "eval": EvalSection,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    data: DataSection = field(default_factory=DataSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    model: ModelSection = field(default_factory=ModelSection)
    lora: LoraSection = field(default_factory=LoraSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
        unknown = set(doc) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        kwargs = {}
        for name, section_cls in _SECTIONS.items():
            body = doc.get(name, {})
            if not isinstance(body, dict):
                raise ConfigError(f"section {name!r} must be an object")
            known = {f.name for f in fields(section_cls)}
            bad = set(body) - known
            if bad:
                raise ConfigError(f"unknown key(s) in section {name!r}: {sorted(bad)}")
            kwargs[name] = section_cls(**body)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: invalid JSON ({e})") from None
        return cls.from_dict(doc)

    def save(self, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def validate(self):
        """Coherence checks; raises ConfigError on violation.

        Every count, size and step (each int field but the seeds) is an
        integer of at least 1, and both learning rates are above 0. The image
        side must survive the VAE and every U-Net downsample evenly, and leave
        each data split at least one legal object side.
        """
        for name, section_cls in _SECTIONS.items():
            for f in fields(section_cls):
                key, value = f"{name}.{f.name}", getattr(getattr(self, name), f.name)
                if f.type is int and not f.name.endswith("seed"):  # every count, size and step
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ConfigError(f"{key} must be an integer, got {value!r}")
                    if value < 1:
                        raise ConfigError(f"{key} must be >= 1, got {value}")
                if key in ("train.lr", "train.pretrain_lr"):
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ConfigError(f"{key} must be a number, got {value!r}")
                    if value <= 0:  # a NaN passes here and is refused by the first step's non-finite loss
                        raise ConfigError(f"{key} must be > 0, got {value}")
        img = self.data.image_side
        step = LATENT_FACTOR * 2 ** self.model.depth
        if img % step:
            raise ConfigError(f"data.image_side {img} not divisible by {step} "
                              f"(latent factor {LATENT_FACTOR} x 2**model.depth)")
        try:
            sides = {split: split_sides(split, img) for split in SPLITS}
        except ValueError as e:
            raise ConfigError(f"data.image_side {img} leaves a data split no legal object side: {e}") from None
        if self.train.crop_size >= img:
            raise ConfigError(f"crop_size {self.train.crop_size} must be < image side {img}")
        max_mask_side = sides["train-small"][-1]
        if self.train.crop_size < 2 * max_mask_side:
            raise ConfigError(
                f"crop_size {self.train.crop_size} must be >= 2x the largest training "
                f"mask side ({max_mask_side}) so the teacher view at least doubles the mask"
            )
        if self.train.distill_loss not in ("huber", "mse"):
            raise ConfigError(f"distill_loss must be 'huber' or 'mse', got {self.train.distill_loss!r}")
        if self.train.prompt_style not in PROMPT_STYLES:
            raise ConfigError(f"unknown prompt_style {self.train.prompt_style!r}")
        if self.train.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.train.optimizer!r}")
        return self
