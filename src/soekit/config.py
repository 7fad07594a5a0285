"""Run configuration: a JSON document with sections and strict key checking.

Every field has a default; unknown keys are rejected with the offending
section and key named. A loaded config re-serialises to a semantically
identical document (lists stay lists, numbers keep their values).
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path


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
    latent_factor: int = 4
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
    unmasked_vae_loss: bool = False
    prompt_style: str = "color_label"
    pretrain_vae_steps: int = 700
    pretrain_steps: int = 2600
    pretrain_lr: float = 2e-3
    seed: int = 0


@dataclass
class EvalSection:
    ddim_steps: int = 10
    samples: int = 64
    batch_size: int = 8
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
        """Cross-section coherence checks; raises ConfigError on violation."""
        img = self.data.image_side
        if self.train.crop_size >= img:
            raise ConfigError(f"crop_size {self.train.crop_size} must be < image side {img}")
        # largest train-small bbox side: the biggest integer strictly below img/8
        max_mask_side = math.ceil(img / 8.0) - 1
        if self.train.crop_size < 2 * max_mask_side:
            raise ConfigError(
                f"crop_size {self.train.crop_size} must be >= 2x the largest training "
                f"mask side ({max_mask_side}) so the teacher view at least doubles the mask"
            )
        if self.train.distill_loss not in ("huber", "mse"):
            raise ConfigError(f"distill_loss must be 'huber' or 'mse', got {self.train.distill_loss!r}")
        if self.train.prompt_style not in ("label_only", "color_label"):
            raise ConfigError(f"unknown prompt_style {self.train.prompt_style!r}")
        if self.train.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.train.optimizer!r}")
        bs = self.eval.batch_size
        if type(bs) is not int or bs < 1:
            raise ConfigError(f"eval.batch_size must be an integer >= 1, got {bs!r}")
        lf = self.model.latent_factor
        if lf < 1:
            raise ConfigError(f"model.latent_factor must be >= 1, got {lf!r}")
        if img % lf:
            raise ConfigError(f"image side {img} not divisible by latent factor {lf}")
        return self
