"""Run configuration: a JSON document with sections and strict key checking.

Every field has a default; unknown keys are rejected with the offending
section and key named. A loaded config re-serialises to a semantically
identical document (lists stay lists, numbers keep their values).

Each field's rule sits beside its default: the annotated type, plus any bound
or choices declared through `rule`. `validate` applies them all in one loop,
then the cross-field rules. An int field with no declared bound is a count,
size or step and must be at least 1. No bound refuses NaN, so a NaN (like an
infinity within its bound) reaches the first step's non-finite guard. Which
adapter blocks exist depends on model.depth, so `lora.attach` checks the
names in lora.blocks.
"""

import json
import operator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from soekit.data import PROMPT_STYLES, SPLITS, split_sides
from soekit.optim import OPTIMIZERS

LATENT_FACTOR = 4  # the VAE's spatial downscale: its two stride-2 encoder convs
DISTILL_LOSSES = ("huber", "mse")

_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "a list of strings"}
_TESTS = {"least": (">=", operator.lt), "above": (">", operator.le), "below": ("<", operator.ge),  # none breaks for NaN
          "choices": ("one of", lambda value, choices: value not in choices)}


def rule(default, **rules):
    """A field default with its declared rules: least, above, below or choices (a list)."""
    return field(default=default, metadata=rules)


def _broken(f, value) -> str:
    """The rule of field f that value breaks, or '' if it keeps them all."""
    kinds = (int, float) if f.type is float else f.type
    if (not isinstance(value, kinds) or isinstance(value, bool) != (f.type is bool)
            or f.type is list and not all(isinstance(v, str) for v in value)):
        return _KINDS[f.type]
    for name, bound in (f.metadata or ({"least": 1} if f.type is int else {})).items():
        if _TESTS[name][1](value, bound):
            return f"{_TESTS[name][0]} {bound}"
    return ""


@dataclass
class DataSection:
    image_side: int = 64
    train_small_count: int = 384
    train_generic_count: int = 384
    val_small_count: int = 64
    seed: int = rule(0, least=0)


@dataclass
class ScheduleSection:
    timesteps: int = 1000
    beta_start: float = rule(1e-4, above=0, below=1)
    beta_end: float = rule(0.02, above=0, below=1)


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
    alpha: float = rule(1.0, above=0)
    blocks: list = field(default_factory=lambda: ["mid", "down1_up1", "down0_up3"])
    init_std: float = rule(0.01, above=0)


@dataclass
class TrainSection:
    steps: int = 2000
    batch_size: int = 4
    lr: float = rule(2e-3, above=0)
    optimizer: str = rule("adam", choices=list(OPTIMIZERS))
    crop_size: int = 32
    distill_weight: float = rule(0.01, least=0)
    vae_weight: float = rule(1.0, least=0)
    distill_loss: str = rule("huber", choices=list(DISTILL_LOSSES))
    huber_delta: float = rule(1.0, above=0)
    use_adapters: bool = True
    use_distill: bool = True
    use_vae_tuning: bool = False
    prompt_style: str = rule("color_label", choices=list(PROMPT_STYLES))
    pretrain_vae_steps: int = 700
    pretrain_steps: int = 2600
    pretrain_lr: float = rule(2e-3, above=0)
    seed: int = rule(0, least=0)


@dataclass
class EvalSection:
    ddim_steps: int = 10
    samples: int = 64
    probe_seed: int = rule(7, least=0)
    probe_train_count: int = 1500
    probe_steps: int = 700
    probe_lr: float = rule(2e-3, above=0)
    seed: int = rule(0, least=0)


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

        Each field's declared rule (see `rule`) is applied first, and each
        error reads `<section>.<key> must be <rule>, got <value>`. An int with
        no declared bound must be at least 1; NaN passes every bound and
        reaches the first step's non-finite guard. Then the cross-field rules:
        the image side must survive the VAE and every U-Net downsample evenly
        and leave each data split at least one legal object side, the crop
        size must fit it, and model.groups must divide model.base_width.
        """
        for name, section_cls in _SECTIONS.items():
            for f in fields(section_cls):
                value = getattr(getattr(self, name), f.name)
                broken = _broken(f, value)
                if broken:
                    raise ConfigError(f"{name}.{f.name} must be {broken}, got {value!r}")
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
            raise ConfigError(f"train.crop_size {self.train.crop_size} must be < data.image_side {img}")
        max_mask_side = sides["train-small"][-1]
        if self.train.crop_size < 2 * max_mask_side:
            raise ConfigError(
                f"train.crop_size {self.train.crop_size} must be >= 2x the largest training "
                f"mask side ({max_mask_side}) so the teacher view at least doubles the mask"
            )
        if self.model.base_width % self.model.groups:
            raise ConfigError(f"model.base_width {self.model.base_width} must be divisible by "
                              f"model.groups {self.model.groups}")
        return self
