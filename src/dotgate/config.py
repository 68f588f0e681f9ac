"""Experiment configuration: YAML parsing, validation, canonical digests.

Defaults follow the physical constants and hyperparameters baked into
EnvConfig / TdConfig / PpoConfig.  Unknown keys are rejected so typos
fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import yaml

from .agents import TdConfig, PpoConfig
from .env import EnvConfig
from .sim import check_fields, check_type, field_types

ALGORITHMS = ("qlearning", "sarsa", "ppo")

# Keys of every section may use the spec-facing names; map onto dataclass fields.
_SECTION_KEY_ALIASES = {"lambda": "lam"}


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    seed: int
    env: EnvConfig
    td: TdConfig
    ppo: PpoConfig
    output_dir: str = "runs/out"

    def validate(self) -> None:
        check_fields(self)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ValueError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        self.env.validate()
        self.td.validate()
        self.ppo.validate()


def config_digest(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonical JSON serialization."""
    return digest_bytes(canonical_bytes(cfg))


def canonical_bytes(cfg: ExperimentConfig) -> bytes:
    """Sorted-key JSON of every field of ``cfg`` and of its sections."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2).encode()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _build_section(cls, section: dict, name: str):
    """Instantiate a config dataclass from a dict, rejecting unknown keys
    and scalars of the wrong type."""
    types = field_types(cls)
    kwargs = {}
    for key, value in section.items():
        field_name = _SECTION_KEY_ALIASES.get(key, key)
        if field_name not in types:
            raise ValueError(f"unknown key {name}.{key}")
        check_type(types[field_name], value, f"{name}.{key}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[field_name] = value
    return cls(**kwargs)


def _section(raw: dict, name: str) -> dict:
    """A copy of section ``name``; an absent or null section is empty, and
    any other value that is not a mapping raises ValueError naming it."""
    section = raw.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a mapping, got {type(section).__name__}")
    return dict(section)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    known = {"algorithm", "seed", "output_dir", "env", "physics", "td", "ppo"}
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown key {key}")
    for key in ("algorithm", "seed"):
        if key not in raw:
            raise ValueError(f"missing required field: {key}")

    env_section = _section(raw, "env")
    # Physical constants may live in a dedicated section; they land on
    # the environment, which owns the Hamiltonian constants.
    physics = _section(raw, "physics")
    for key in physics:
        if key not in ("u", "ez", "eps_init", "tun_init", "eps_bounds", "tun_bounds"):
            raise ValueError(f"unknown key physics.{key}")
        check_type(field_types(EnvConfig)[key], physics[key], f"physics.{key}")
        if key in env_section:
            raise ValueError(f"physics.{key} and env.{key} both set")
        env_section[key] = physics[key]

    cfg = ExperimentConfig(
        algorithm=raw["algorithm"],
        seed=raw["seed"],
        output_dir=raw.get("output_dir", "runs/out"),
        env=_build_section(EnvConfig, env_section, "env"),
        td=_build_section(TdConfig, _section(raw, "td"), "td"),
        ppo=_build_section(PpoConfig, _section(raw, "ppo"), "ppo"),
    )
    cfg.validate()
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config file."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raise ValueError(f"{path} is empty")
    return config_from_dict(raw)
