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

from .env import EnvConfig
from .agents import TdConfig, PpoConfig

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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        self.env.validate()
        self.td.validate()
        self.ppo.validate()

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "env": dataclasses.asdict(self.env),
            "td": dataclasses.asdict(self.td),
            "ppo": dataclasses.asdict(self.ppo),
        }


def config_digest(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonical JSON serialization."""
    return digest_bytes(canonical_bytes(cfg))


def canonical_bytes(cfg: ExperimentConfig) -> bytes:
    return json.dumps(cfg.to_dict(), sort_keys=True, indent=2).encode()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _build_section(cls, section: dict, name: str):
    """Instantiate a config dataclass from a dict, rejecting unknown keys."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in section.items():
        field_name = _SECTION_KEY_ALIASES.get(key, key)
        if field_name not in fields:
            raise ValueError(f"unknown key {name}.{key}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[field_name] = value
    return cls(**kwargs)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    known = {"algorithm", "seed", "output_dir", "env", "physics", "td", "ppo"}
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown key {key}")
    algorithm = raw.get("algorithm")
    if not algorithm:
        raise ValueError("missing required field: algorithm")
    if "seed" not in raw:
        raise ValueError("missing required field: seed")

    env_section = dict(raw.get("env") or {})
    # Physical constants may live in a dedicated section; they land on
    # the environment, which owns the Hamiltonian constants.
    physics = raw.get("physics") or {}
    for key in physics:
        if key not in ("u", "ez", "eps_init", "tun_init", "eps_bounds", "tun_bounds"):
            raise ValueError(f"unknown key physics.{key}")
        env_section[key] = physics[key]

    cfg = ExperimentConfig(
        algorithm=str(algorithm),
        seed=int(raw["seed"]),
        output_dir=str(raw.get("output_dir", "runs/out")),
        env=_build_section(EnvConfig, env_section, "env"),
        td=_build_section(TdConfig, dict(raw.get("td") or {}), "td"),
        ppo=_build_section(PpoConfig, dict(raw.get("ppo") or {}), "ppo"),
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
