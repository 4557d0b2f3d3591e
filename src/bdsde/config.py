"""Experiment configuration: flat INI-style sections, strictly validated.

Unknown sections or keys are hard errors; silent typos are the dominant
failure mode in numeric experiments.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigError

SCHEMA = {
    "problem": {"name": (str, None), "backend": (str, None)},
    "grid": {"t0": (float, 0.0), "horizon": (float, 1.0), "n_steps": (int, None)},
    "spatial": {"x_steps": (int, 400), "span_sigmas": (float, 6.0)},
    "mc": {"n_paths": (int, 100_000), "basis_degree": (int, 3), "workers": (int, 1)},
    "volgrid": {"a_low": (float, None), "a_high": (float, None), "n_points": (int, 5)},
    "seeds": {"w_seed": (int, 7), "b_seed": (int, 11), "w_ensemble": (int, 1)},
    "outputs": {"csv": (str, ""), "precision": (int, 17)},
    "tolerances": {"y0_rel": (float, None)},
}

REQUIRED = {"problem": ("name", "backend"), "grid": ("n_steps",)}
# the least value of each integer key that has one
MINIMA = (("grid", "n_steps", 1), ("spatial", "x_steps", 1), ("mc", "n_paths", 1),
          ("mc", "basis_degree", 0), ("mc", "workers", 1), ("seeds", "w_ensemble", 1),
          ("outputs", "precision", 1))


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def get(self, section, key):
        return self.values[section][key]

    def set(self, section, key, value):
        self.values.setdefault(section, {})[key] = value

    def canonical_lines(self):
        lines = []
        for sec in sorted(self.values):
            for key in sorted(self.values[sec]):
                v = self.values[sec][key]
                if v is None:
                    continue
                lines.append(f"{sec}.{key}={v!r}")
        return lines

    @property
    def config_hash(self) -> str:
        return hashlib.sha256("\n".join(self.canonical_lines()).encode()).hexdigest()[:16]

    @classmethod
    def from_defaults(cls, **overrides) -> "ExperimentConfig":
        values = {sec: {k: default for k, (_, default) in keys.items()}
                  for sec, keys in SCHEMA.items()}
        cfg = cls(values=values)
        for dotted, v in overrides.items():
            sec, key = dotted.split(".", 1)
            cfg._apply(sec, key, v)
        return cfg

    def _apply(self, sec, key, raw):
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        if key not in SCHEMA[sec]:
            raise ConfigError(f"unknown key {key!r} in section [{sec}]")
        typ, _ = SCHEMA[sec][key]
        try:
            self.values[sec][key] = typ(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{sec}] {key}: cannot parse {raw!r} as {typ.__name__}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        cfg = cls.from_defaults()
        for sec in parser.sections():
            if sec not in SCHEMA:
                raise ConfigError(f"unknown section [{sec}] in {path}")
            for key, raw in parser.items(sec):
                cfg._apply(sec, key, raw)
        cfg.validate()
        return cfg

    def validate(self):
        for sec, keys in REQUIRED.items():
            for key in keys:
                if self.values.get(sec, {}).get(key) is None:
                    raise ConfigError(f"missing required field [{sec}] {key}")
        for sec, key, least in MINIMA:
            if self.get(sec, key) < least:
                raise ConfigError(f"[{sec}] {key} must be >= {least}")
        if self.get("grid", "horizon") <= self.get("grid", "t0"):
            raise ConfigError("[grid] horizon must exceed t0")
        if not 0.0 < self.get("spatial", "span_sigmas") < math.inf:
            raise ConfigError("[spatial] span_sigmas must be positive and finite")
        y0_rel = self.get("tolerances", "y0_rel")
        if y0_rel is not None and not 0.0 <= y0_rel < math.inf:
            raise ConfigError(f"[tolerances] y0_rel must be nonnegative and finite, got {y0_rel!r}")
        if (self.get("volgrid", "a_low") is None) != (self.get("volgrid", "a_high") is None):
            raise ConfigError("[volgrid] set both a_low and a_high, or neither")
