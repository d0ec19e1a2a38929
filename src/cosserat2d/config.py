"""Scenario configuration: strict JSON schema with typed sections.

The file layout mirrors the run ingredients: material constants, model
selection, grid geometry, time-integration settings, dispersion-sweep range,
initial condition, and verification options.  Unknown keys anywhere are
rejected (with their full path) rather than silently ignored, and the Lamé
constant is spelled ``lambda`` / ``lambda_s`` in JSON (it is a reserved word
in Python, so the dataclass fields are ``lam`` / ``lam_s``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from .energy import DEFAULT_EPS_REG
from .errors import ConfigError, IoError
from .fields import Grid
from .materials import MaterialParams, ModelSelector

INITIAL_KINDS = ("zero", "random_smooth", "plane_wave")


@dataclass(frozen=True)
class SimSettings:
    """Time-integration controls."""

    dt: float = 0.01
    steps: int = 100
    output_every: int = 10
    eps_reg: float = DEFAULT_EPS_REG

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"sim.dt must be positive, got {self.dt}")
        if self.steps < 0:
            raise ConfigError(f"sim.steps must be nonnegative, got {self.steps}")
        if self.output_every < 1:
            raise ConfigError(
                f"sim.output_every must be at least 1, got {self.output_every}")
        if self.eps_reg < 0:
            raise ConfigError(
                f"sim.eps_reg must be nonnegative, got {self.eps_reg}")

    def writes_snapshot(self, step: int) -> bool:
        """Whether step ``step`` of a run writes a snapshot: every
        ``output_every``-th step, counting the initial state as step 0, and
        the last."""
        return step % self.output_every == 0 or step == self.steps

    def snapshot_count(self) -> int:
        """How many steps of a run write a snapshot: the multiples of
        ``output_every`` from step 0, and the last step if it is not one."""
        return (self.steps // self.output_every + 1
                + (self.steps % self.output_every != 0))


@dataclass(frozen=True)
class WaveSweep:
    """Wavenumber range for the dispersion sweep."""

    k_min: float = 0.1
    k_max: float = 10.0
    k_steps: int = 50

    def __post_init__(self):
        if not 0 < self.k_min <= self.k_max:
            raise ConfigError(
                f"wave range must satisfy 0 < k_min <= k_max, got "
                f"[{self.k_min}, {self.k_max}]")
        if self.k_steps < 1:
            raise ConfigError(
                f"wave.k_steps must be at least 1, got {self.k_steps}")
        # The sweep's largest array, the amplitudes of up to three branches
        # a wavenumber, holds 144 bytes a wavenumber.
        if 144 * self.k_steps > np.iinfo(np.intp).max:
            raise ConfigError(f"wave.k_steps = {self.k_steps} is too large "
                              f"for numpy to address its arrays")


@dataclass(frozen=True)
class InitialCondition:
    """Initial state selector; fields beyond `kind` apply to the kinds that
    use them (seed/amplitude/modes for random_smooth, k/branch for
    plane_wave) and are carried inertly otherwise."""

    kind: str = "zero"
    seed: int = 1234
    amplitude: float = 0.01
    modes: int = 3
    k: float = 1.0
    branch: int = 0

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ConfigError(
                f"initial.kind must be one of {INITIAL_KINDS}, got "
                f"{self.kind!r}")
        if self.modes < 0:
            raise ConfigError(
                f"initial.modes must be nonnegative, got {self.modes}")
        if not self.amplitude >= 0:
            raise ConfigError(
                f"initial.amplitude must be nonnegative, got {self.amplitude}")
        if not self.k > 0:
            raise ConfigError(f"initial.k must be positive, got {self.k}")
        if not 0 <= self.branch <= 2:
            raise ConfigError(
                f"initial.branch must be 0, 1 or 2, got {self.branch}")


@dataclass(frozen=True)
class VerifySettings:
    tolerance_scale: float = 1.0

    def __post_init__(self):
        if not self.tolerance_scale >= 0:
            raise ConfigError(
                f"verify.tolerance_scale must be nonnegative, got "
                f"{self.tolerance_scale}")


@dataclass(frozen=True)
class ScenarioConfig:
    material: MaterialParams
    model: ModelSelector
    grid: Grid
    sim: SimSettings
    wave: WaveSweep
    initial: InitialCondition
    verify: VerifySettings

    @classmethod
    def default(cls) -> "ScenarioConfig":
        return cls.from_dict({})

    def to_dict(self) -> dict:
        return {name: {_JSON_NAMES.get(key, key): value
                       for key, value in section.items()}
                for name, section in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        sections = get_type_hints(cls)
        _reject_unknown(data, sections, path="")
        return cls(**{name: _build(factory, data.get(name, {}), name)
                      for name, factory in sections.items()})


#: JSON spelling of the fields whose Python name is not usable there
#: (``lambda`` is a reserved word in Python).
_JSON_NAMES = {"lam": "lambda", "lam_s": "lambda_s"}


def _reject_unknown(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown configuration key: {where!r}")


def _coerce_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where!r} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the largest double
        raise ConfigError(f"{where!r} must be a finite number, got an "
                          f"integer too large for a double") from None
    if not finite:
        raise ConfigError(f"{where!r} must be a finite number, got {value!r}")
    return float(value)


def _coerce_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where!r} must be an integer, got {value!r}")
    return value


def _coerce_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where!r} must be a string, got {value!r}")
    return value


_COERCE = {float: _coerce_float, int: _coerce_int, str: _coerce_str}


def _build(factory, section, path):
    """Construct a section dataclass from its JSON object, enforcing key
    and scalar-type strictness from the dataclass's field annotations;
    value-range validation lives in the dataclasses themselves."""
    if not isinstance(section, dict):
        raise ConfigError(f"section {path!r} must be a JSON object")
    schema = {_JSON_NAMES.get(name, name): (name, _COERCE[kind])
              for name, kind in get_type_hints(factory).items()}
    _reject_unknown(section, schema, path)
    kwargs = {}
    for key, value in section.items():
        name, coerce = schema[key]
        kwargs[name] = coerce(value, f"{path}.{key}")
    return factory(**kwargs)


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a JSON scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read configuration {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ConfigError(f"configuration {path!r} is not valid JSON: {exc}")
    return ScenarioConfig.from_dict(data)


def save_config(config: ScenarioConfig, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write configuration {path!r}: {exc}") from exc
