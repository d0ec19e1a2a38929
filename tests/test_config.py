"""Scenario configuration: round trips, key spelling, strict rejection of
unknown keys and wrong scalar types, and typed file errors."""

import json
import math
import time

import pytest

from cosserat2d.config import (
    ScenarioConfig,
    SimSettings,
    load_config,
    save_config,
)
from cosserat2d.errors import ConfigError, IoError
from cosserat2d.materials import MaterialParams, ModelSelector


def test_default_round_trips_through_dict():
    cfg = ScenarioConfig.default()
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_round_trips_through_file(tmp_path):
    cfg = ScenarioConfig.default()
    cfg = ScenarioConfig(
        material=MaterialParams(mu=2.0, lam=0.5, mu_c=0.25, L_c=0.3, chi=0.1,
                                mu_s=0.7, lam_s=-1.4, mu_c_s=-0.7, m2=-0.7),
        model=ModelSelector(kind="chiral", coupling="polar"),
        grid=cfg.grid, sim=cfg.sim, wave=cfg.wave, initial=cfg.initial,
        verify=cfg.verify)
    path = tmp_path / "scenario.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg
    # the serialized spelling uses the lambda names
    raw = json.loads(path.read_text())
    assert raw["material"]["lambda"] == 0.5
    assert raw["material"]["lambda_s"] == -1.4
    assert "lam" not in raw["material"]


def test_lambda_spellings_are_read():
    cfg = ScenarioConfig.from_dict(
        {"material": {"lambda": 2.5, "lambda_s": -0.5}})
    assert cfg.material.lam == 2.5
    assert cfg.material.lam_s == -0.5


def test_unknown_keys_are_rejected_with_full_paths():
    with pytest.raises(ConfigError, match="unknown configuration key: 'lam'"):
        ScenarioConfig.from_dict({"lam": 1.0})
    with pytest.raises(ConfigError,
                       match="unknown configuration key: 'material.lam'"):
        ScenarioConfig.from_dict({"material": {"lam": 1.0}})
    with pytest.raises(ConfigError,
                       match="unknown configuration key: 'sim.step'"):
        ScenarioConfig.from_dict({"sim": {"step": 3}})


def test_scalar_types_are_strict():
    with pytest.raises(ConfigError, match="'material.mu' must be a number"):
        ScenarioConfig.from_dict({"material": {"mu": "1.0"}})
    with pytest.raises(ConfigError, match="'material.mu' must be a number"):
        ScenarioConfig.from_dict({"material": {"mu": True}})
    with pytest.raises(ConfigError, match="'grid.nx' must be an integer"):
        ScenarioConfig.from_dict({"grid": {"nx": 8.0}})
    with pytest.raises(ConfigError, match="'grid.nx' must be an integer"):
        ScenarioConfig.from_dict({"grid": {"nx": True}})
    with pytest.raises(ConfigError, match="'model.kind' must be a string"):
        ScenarioConfig.from_dict({"model": {"kind": 3}})
    # JSON's Infinity and NaN parse to floats but are no usable setting
    with pytest.raises(ConfigError,
                       match="'wave.k_max' must be a finite number, got inf"):
        ScenarioConfig.from_dict({"wave": {"k_max": math.inf}})
    with pytest.raises(ConfigError,
                       match="'material.chi' must be a finite number, got nan"):
        ScenarioConfig.from_dict({"material": {"chi": math.nan}})
    # a JSON integer too large for a double cannot be converted at all
    with pytest.raises(ConfigError,
                       match="'material.mu' must be a finite number, "):
        ScenarioConfig.from_dict({"material": {"mu": 10**400}})
    # JSON integers are accepted where floats are expected
    assert ScenarioConfig.from_dict({"material": {"mu": 2}}).material.mu == 2.0


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="section 'sim' must be a JSON object"):
        ScenarioConfig.from_dict({"sim": [1, 2]})
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        ScenarioConfig.from_dict([])


def test_value_validation_is_reported_as_config_error():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"material": {"mu": -1.0}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"grid": {"nx": 1}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"sim": {"dt": 0.0}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"model": {"kind": "quartic"}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"initial": {"kind": "sawtooth"}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"verify": {"tolerance_scale": -0.5}})
    # zero tolerance scale is allowed (it makes verification fail loudly
    # rather than being a configuration mistake)
    assert ScenarioConfig.from_dict(
        {"verify": {"tolerance_scale": 0.0}}).verify.tolerance_scale == 0.0


def test_load_errors_are_typed(tmp_path):
    with pytest.raises(IoError, match="cannot read configuration"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    # longer than Python's integer-parsing limit (4300 digits)
    bad.write_text('{"material": {"mu": 1' + "0" * 5000 + "}}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_save_errors_are_typed(tmp_path):
    cfg = ScenarioConfig.default()
    with pytest.raises(IoError, match="cannot write configuration"):
        save_config(cfg, str(tmp_path / "no_such_dir" / "out.json"))


def test_empty_object_gives_defaults_with_config_grid():
    cfg = ScenarioConfig.from_dict({})
    assert cfg.material == MaterialParams()
    assert (cfg.grid.nx, cfg.grid.ny) == (32, 32)


def test_partial_grid_takes_the_other_size_from_the_default():
    cfg = ScenarioConfig.from_dict({"grid": {"nx": 8}})
    assert (cfg.grid.nx, cfg.grid.ny) == (8, 32)
    with pytest.raises(ConfigError, match="got 2x32"):
        ScenarioConfig.from_dict({"grid": {"nx": 2}})


def test_snapshot_count_is_the_number_of_steps_that_write_one():
    for steps in range(51):
        for output_every in range(1, 8):
            sim = SimSettings(steps=steps, output_every=output_every)
            assert sim.snapshot_count() == sum(
                map(sim.writes_snapshot, range(steps + 1))), (steps,
                                                                output_every)
    # In closed form: no loop over the steps, however many there are.
    start = time.perf_counter()
    assert SimSettings(steps=10**20, output_every=3).snapshot_count() == (
        10**20 // 3 + 2)
    assert time.perf_counter() - start < 0.1
