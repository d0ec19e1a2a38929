"""Benchmark workloads: scenario configs generated from the workload seed.

Each workload is one or more ``cosserat2d`` subcommands run through
``cosserat2d.cli.main`` on a config written from the seed.  The seed picks
the material (moduli drawn within +-20% of the package defaults, starred and
mixing moduli drawn for the chiral model) and the random initial state, so a
claim can be re-checked on a seed that was not used while it was written.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Relative energy drift a simulate run may show before it counts as wrong.
#: The acceptance suite allows 1e-3 over 1000 steps; these runs are far
#: shorter at a smaller time step, so this bound has a wide margin.
DRIFT_LIMIT = 1e-3

#: Verify checks known to fail at the seed commit on ``analysis_256``:
#: the finite-difference check of the interaction term fails at >= 192^2
#: when ``chi != 0``.  They are counted in ``verify_failed_checks``; any
#: other failing check makes the run incorrect.
KNOWN_FAILING_CHECKS = frozenset({"fd_gradient_interaction"})

#: Leapfrog step as a fraction of the grid spacing.  With every sampled
#: material the fastest wave speed is below 2.2, so the Courant number
#: ``c * dt / h`` stays below 0.09.
DT_PER_H = 0.04


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    #: Subcommands in order; each is run as
    #: ``main([cmd, "--config", <file>, "--out", <dir>])``.
    commands: tuple[str, ...]
    #: Allowed exit code of each command (3 = a verification check failed).
    exit_codes: tuple[frozenset, ...]

    @property
    def grid(self) -> tuple[int, int]:
        return self.config["grid"]["nx"], self.config["grid"]["ny"]

    @property
    def steps(self) -> int:
        return self.config["sim"]["steps"] if "simulate" in self.commands else 0

    @property
    def model(self) -> str:
        return self.config["model"]["kind"]

    def snapshot_steps(self) -> list[int]:
        sim = self.config["sim"]
        return [s for s in range(self.steps + 1)
                if s == 0 or s % sim["output_every"] == 0 or s == self.steps]

    def expected_files(self) -> list[str]:
        files = []
        if "simulate" in self.commands:
            files.append("timeseries.csv")
            files += ["snapshot_%06d.csv" % s for s in self.snapshot_steps()]
        if "verify" in self.commands:
            files.append("verify_report.csv")
        if "dispersion" in self.commands:
            files += ["dispersion.csv", "ratio_velocity.csv"]
        if "reduce3d" in self.commands:
            files.append("reduction_report.csv")
        return sorted(files)

    def argv(self, config_path: str, outdir: str) -> list[list[str]]:
        return [[cmd, "--config", config_path, "--out", outdir]
                for cmd in self.commands]


def _material(seed: int, chiral: bool) -> dict:
    rng = random.Random(seed)
    material = {
        "mu": rng.uniform(0.8, 1.2),
        "lambda": rng.uniform(0.8, 1.2),
        "mu_c": rng.uniform(0.8, 1.2),
        "L_c": rng.uniform(0.08, 0.12),
        "chi": 0.3,
        "rho": rng.uniform(0.9, 1.1),
        "rho_rot": rng.uniform(0.9, 1.1),
    }
    starred = {
        "mu_s": rng.uniform(0.1, 0.2),
        "lambda_s": rng.uniform(0.05, 0.15),
        "mu_c_s": rng.uniform(0.1, 0.2),
        "m1": rng.uniform(0.02, 0.06),
        "m2": rng.uniform(0.02, 0.06),
        "m3": rng.uniform(0.02, 0.06),
    }
    if chiral:
        material.update(starred)
    return material


def _config(seed: int, n: int, *, chiral: bool = False, steps: int = 0,
            output_every: int = 1) -> dict:
    return {
        "material": _material(seed, chiral),
        "model": ({"kind": "chiral"} if chiral
                  else {"kind": "nonchiral", "coupling": "polar"}),
        "grid": {"nx": n, "ny": n, "lx": 1.0, "ly": 1.0},
        "sim": {"dt": DT_PER_H / n, "steps": steps,
                "output_every": output_every, "eps_reg": 1e-8},
        "wave": {"k_min": 40.0 / 3000, "k_max": 40.0, "k_steps": 3000},
        "initial": {"kind": "random_smooth", "seed": seed,
                    "amplitude": 0.01, "modes": 3},
        "verify": {"tolerance_scale": 1.0},
    }


_OK = frozenset({0})
_OK_OR_CHECK_FAILED = frozenset({0, 3})


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs generated from ``seed``."""
    if name == "sim_polar_256":
        return Workload(name, _config(seed, 256, steps=40, output_every=40),
                        ("simulate",), (_OK,))
    if name == "sim_chiral_io_128":
        return Workload(name, _config(seed, 128, chiral=True, steps=20,
                                      output_every=1),
                        ("simulate",), (_OK,))
    if name == "analysis_256":
        return Workload(name, _config(seed, 256),
                        ("verify", "dispersion", "reduce3d"),
                        (_OK_OR_CHECK_FAILED, _OK, _OK_OR_CHECK_FAILED))
    raise KeyError(name)


NAMES = ("sim_polar_256", "sim_chiral_io_128", "analysis_256")
