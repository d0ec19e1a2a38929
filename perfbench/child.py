"""One benchmark repetition, run in a fresh single-threaded process.

Usage: ``python3 perfbench/child.py <spec.json>``, where the spec (written
by ``run.py``) names the package source directory, the config file, the
command lines, whether to trace, and where to write the JSON report.

The set-up is timed in three parts: importing ``cosserat2d.cli``,
``load_config`` and ``build_initial_state``.  Each command then runs through
``cosserat2d.cli.main`` and is timed on its own.  The calibration kernel
(``calibrate.py``) is timed just before the first command and just after
the last, so that the commands' time can be set against the host's speed.
With tracing on, spans are recorded around the calls into each module (see
``spans.py``), and one right-hand side and one ``total_energy`` call are
repeated under ``tracemalloc`` to measure the bytes they allocate.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import tracemalloc


def _allocated_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _allocations(cfg, state) -> dict:
    """Peak bytes allocated by one right-hand side and one energy call on
    the initial state (allocated, not moved: the arrays fit in cache)."""
    from cosserat2d import dynamics, energy

    p, sel, eps_reg = cfg.material, cfg.model, cfg.sim.eps_reg
    if sel.is_chiral:
        def rhs():
            return dynamics.rhs_chiral(state, p)
    else:
        def rhs():
            return dynamics.rhs_nonlinear(state, p, coupling=sel.coupling,
                                          eps_reg=eps_reg)
    return {
        "rhs_alloc_mb": _allocated_mb(rhs),
        "total_energy_alloc_mb": _allocated_mb(
            lambda: energy.total_energy(state, p, sel, eps_reg=eps_reg)),
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import cosserat2d.cli as cli
    t1 = time.perf_counter()
    cfg = cli.load_config(spec["config"])
    t2 = time.perf_counter()
    state = cli.build_initial_state(cfg)
    t3 = time.perf_counter()

    import calibrate  # after the set-up, whose time includes numpy's import

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(sys.modules)

    calibrate.run()  # warm-up
    calibration_s = [calibrate.run()]
    exit_codes, command_s = [], []
    for argv in spec["commands"]:
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli.main", cli.main, argv)
        command_s.append(time.perf_counter() - start)
        exit_codes.append(code)
    calibration_s.append(calibrate.run())

    import numpy

    report = {
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "initial_state_s": t3 - t2,
        "command_s": command_s,
        "calibration_s": calibration_s,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
        if spec["measure_alloc"]:
            report.update(_allocations(cfg, state))
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
