"""``solve_iter``: in-process labelling sweep on an iterative solver tier.

One operation is one ``ThermalService.solve`` call on a block of
``BLOCK`` fresh, spatially varying GRF power maps of experiment A at a
33^3 grid.  The memory budget keeps the direct tier's LU estimate out of
reach, so ``solver="auto"`` routes to an iterative tier.  The run solves
blocks until ``--seconds`` have passed, then one superposition block.
"""

from __future__ import annotations

import time

import common

GRID = (33, 33, 33)
BLOCK = 4
#: 32 MiB: the farm gets half, below the 33^3 LU estimate (~0.6 GB) and
#: below the three CSR copies block_cg needs (~19 MB).
MEMORY_BUDGET = 32 * 1024 * 1024
RESIDUAL_TOL = 1e-10
ENERGY_TOL = 1e-8
SUPERPOSITION_TOL_K = 1e-8


def _setup(import_start: float, tracer=None):
    """Imports, compile and operator build."""
    from repro.api import ThermalService, scenario_experiment_a
    from repro.fdm import assemble_stencil
    from repro.geometry import StructuredGrid

    scenario = scenario_experiment_a(scale="ci")
    service = ThermalService(solver="auto", memory_budget=MEMORY_BUDGET,
                             workers=1, cache_dir=common.WORK / "registry")
    span = tracer.begin("api.compile") if tracer else None
    setup = service.setup(scenario)
    if span:
        tracer.end(span)
    grid = StructuredGrid(setup.model.config.chip, GRID)
    design = draw_designs(service, scenario, 0, 1)[0]
    problem = setup.model.concrete_config(design).heat_problem(grid)
    assemble_stencil(problem)
    return service, scenario, setup, grid, time.perf_counter() - import_start


def draw_designs(service, scenario, seed: int, count: int):
    """``count`` GRF power-map designs drawn from ``seed``."""
    raws = service.sample_designs(scenario, count, seed=seed)
    return [{name: batch[i] for name, batch in raws.items()}
            for i in range(count)]


def install_solver_spans(tracer) -> None:
    """Wrap the solve path's layers at the names its callers resolve."""
    from repro.api import ThermalService
    from repro.fdm import farm
    from repro.fdm.krylov import StencilCore

    def pcg_before(span, args, kwargs):
        basis = kwargs.get("basis")
        span[6]["deflation_dim"] = 0 if basis is None else basis.m
        span[6]["tier"] = "block_cg" if basis is None else "recycled"

    def pcg_after(span, result, args, kwargs):
        span[6]["iterations"] = int(result[1].max())

    tracer.wrap(ThermalService, "solve", "api.solve")
    tracer.wrap(farm.SolveFarm, "solve_many", "fdm.farm.solve_many")
    tracer.wrap(farm, "assemble_rhs", "fdm.assembly.rhs")
    tracer.wrap(farm, "block_pcg", "fdm.krylov.block_pcg",
                before=pcg_before, after=pcg_after)
    tracer.wrap(StencilCore, "apply", "fdm.krylov.operator_apply")


def solver_layers(tracer) -> dict:
    """Per-layer solve metrics from the spans of a traced phase."""
    solves = tracer.by_name("api.solve")
    many = {s[4]: s for s in tracer.by_name("fdm.farm.solve_many")}
    pcg = tracer.by_name("fdm.krylov.block_pcg")
    applies = tracer.by_name("fdm.krylov.operator_apply")
    overhead = [(s[3] - s[2]) - (many[s[0]][3] - many[s[0]][2])
                for s in solves if s[0] in many]
    blocks = max(1, len(solves))
    return {
        "fdm.farm.solve_many_ms": tracer.mean_ms("fdm.farm.solve_many"),
        "fdm.assembly.rhs_ms": tracer.mean_ms("fdm.assembly.rhs"),
        "api.solve_overhead_ms": common.mean(overhead) * 1e3,
        "fdm.krylov.iterations_per_block":
            sum(s[6]["iterations"] for s in pcg) / blocks,
        "fdm.krylov.operator_applies_per_block": len(applies) / blocks,
        "fdm.krylov.operator_apply_ms":
            tracer.mean_ms("fdm.krylov.operator_apply"),
        "fdm.krylov.block_pcg_ms": tracer.mean_ms("fdm.krylov.block_pcg"),
        "fdm.krylov.deflation_dim":
            common.mean(s[6]["deflation_dim"] for s in pcg),
    }


def residual(setup, grid, design, field) -> float:
    """‖Ax − b‖/‖b‖ of a solved field against ``repro.fdm.assemble``."""
    import numpy as np

    from repro.fdm import assemble

    system = assemble(setup.model.concrete_config(design).heat_problem(grid))
    x = grid.to_flat(field)
    return float(np.linalg.norm(system.matrix @ x - system.rhs)
                 / np.linalg.norm(system.rhs))


def _sweep(seed: int, seconds: float, import_start: float, tracer=None,
           superposition: bool = True):
    """Set up, solve blocks for ``seconds`` and check them.

    With a tracer, blocks alternate untraced and traced.  Returns the
    outcome, set-up seconds, per-block (seconds, traced) and peak RSS.
    """
    import numpy as np

    service, scenario, setup, grid, setup_s = _setup(import_start, tracer)
    blocks = []   # (designs, SolveResult, seconds, traced)
    end = time.perf_counter() + seconds
    while not blocks or time.perf_counter() < end:
        on = tracer is not None and len(blocks) % 2 == 1
        if on:
            install_solver_spans(tracer)
        designs = draw_designs(service, scenario,
                               common.derived_seed(seed, 2, len(blocks)),
                               BLOCK)
        began = time.perf_counter()
        result = service.solve(scenario, designs=designs, grid_shape=GRID)
        blocks.append((designs, result, time.perf_counter() - began, on))
        if on:
            tracer.restore()
    rss = common.peak_rss_mb()

    outcome = common.Outcome()
    worst = 0.0
    for index, (designs, result, _, _) in enumerate(blocks):
        residuals = [residual(setup, grid, d, f)
                     for d, f in zip(designs, result.fields)]
        imbalance = float(np.max(np.abs(result.energy_imbalance)))
        worst = max(worst, *residuals)
        outcome.op(max(residuals) <= RESIDUAL_TOL and imbalance <= ENERGY_TOL,
                   f"block {index}: residual {max(residuals):.3g}, energy "
                   f"imbalance {imbalance:.3g}")
    note = ""
    if superposition:
        # T(p1 + p2) - T_amb = (T(p1) - T_amb) + (T(p2) - T_amb).
        p1, p2 = draw_designs(service, scenario,
                              common.derived_seed(seed, 3), 2)
        p3 = {name: p1[name] + p2[name] for name in p1}
        fields = service.solve(scenario, designs=[p1, p2, p3],
                               grid_shape=GRID).fields
        t_amb = scenario.t_ambient
        gap = float(np.max(np.abs((fields[2] - t_amb) - (fields[0] - t_amb)
                                  - (fields[1] - t_amb))))
        outcome.op(gap <= SUPERPOSITION_TOL_K,
                   f"superposition off by {gap:.3g} K")
        note = f", superposition gap {gap:.2e} K"
    print(f"solve_iter: {len(blocks)} blocks of {BLOCK} at {GRID}, worst "
          f"residual {worst:.2e}{note}", flush=True)
    return outcome, setup_s, [(b[2], b[3]) for b in blocks], rss


def segment(seed: int, seconds: float, index: int,
            import_start: float) -> dict:
    """One timed process of an untraced run (a sweep of its own)."""
    outcome, setup_s, blocks, rss = _sweep(
        common.derived_seed(seed, 1, index), seconds, import_start,
        superposition=index == common.SEGMENTS - 1)
    durations = [b[0] for b in blocks]
    return common.segment_figures(outcome, setup_s, durations,
                                  sum(durations), rss)


def traced(seed: int, seconds: float, import_start: float) -> None:
    """The traced run: per-layer metrics, self-time table, overhead."""
    tracer = common.Tracer()
    outcome, _, blocks, _ = _sweep(common.derived_seed(seed, 1, 0), seconds,
                                   import_start, tracer)
    tiers = sorted({s[6]["tier"]
                    for s in tracer.by_name("fdm.krylov.block_pcg")})
    print(f"solver tier: {'/'.join(tiers) or 'lu'}", flush=True)
    metrics = dict.fromkeys(common.PER_LAYER_UNITS, 0.0)
    metrics.update(solver_layers(tracer))
    metrics["api.compile_ms"] = tracer.mean_ms("api.compile")
    common.finish_traced("solve_iter", seed, tracer, outcome, metrics,
                         [b[0] for b in blocks if not b[1]],
                         [b[0] for b in blocks if b[1]], ("api.compile",))
