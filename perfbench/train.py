"""``train``: serial physics-informed training of experiment A at CI scale.

One operation is one training iteration: GRF sampling, collocation, the
stacked-Taylor loss, the backward pass and one Adam step.  No socket or
solver runs.  The run trains until ``--seconds`` have passed, stopping at
the end of a whole round of ``ROUND`` iterations.
"""

from __future__ import annotations

import dataclasses
import math
import time

import common

#: iterations per round; a run stops only at a round boundary.
ROUND = 10
#: relative tolerance of the directional-derivative gradient check.
GRAD_RTOL = 1e-6
#: central-difference step along an unnormalised Gaussian direction.  Its
#: truncation error (~eps^2) dominates here: about 3e-8 at 1e-6, 3e-10 at
#: 1e-7, while rounding stays near 1e-10.
GRAD_EPS = 1e-7


class _Deadline(Exception):
    """Raised from the trainer callback to end the timed phase."""


def _setup(seed: int, import_start: float, tracer=None):
    """Imports, compile, trainer construction and GRF factorization."""
    import numpy as np

    from repro.api import scenario_experiment_a

    base = scenario_experiment_a(scale="ci")
    # The workload seed drives the trainer's GRF and collocation streams;
    # the iteration budget is open-ended because the run is time-bounded.
    scenario = dataclasses.replace(
        base,
        training=dataclasses.replace(base.training, seed=seed,
                                     iterations=10**7),
    )
    span = tracer.begin("api.compile") if tracer else None
    setup = scenario.compile()
    if span:
        tracer.end(span)
    trainer = setup.make_trainer()
    trainer.config.workers = 1
    trainer.config.log_every = 1
    span = tracer.begin("power.grf_factor") if tracer else None
    for config_input in setup.model.inputs:
        # The first draw factors the GRF covariance once per input.
        config_input.sample(np.random.default_rng(0), 1)
    if span:
        tracer.end(span)
    return setup, trainer, time.perf_counter() - import_start


def _install(tracer, setup, trainer) -> None:
    """Wrap the layers the serial training loop calls, by their names."""
    from repro import autodiff
    from repro.core import DeepOHeat
    from repro.core.sampler import total_points
    from repro.nn import Adam

    def rows(span, batch, args, kwargs):
        # The rows the trunk runs on: a deduplicating batch feeds it only
        # its base region (face nodes are rows of that region).
        tracer.counts["collocation_rows"] += (
            len(batch.hat[batch.dedup_base]) if batch.dedup_base
            else total_points(batch))
        tracer.counts["batches"] += 1

    for config_input in setup.model.inputs:
        tracer.wrap(type(config_input), "sample", "power.grf_sample")
    tracer.wrap(type(trainer.plan), "batch", "core.sampler.batch", after=rows)
    tracer.wrap(DeepOHeat, "compute_loss", "core.model.compute_loss")
    tracer.wrap(autodiff, "grad", "autodiff.grad")
    tracer.wrap(Adam, "step", "nn.optimizers.step")


def _gradient_check(setup, trainer, seed: int) -> float:
    """Relative error of autodiff vs a central difference along a
    seeded random direction, on the current weights."""
    import numpy as np

    from repro import autodiff

    model = setup.model
    rng = np.random.default_rng(common.derived_seed(seed, 7))
    n_functions = trainer.config.n_functions
    raws = [inp.sample(rng, n_functions) for inp in model.inputs]
    batch = trainer.plan.batch(rng, n_functions)
    params = model.net.parameters()
    total, _ = model.compute_loss(raws, batch)
    grads = autodiff.grad(total, params)
    # Unnormalised: every weight moves by about GRAD_EPS.
    direction = [rng.standard_normal(p.data.shape) for p in params]
    analytic = sum(float((g.data * d).sum()) for g, d in zip(grads, direction))
    saved = [p.data.copy() for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, keep, d in zip(params, saved, direction):
            p.data[...] = keep + sign * GRAD_EPS * d
        values.append(model.compute_loss(raws, batch)[0].item())
    for p, keep in zip(params, saved):
        p.data[...] = keep
    numeric = (values[0] - values[1]) / (2.0 * GRAD_EPS)
    return abs(numeric - analytic) / max(abs(analytic), 1e-300)


def _train(seed: int, seconds: float, import_start: float, tracer=None):
    """Set up, train for ``seconds`` and check; returns the figures.

    With a tracer, rounds alternate untraced and traced, so both sides
    of the overhead comparison see the same host conditions.
    """
    setup, trainer, setup_s = _setup(seed, import_start, tracer)
    stamps = [time.perf_counter()]
    losses = []
    traced_flags = [False]
    end = stamps[0] + seconds
    state = {"on": False, "span": None}

    def callback(iteration, total, parts):
        now = time.perf_counter()
        stamps.append(now)
        losses.append(total)
        if state["span"] is not None:
            tracer.end(state["span"])
            state["span"] = None
        if (iteration + 1) % ROUND == 0:
            if now >= end:
                raise _Deadline
            if tracer is not None:
                if state["on"]:
                    tracer.restore()
                else:
                    _install(tracer, setup, trainer)
                state["on"] = not state["on"]
        if state["on"]:
            state["span"] = tracer.begin("core.trainer.iteration")
        traced_flags.append(state["on"])

    try:
        trainer.run(callback=callback)
    except _Deadline:
        pass
    rss = common.peak_rss_mb()
    if tracer is not None:
        tracer.restore()

    outcome = common.Outcome()
    for index, loss in enumerate(losses):
        outcome.op(math.isfinite(loss), f"iteration {index}: loss {loss}")
    tenth = max(1, len(losses) // 10)
    tail = common.mean(losses[-tenth:])
    outcome.check(tail < losses[0] / 4.0,
                  f"last-tenth mean loss {tail:.4g} is not below a "
                  f"quarter of the first loss {losses[0]:.4g}")
    rel = _gradient_check(setup, trainer, seed)
    outcome.check(rel <= GRAD_RTOL,
                  f"directional derivative off by {rel:.3g} relative")
    print(f"train: {len(losses)} iterations, loss {losses[0]:.4g} -> "
          f"{tail:.4g}, gradient check {rel:.2e}", flush=True)
    durations = [b - a for a, b in zip(stamps, stamps[1:])]
    return outcome, setup_s, durations, traced_flags, rss


def segment(seed: int, seconds: float, index: int,
            import_start: float) -> dict:
    """One timed process of an untraced run."""
    outcome, setup_s, durations, _, rss = _train(
        common.derived_seed(seed, 1, index), seconds, import_start)
    return common.segment_figures(outcome, setup_s, durations,
                                  sum(durations), rss)


def traced(seed: int, seconds: float, import_start: float) -> None:
    """The traced run: per-layer metrics, self-time table, overhead."""
    tracer = common.Tracer()
    outcome, _, durations, flags, _ = _train(
        common.derived_seed(seed, 1, 0), seconds, import_start, tracer)
    untraced = [d for d, on in zip(durations, flags) if not on]
    traced_durations = [d for d, on in zip(durations, flags) if on]
    metrics = dict.fromkeys(common.PER_LAYER_UNITS, 0.0)
    iterations = tracer.by_name("core.trainer.iteration")
    self_times = tracer.self_times()
    metrics.update({
        "power.grf_sample_ms": tracer.mean_ms("power.grf_sample"),
        "core.sampler.batch_ms": tracer.mean_ms("core.sampler.batch"),
        "core.model.compute_loss_ms": tracer.mean_ms("core.model.compute_loss"),
        "autodiff.grad_ms": tracer.mean_ms("autodiff.grad"),
        "nn.optimizers.step_ms": tracer.mean_ms("nn.optimizers.step"),
        "core.trainer.other_ms":
            self_times["core.trainer.iteration"][2] * 1e3 / len(iterations),
        "core.model.collocation_rows":
            tracer.counts["collocation_rows"] / tracer.counts["batches"],
        "api.compile_ms": tracer.mean_ms("api.compile"),
        "power.grf_factor_ms": tracer.mean_ms("power.grf_factor"),
    })
    common.finish_traced("train", seed, tracer, outcome, metrics, untraced,
                         traced_durations, ("api.compile", "power.grf_factor"))
