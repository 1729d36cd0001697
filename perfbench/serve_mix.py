"""``serve_mix``: closed-loop socket traffic against ``repro serve``.

The benchmark trains a short experiment-A CI-scale checkpoint, then
launches the daemon as its own process, warm-started from that
checkpoint.  ``CLIENTS`` closed-loop ``ThermalClient`` threads each send
rounds of ``ROUND`` requests of ``DESIGNS`` designs with full fields
returned; position ``SOLVE_AT`` of every round is a reference ``solve``
of the same designs at the eval grid instead of a ``predict``.  One
operation is one request.  Traced runs serve from a ``ThermalServer``
inside the benchmark process, so its calls can be wrapped.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import common
import solve_iter

CLIENTS = 2
DESIGNS = 4
POOL = 16
ROUND = 8
SOLVE_AT = ROUND - 1
#: a short fit: the workload measures serving, not model quality.
CHECKPOINT_ITERATIONS = 40
PREDICT_TOL_K = 1e-9
RESIDUAL_TOL = 1e-10
BOOT_TIMEOUT = 120.0


def _scenario():
    from repro.api import scenario_experiment_a

    base = scenario_experiment_a(scale="ci")
    return dataclasses.replace(
        base, training=dataclasses.replace(base.training,
                                           iterations=CHECKPOINT_ITERATIONS))


def _prepare(workdir, seed: int):
    """Train the checkpoint; draw the design pool; reference answers."""
    from repro.api import ThermalService

    scenario = _scenario()
    with ThermalService(cache_dir=workdir / "registry", workers=1) as service:
        service.train(scenario)
        setup = service.setup(scenario)
        pool = solve_iter.draw_designs(service, scenario,
                                       common.derived_seed(seed, 4), POOL)
    reference = setup.model.predict_many_uncached(pool,
                                                  setup.eval_grid.points())
    spec = workdir / "scenario.json"
    scenario.to_json(spec)
    return scenario, setup, pool, reference, spec


def _request_designs(pool, client: int, index: int):
    """The pool slice request ``index`` of ``client`` sends."""
    start = (index + client) % (POOL // DESIGNS) * DESIGNS
    group = slice(start, start + DESIGNS)
    return group, pool[group]


class _Daemon:
    """One ``repro serve`` process, from launch to drained exit."""

    def __init__(self, spec, workdir):
        env = common.pinned_env()
        env["PYTHONPATH"] = str(common.ROOT / "src")
        env["REPRO_MODEL_CACHE"] = str(workdir / "registry")
        self.log = open(workdir / "daemon.log", "ab")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--workers", "1", "serve",
             "--scenario", str(spec), "--port", "0"],
            cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.port = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put("")

    def wait_ready(self) -> None:
        """Block until the daemon listens and has warm-started."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            line = self.lines.get(timeout=max(0.1, deadline - time.monotonic()))
            if not line:
                raise RuntimeError("daemon exited during boot; see "
                                   "perfbench/.work daemon.log")
            found = re.search(r"listening on \S+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
            if "warm-started" in line:
                return

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=5)
        self.proc.stdout.close()
        self.log.close()


def _first_answer(port, scenario, pool) -> None:
    from repro.serve import ThermalClient

    with ThermalClient(port=port, timeout=BOOT_TIMEOUT,
                       max_retries=0) as client:
        client.predict(scenario, pool[:DESIGNS])


def _boot(spec, workdir, scenario, pool):
    """Launch a daemon; returns it and the seconds to its first answer."""
    daemon = _Daemon(spec, workdir)
    try:
        daemon.wait_ready()
        _first_answer(daemon.port, scenario, pool)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - daemon.launched


def _drive(port, scenario, pool, reference, seconds, on_request=None):
    """Closed-loop clients until ``seconds`` pass, in whole rounds.

    Returns per-request records ``(client, index, kind, group, seconds,
    outcome, tag)`` and the wall time of the phase; the outcome is the
    predict's largest gap to ``reference``, the solve's fields, or the
    exception the request raised.
    """
    import numpy as np

    from repro.serve import ProtocolError, ServerError, ThermalClient

    records = [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    end = start + seconds

    def client_loop(client_index: int) -> None:
        with ThermalClient(port=port, timeout=120.0, max_retries=0,
                           retry_seed=client_index) as client:
            index = 0
            while True:
                for position in range(ROUND):
                    group, designs = _request_designs(pool, client_index,
                                                      index)
                    kind = "solve" if position == SOLVE_AT else "predict"
                    tag = on_request(client_index, index) if on_request \
                        else None
                    began = time.perf_counter()
                    try:
                        if kind == "solve":
                            result = client.solve(scenario, designs)
                        else:
                            result = client.predict(scenario, designs)
                    except (ServerError, ProtocolError, OSError) as exc:
                        result = exc
                    elapsed = time.perf_counter() - began
                    if not isinstance(result, Exception):
                        # Predicts are checked at once against the
                        # reference, so no response fields pile up.
                        result = result["fields"] if kind == "solve" else \
                            float(np.max(np.abs(result["fields"]
                                                - reference[group])))
                    records[client_index].append(
                        (client_index, index, kind, group, elapsed, result,
                         tag))
                    index += 1
                if time.perf_counter() >= end:
                    return

    errors = []

    def guarded(client_index: int) -> None:
        try:
            client_loop(client_index)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(c,))
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    wall = time.perf_counter() - start
    return [r for per_client in records for r in per_client], wall


def _check(records, setup, pool, outcome) -> None:
    """Predicts against the autodiff reference; solves against A x = b."""
    grid = setup.eval_grid
    worst_predict = worst_residual = 0.0
    for client, index, kind, group, _, result, _ in records:
        label = f"client {client} request {index} ({kind})"
        if isinstance(result, Exception):
            outcome.op(False, f"{label}: {type(result).__name__}: {result}")
        elif kind == "predict":
            worst_predict = max(worst_predict, result)
            outcome.op(result <= PREDICT_TOL_K,
                       f"{label}: off by {result:.3g} K")
        else:
            residuals = [solve_iter.residual(setup, grid, pool[member], field)
                         for member, field in zip(range(group.start,
                                                        group.stop), result)]
            worst_residual = max(worst_residual, *residuals)
            outcome.op(max(residuals) <= RESIDUAL_TOL,
                       f"{label}: residual {max(residuals):.3g}")
    print(f"serve_mix: {len(records)} requests, worst predict gap "
          f"{worst_predict:.2e} K, worst solve residual "
          f"{worst_residual:.2e}", flush=True)


def _workdir():
    workdir = common.WORK / f"serve-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def untraced(seed: int, seconds: float) -> None:
    """Serve from ``SEGMENTS`` daemon boots in turn; print the result."""
    workdir = _workdir()
    try:
        scenario, setup, pool, reference, spec = _prepare(workdir, seed)
        segments = []
        for _ in range(common.SEGMENTS):
            daemon, boot = _boot(spec, workdir, scenario, pool)
            try:
                records, wall = _drive(daemon.port, scenario, pool,
                                       reference, seconds / common.SEGMENTS)
                rss = common.peak_rss_mb(str(daemon.proc.pid))
            finally:
                daemon.stop()
            outcome = common.Outcome()
            _check(records, setup, pool, outcome)
            segments.append(common.segment_figures(
                outcome, boot, [r[4] for r in records], wall, rss))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    common.emit_segments(segments)


def _install(tracer, server, waits, sizes) -> None:
    """Wrap the serving path's layers at the names its callers resolve."""
    from repro.api import ThermalScenario
    from repro.engine import CompiledSurrogate
    from repro.serve import MicroBatcher, client, daemon, protocol

    def frame_size(span, result, args, kwargs):
        message = args[0]
        sizes["response" if "ok" in message else "request"].append(
            len(result))

    def decoded(span, result, args, kwargs):
        if "op" in result:
            tracer.set_request(("server", result.get("id")))

    def submitted(span, args, kwargs):
        waits["submit"][id(args[1])] = time.perf_counter()

    def dispatch(span, args, kwargs):
        group = args[0]
        now = time.perf_counter()
        tracer.set_request([r.request_id for r in group])
        waits["sizes"].append(len(group))
        for request in group:
            submitted_at = waits["submit"].pop(id(request), None)
            if submitted_at is not None:
                waits["waits"].append(now - submitted_at)

    tracer.wrap(daemon, "encode_frame", "serve.protocol.encode",
                after=frame_size)
    tracer.wrap(client, "encode_frame", "serve.protocol.encode",
                after=frame_size)
    tracer.wrap(protocol, "decode_frame", "serve.protocol.decode",
                after=decoded)
    tracer.wrap(MicroBatcher, "submit", "serve.batcher.submit",
                before=submitted)
    tracer.wrap(server.batcher, "execute", "serve.batcher.dispatch",
                before=dispatch)
    tracer.wrap(ThermalScenario, "from_dict", "api.scenario.from_dict")
    tracer.wrap(ThermalScenario, "content_digest",
                "api.scenario.content_digest")
    tracer.wrap(CompiledSurrogate, "predict_fused", "engine.predict_fused")
    solve_iter.install_solver_spans(tracer)


def traced(seed: int, seconds: float, import_start: float) -> None:
    """The traced run: per-layer metrics, self-time table, overhead."""
    workdir = _workdir()
    try:
        _traced(seed, seconds, workdir, *_prepare(workdir, seed)[:4])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(seed, seconds, workdir, scenario, setup, pool, reference):
    from repro.api import ThermalScenario
    from repro.serve import ThermalServer

    tracer = common.Tracer()
    server = ThermalServer(port=0, workers=1,
                           cache_dir=str(workdir / "registry"))
    server.start()
    tracer.wrap(ThermalScenario, "compile", "api.compile")
    span = tracer.begin("serve.daemon.warm_start")
    server.warm_start([scenario])
    tracer.end(span)
    tracer.restore()
    try:
        _first_answer(server.port, scenario, pool)
        trunk_before = server.service.cache_stats()["trunk"]
        waits = {"submit": {}, "waits": [], "sizes": []}
        sizes = {"request": [], "response": []}
        state = {"on": False}

        def on_request(client_index, index):
            tracer.set_request((client_index, index))
            return state["on"]

        # Tracing is switched on and off in alternate windows, so traced
        # and untraced requests see the same host conditions.
        window = seconds / 10.0
        stop = threading.Event()

        def toggler():
            while not stop.wait(window):
                if state["on"]:
                    tracer.restore()
                else:
                    _install(tracer, server, waits, sizes)
                state["on"] = not state["on"]

        switcher = threading.Thread(target=toggler, daemon=True)
        switcher.start()
        try:
            records, wall = _drive(server.port, scenario, pool, reference,
                                   seconds, on_request=on_request)
        finally:
            stop.set()
            switcher.join()
            tracer.restore()
        trunk_after = server.service.cache_stats()["trunk"]
    finally:
        server.close(drain=True)

    outcome = common.Outcome()
    _check(records, setup, pool, outcome)
    traced_latency = [r[4] for r in records if r[6]]
    hits = trunk_after["hits"] - trunk_before["hits"]
    misses = trunk_after["misses"] - trunk_before["misses"]
    resolve_names = ("api.scenario.from_dict", "api.scenario.content_digest")
    resolve_ids = {s[0] for s in tracer.spans if s[1] in resolve_names}
    resolve_total = sum(s[3] - s[2] for s in tracer.spans
                        if s[1] in resolve_names and s[4] not in resolve_ids)
    metrics = dict.fromkeys(common.PER_LAYER_UNITS, 0.0)
    metrics.update(solve_iter.solver_layers(tracer))
    metrics.update({
        "serve.protocol.encode_ms": tracer.mean_ms("serve.protocol.encode"),
        "serve.protocol.decode_ms": tracer.mean_ms("serve.protocol.decode"),
        "serve.protocol.response_kb": common.mean(sizes["response"]) / 1024,
        "serve.protocol.request_kb": common.mean(sizes["request"]) / 1024,
        "serve.batcher.queue_wait_ms": common.mean(waits["waits"]) * 1e3,
        "serve.batcher.requests_per_dispatch": common.mean(waits["sizes"]),
        "api.scenario_resolve_ms":
            resolve_total * 1e3 / max(1, len(traced_latency)),
        "engine.predict_fused_ms": tracer.mean_ms("engine.predict_fused"),
        "engine.trunk_cache_hit_ratio": hits / max(1, hits + misses),
        "api.compile_ms": tracer.mean_ms("api.compile"),
        "serve.daemon.warm_start_ms":
            tracer.mean_ms("serve.daemon.warm_start"),
    })
    common.finish_traced("serve_mix", seed, tracer, outcome, metrics,
                         [r[4] for r in records if not r[6]], traced_latency,
                         ("api.compile", "serve.daemon.warm_start"),
                         concurrency=CLIENTS)
