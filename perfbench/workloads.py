"""The benchmark's three workloads: inputs, execution and output checks.

Each workload draws its inputs from the benchmark seed, sends them to
the package through its public functions, and checks every output
before the caller may record a number.  No call passes an ``engine``
argument, so every run measures the package default.

* ``decode``: one client, closed loop; every request decodes a distinct
  synthetic sequence on the Figure 8 instance at full observability.
* ``kpn_faulted``: one client, closed loop; every request runs the
  diamond KPN under the ``chaos`` fault plan with a distinct fault seed.
* ``sweep``: one client bursting batches of ``decode_run`` design
  points at an in-process sweep service over a fresh result store.

A request's latency runs from the first call into the package (the
factory call, or the service submission) to the serialized result
bytes.  Input generation happens before that and is timed on its own.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.media import CodecParams, encode_sequence, synthetic_sequence
from repro.runner import RunSpec
from repro.service.cachekey import cache_key
from repro.service.server import SweepService
from repro.service.store import ResultStore, payload_result, result_payload
from repro.workloads import (
    conformance_run,
    decode_run,
    explore_decode_run,
    payload_of,
    quickstart_run,
)
from tracing import LayerProfile, ShellCallCounter, Spans, peak_rss_mb

__all__ = ["Served", "Round", "Tracing", "WORKLOADS"]


@dataclass
class Served:
    """One request as the client saw it."""

    request: str
    latency: float
    cycles: int
    #: sha256 over the serialized result (and the stream histories when
    #: the run recorded them): equal digests mean identical simulations
    digest: str
    #: SystemResult.to_dict() of the run, histories excluded
    stats: dict
    #: why the output was wrong, or None when every check passed
    error: Optional[str] = None
    #: sweep only: "hit", "miss" or "dedup"
    cache: str = "miss"


@dataclass
class Round:
    """One pass over a workload's fixed request set."""

    wall: float
    served: List[Served]


@dataclass
class Tracing:
    """What the traced pass collects besides spans."""

    profile: LayerProfile = field(default_factory=LayerProfile)
    shells: ShellCallCounter = field(default_factory=ShellCallCounter)
    bus_transfers: int = 0
    #: sweep: executions the service counted for the traced round
    executions: int = 0
    #: wall time of the same work untraced and traced (trace.overhead)
    base_wall: float = 0.0
    traced_wall: float = 0.0
    #: sweep: benchmark-side timings of the service's layers
    timings: Dict[str, List[float]] = field(default_factory=dict)

    def collect(self, system) -> None:
        self.bus_transfers += (system.read_bus.stats.transactions
                               + system.write_bus.stats.transactions)

    def time(self, name: str, seconds: float) -> None:
        self.timings.setdefault(name, []).append(seconds)


def request_id(workload: str, k, tracing) -> str:
    """Request id; the traced pass repeats round 0 under its own ids."""
    return f"{'traced-' if tracing else ''}{workload}-{k}"


def request_seed(seed: int, k: int) -> int:
    """Input seed of request ``k`` of a run with benchmark seed ``seed``."""
    return (seed * 1_000_003 + k) % 2**31


def serialize(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")


def digest(payload: bytes, histories: Optional[Dict[str, bytes]] = None) -> str:
    h = hashlib.sha256(payload)
    for name in sorted(histories or {}):
        h.update(name.encode("utf-8") + b"\x00" + histories[name] + b"\x01")
    return h.hexdigest()


def kernel_of(system, task: str):
    for shell in system.shells.values():
        for row in shell.task_table:
            if row.name == task:
                return row.kernel
    raise KeyError(task)


class Workload:
    """A closed loop of one client over in-process requests."""

    name = ""
    #: requests per round (the fixed request set whose wall is wall_s)
    round_size = 1
    #: requests execute in this process, where the reference loop of
    #: hostspeed.py tracks their host speed
    in_process = True

    def __init__(self, seed: int, spans: Spans):
        self.seed = seed
        self.spans = spans

    def setup(self) -> None:
        """One-time construction, ending with a warm-up request that
        shares no content with the measured ones."""
        raise NotImplementedError

    def request(self, k: int, tracing: Optional[Tracing] = None) -> Served:
        raise NotImplementedError

    def run_round(self, r: int, tracing: Optional[Tracing] = None) -> Round:
        t0 = time.perf_counter()
        served = [self._request(r * self.round_size + i, tracing)
                  for i in range(self.round_size)]
        return Round(time.perf_counter() - t0, served)

    def _request(self, k: int, tracing: Optional[Tracing]) -> Served:
        try:
            return self.request(k, tracing)
        except Exception as e:  # noqa: BLE001 - a failed request is counted, not fatal
            return Served(request_id(self.name, k, tracing), 0.0, 0, "", {},
                          f"{type(e).__name__}: {e}")

    def recheck(self, first: Round) -> Optional[str]:
        """Repeat the first request: the simulation must be identical."""
        again = self._request(0, None)
        if again.error is None and again.digest != first.served[0].digest:
            return f"{self.name}: request 0 is not deterministic"
        return again.error

    def trace(self, base: Round) -> tuple:
        """Repeat round 0 under the profiler and counters."""
        tracing = Tracing()
        traced = self.run_round(0, tracing)
        tracing.base_wall, tracing.traced_wall = base.wall, traced.wall
        return traced, tracing

    def worker_pids(self) -> List[int]:
        return []

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.worker_pids())

    def close(self) -> None:
        pass

    @staticmethod
    def _section(tracing: Optional[Tracing], name: str):
        return tracing.profile.section(name) if tracing else nullcontext()

    def _run(self, rid: str, req: int, system, graph, tracing):
        """configure -> run -> serialize, each as a phase span."""
        spans = self.spans
        if tracing:
            tracing.shells.attach(system)
        with spans.span("phase.configure", rid, req):
            system.configure(graph)
        with spans.span("phase.run", rid, req), self._section(tracing, "run"):
            result = system.run()
        with spans.span("phase.serialize", rid, req):
            payload = serialize(result)
        if tracing:
            tracing.collect(system)
        return result, payload


class Decode(Workload):
    """Figure 8 decode of a distinct synthetic sequence per request, at
    the paper's IPBBPBB GOP shape (N=7, M=3) and default observability."""

    name = "decode"
    round_size = 3
    WIDTH, HEIGHT, FRAMES = 64, 48, 7

    def setup(self) -> None:
        self.codec = CodecParams(width=self.WIDTH, height=self.HEIGHT, gop_n=7, gop_m=3)
        warm = self._decode("warm", CodecParams(width=32, height=32, gop_n=3, gop_m=1),
                            synthetic_sequence(32, 32, 3, seed=2**31, noise=1.0), None)
        if warm.error:
            raise RuntimeError(f"warm-up request failed: {warm.error}")

    def request(self, k: int, tracing: Optional[Tracing] = None) -> Served:
        rid = request_id(self.name, k, tracing)
        with self.spans.span("phase.synth", rid):
            seq = synthetic_sequence(self.WIDTH, self.HEIGHT, self.FRAMES,
                                     seed=request_seed(self.seed, k), noise=1.0)
        return self._decode(rid, self.codec, seq, tracing)

    def _decode(self, rid, codec, seq, tracing) -> Served:
        spans = self.spans
        with spans.span("request", rid) as req:
            with spans.span("phase.encode", rid, req), self._section(tracing, "encode"):
                bitstream, recon, _ = encode_sequence(seq, codec)
            with spans.span("phase.build", rid, req):
                system, graph = explore_decode_run(bitstream)
            result, payload = self._run(rid, req, system, graph, tracing)
        rec = spans.records[req]
        error = None
        if not result.completed:
            error = f"{rid}: run did not complete"
        else:
            shown = kernel_of(system, "disp").display_frames()
            if len(shown) != len(recon) or not all(
                (a.y == b.y).all() and (a.cb == b.cb).all() and (a.cr == b.cr).all()
                for a, b in zip(shown, recon)
            ):
                error = f"{rid}: displayed frames differ from the encoder's reconstruction"
        return Served(rid, rec["end"] - rec["start"], result.cycles,
                      digest(payload, result.histories), result.to_dict(), error)


class KpnFaulted(Workload):
    """The diamond KPN (fork, one transforming arm) on three
    coprocessors under the chaos fault plan, a distinct fault seed per
    request, watchdog recovery on."""

    name = "kpn_faulted"
    round_size = 3
    PAYLOAD = 16 * 1024

    def setup(self) -> None:
        warm = self._kpn("warm", 512, 2**31)
        if warm.error:
            raise RuntimeError(f"warm-up request failed: {warm.error}")

    def request(self, k: int, tracing: Optional[Tracing] = None) -> Served:
        return self._kpn(request_id(self.name, k, tracing), self.PAYLOAD,
                         request_seed(self.seed, k), tracing)

    def _kpn(self, rid, size, fault_seed, tracing=None) -> Served:
        spans = self.spans
        with spans.span("request", rid) as req:
            with spans.span("phase.build", rid, req):
                system, graph = conformance_run(
                    graph="diamond", payload_len=size, fault_spec="chaos",
                    fault_seed=fault_seed, watchdog_timeout=2000,
                )
            result, payload = self._run(rid, req, system, graph, tracing)
        rec = spans.records[req]
        data = payload_of(size)
        expected = {"da": bytes(x ^ 0x3C for x in data), "db": data}
        error = None
        if not result.completed:
            error = f"{rid}: run did not complete"
        for sink, want in expected.items():
            if error is None and bytes(kernel_of(system, sink).collected) != want:
                error = f"{rid}: sink {sink} received the wrong bytes"
        histories = {"s_ma_out": expected["da"], "s_fork_out_b": expected["db"]}
        for stream, want in histories.items():
            if error is None and result.histories.get(stream, want) != want:
                error = f"{rid}: history of {stream} differs from the payload's transform"
        return Served(rid, rec["end"] - rec["start"], result.cycles,
                      digest(payload, result.histories), result.to_dict(), error)


class Sweep(Workload):
    """Bursts of ``decode_run`` design points at an in-process
    SweepService: per round a cold batch of distinct points, then a
    shuffled mixed batch of repeats (store reads) and new points."""

    name = "sweep"
    in_process = False
    COLD, REPEATS, NEW = 8, 2, 4
    CODEC = dict(width=64, height=48, frames=6, gop_n=6, gop_m=3, obs_level="off")
    #: a round's COLD + NEW = 12 points use each prefetch depth and each
    #: buffer depth three times and each of 12 DRAM latencies once; the
    #: seed only pairs them up, so every round does a like amount of
    #: work.  Round r adds r cycles to every latency, so no point repeats
    #: across rounds.
    PREFETCH = (None, 1, 2, 4)
    BUFFERS = (2, 3, 4, 6)
    LATENCY_STEP = 20
    LATENCIES = tuple(range(40, 40 + 12 * LATENCY_STEP, LATENCY_STEP))

    def setup(self) -> None:
        self.jobs = min(2, os.cpu_count() or 1)
        self.loop = asyncio.new_event_loop()
        self.tmp = tempfile.mkdtemp(prefix="sweep-", dir=_scratch_dir())
        self.service = None
        self.service = self._start(ResultStore(os.path.join(self.tmp, "store")))

    def _start(self, store):
        """Start a service and warm one worker per job with a request
        that shares no content with the sweep."""
        service = SweepService(store, jobs=self.jobs)
        self.loop.run_until_complete(service.start())
        self._first: Dict[str, bytes] = {}
        warm = [self._spec(quickstart_run, payload_len=256 + i, obs_level="off")
                for i in range(self.jobs)]
        for resp in self._all(service.submit(s) for s in warm):
            if not resp.ok:
                raise RuntimeError("warm-up request failed")
        return service

    def _all(self, coros) -> list:
        """Submit a batch at once and wait for every response."""
        async def burst():
            return await asyncio.gather(*coros)

        return self.loop.run_until_complete(burst())

    def _spec(self, factory, **kwargs):
        return RunSpec(factory, kwargs)

    def round_specs(self, r: int) -> tuple:
        """The cold batch and the shuffled mixed batch of round ``r``."""
        if r >= self.LATENCY_STEP:
            raise RuntimeError("sweep design exhausted; lower --seconds")
        rng = random.Random(self.seed * 1009 + r)
        prefetch, buffers = list(self.PREFETCH) * 3, list(self.BUFFERS) * 3
        rng.shuffle(prefetch)
        rng.shuffle(buffers)
        specs = [self._spec(decode_run, **self.CODEC, prefetch_lines=p, buffer_packets=b,
                            dram_latency=lat + r)
                 for p, b, lat in zip(prefetch, buffers, self.LATENCIES)]
        rng.shuffle(specs)
        cold, new = specs[:self.COLD], specs[self.COLD:]
        mixed = cold * self.REPEATS + new
        rng.shuffle(mixed)
        return cold, mixed

    def run_round(self, r: int, tracing: Optional[Tracing] = None) -> Round:
        cold, mixed = self.round_specs(r)
        t0 = time.perf_counter()
        served = []
        for b, batch in enumerate((cold, mixed)):
            served += self._all(
                self._submit(request_id(self.name, f"{r}.{b}.{i}", tracing), s, tracing)
                for i, s in enumerate(batch))
        return Round(time.perf_counter() - t0, served)

    async def _submit(self, rid: str, spec, tracing: Optional[Tracing]) -> Served:
        events: Dict[str, float] = {}

        def on_event(ev: dict) -> None:
            events.setdefault(ev["event"], time.perf_counter())

        t0 = time.perf_counter()
        if tracing:
            tracing.time("service.cache_key_s", _timed(cache_key, spec)[1])
        resp = await self.service.submit(spec, on_event=on_event)
        t1 = time.perf_counter()
        self.spans.add("request", t0, t1, rid)
        if "started" in events:
            self.spans.add("service.queue_wait", t0, events["started"], rid)
            self.spans.add("service.execute", events["started"], events["finished"], rid)
        result = payload_result(resp.payload)
        error = None
        if not (resp.ok and result.ok and result.completed):
            error = f"{rid}: run failed or did not complete ({result.error})"
        elif resp.cache == "hit" and resp.payload != self._first.get(resp.key):
            error = f"{rid}: store hit differs from the first miss for its key"
        self._first.setdefault(resp.key, resp.payload)
        if tracing and resp.cache == "miss":
            out, seconds = _timed(result_payload, result)
            tracing.time("runner.serialize_s", seconds)
            if out != resp.payload:
                error = f"{rid}: payload does not re-serialize to the same bytes"
        return Served(rid, t1 - t0, result.cycles, digest(resp.payload),
                      result.metrics, error, resp.cache)

    def _inline(self, spec, tracing: Optional[Tracing]):
        """One design point executed in this process, as a worker
        would: factory, configure, run, serialize."""
        rid = "traced-sweep-inline" if tracing else "sweep-inline"
        t0 = time.perf_counter()
        with self.spans.span("request", rid) as req:
            with self.spans.span("phase.build", rid, req), self._section(tracing, "build"):
                system, graph = spec.factory(**spec.kwargs)
            result, _ = self._run(rid, req, system, graph, tracing)
        return result, time.perf_counter() - t0

    def recheck(self, first: Round) -> Optional[str]:
        """A design point executed in this process must match what the
        service's worker served for it."""
        cold, _ = self.round_specs(0)
        result, _ = self._inline(cold[0], None)
        if json.dumps(result.to_dict(), sort_keys=True) != json.dumps(
                first.served[0].stats, sort_keys=True):
            return "sweep: in-process execution differs from the served result"
        return None

    def trace(self, base: Round) -> tuple:
        """Round 0 again through a fresh service whose store is timed,
        then one design point executed here under the profiler."""
        tracing = Tracing()
        self._stop()
        store = TimedStore(os.path.join(self.tmp, "traced"), tracing)
        self.service = self._start(store)
        traced = self.run_round(0, tracing)
        tracing.executions = self.service.metrics.counter("service.executions").value - self.jobs
        cold, _ = self.round_specs(0)
        plain, tracing.base_wall = self._inline(cold[0], None)
        profiled, tracing.traced_wall = self._inline(cold[0], tracing)
        first = traced.served[0]
        if tracing.executions != len({s.digest for s in traced.served}):
            first.error = first.error or "sweep: executions differ from the distinct misses"
        if plain.to_dict() != profiled.to_dict():
            first.error = first.error or "sweep: profiled execution differs from the plain one"
        return traced, tracing

    def worker_pids(self) -> List[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def _stop(self) -> None:
        self.loop.run_until_complete(self.service.close())
        for proc in multiprocessing.active_children():
            proc.join(timeout=30)

    def close(self) -> None:
        try:
            if self.service is not None:
                self._stop()
        finally:
            self.loop.close()
            shutil.rmtree(self.tmp, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.tmp))
            except OSError:  # another run's store is still there
                pass


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _scratch_dir() -> str:
    """Where the sweep keeps its result stores: inside the working
    directory the benchmark runs from."""
    path = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


class TimedStore(ResultStore):
    """A result store whose reads and writes are timed."""

    def __init__(self, root: str, tracing: Tracing):
        super().__init__(root)
        self._tracing = tracing

    def get(self, key):
        out, seconds = _timed(super().get, key)
        self._tracing.time("service.store_get_s", seconds)
        return out

    def put(self, key, payload):
        _, seconds = _timed(super().put, key, payload)
        self._tracing.time("service.store_put_s", seconds)


WORKLOADS = {w.name: w for w in (Decode, KpnFaulted, Sweep)}
