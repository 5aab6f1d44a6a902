"""Benchmark-side tracing: in-memory spans, a layer-attributing host
profiler and call counters.

Everything here observes the program from outside.  Spans are taken
around calls into the package's public functions; the profiler is the
standard library's ``cProfile``, whose per-function self time is
attributed to a layer by the source module the function lives in; the
shell call counters wrap the four data-transport primitives per shell
instance, the way the package's own operation log does.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

__all__ = ["Spans", "LayerProfile", "ShellCallCounter", "LAYERS", "peak_rss_mb"]


class Spans:
    """Spans kept in memory and written out once, at the end.

    Each span has a name, a start and end (``time.perf_counter``
    seconds), the id of the span that caused it and the id of the
    request it belongs to.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []

    def add(self, name: str, start: float, end: float, request: str,
            parent: Optional[int] = None) -> int:
        sid = len(self.records)
        self.records.append({"id": sid, "name": name, "start": start, "end": end,
                             "parent": parent, "request": request})
        return sid

    @contextmanager
    def span(self, name: str, request: str, parent: Optional[int] = None):
        rec = {"id": len(self.records), "name": name, "start": time.perf_counter(),
               "end": None, "parent": parent, "request": request}
        self.records.append(rec)
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter()

    def per_request(self, name: str, requests) -> Dict[str, float]:
        """Total duration of the ``name`` spans of each of ``requests``."""
        out: Dict[str, float] = {}
        for r in self.records:
            if r["name"] == name and r["request"] in requests:
                out[r["request"]] = out.get(r["request"], 0.0) + r["end"] - r["start"]
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.records}, fh)


#: Layer of a profiled function, by the path of its source file; the
#: first matching row wins and anything unmatched (numpy, the standard
#: library, built-ins, the rest of the package) is ``other``.
LAYERS = (
    ("resilience", ("repro/resilience/", "repro/sim/faults.py", "repro/core/backoff.py")),
    ("core.shell", ("repro/core/shell.py", "repro/core/stream_table.py",
                    "repro/core/buffer.py", "repro/core/task_table.py")),
    ("core.scheduler", ("repro/core/scheduler.py",)),
    ("core.coprocessor", ("repro/core/coprocessor.py",)),
    ("core.messages", ("repro/core/messages.py",)),
    ("core.cache", ("repro/core/cache.py",)),
    ("core.system", ("repro/core/",)),
    ("sim", ("repro/sim/",)),
    ("hw", ("repro/hw/",)),
    ("media", ("repro/media/",)),
    ("kahn", ("repro/kahn/",)),
    ("obs", ("repro/obs/", "repro/trace/")),
    ("bench", ("perfbench/",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS) + ("other",)


def _layer_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    for name, fragments in LAYERS:
        if any(f in path for f in fragments):
            return name
    return "other"


def _code_key(fn) -> tuple:
    """The key ``cProfile`` files a Python function's statistics under."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class LayerProfile:
    """One ``cProfile`` profiler per named section (``encode``, ``run``,
    ...), enabled only while that section runs."""

    def __init__(self) -> None:
        self._profiles: Dict[str, cProfile.Profile] = {}
        self.wall: Dict[str, float] = {}

    @contextmanager
    def section(self, name: str):
        prof = self._profiles.setdefault(name, cProfile.Profile())
        t0 = time.perf_counter()
        prof.enable()
        try:
            yield
        finally:
            prof.disable()
            self.wall[name] = self.wall.get(name, 0.0) + time.perf_counter() - t0

    def _stats(self, sections: Iterable[str]) -> Dict[tuple, tuple]:
        merged: Dict[tuple, tuple] = {}
        for name in sections:
            prof = self._profiles.get(name)
            if prof is None:
                continue
            prof.create_stats()
            for key, (_cc, nc, tt, ct, _callers) in prof.stats.items():
                old = merged.get(key, (0, 0.0, 0.0))
                merged[key] = (old[0] + nc, old[1] + tt, old[2] + ct)
        return merged

    def self_times(self, sections: Iterable[str]) -> Dict[str, float]:
        """Self time per layer, summed over ``sections``."""
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for (filename, _line, _func), (_nc, tt, _ct) in self._stats(sections).items():
            out[_layer_of(filename)] += tt
        return out

    def calls(self, fn, sections: Iterable[str]) -> int:
        """How often the Python function ``fn`` was entered."""
        return self._stats(sections).get(_code_key(fn), (0, 0.0, 0.0))[0]

    def inclusive_time(self, fn, sections: Iterable[str]) -> float:
        """Time spent inside ``fn`` and everything it called."""
        return self._stats(sections).get(_code_key(fn), (0, 0.0, 0.0))[2]


class ShellCallCounter:
    """Counts calls of the shell's data-transport primitives.

    They are generator functions, and the profiler counts every resume
    of a generator as a call, so calls are counted by wrapping each
    shell instance's methods instead.  The wrapper returns the very
    generator the method returns, so the simulation is unchanged.
    """

    NAMES = ("get_space", "put_space", "read", "write")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.NAMES, 0)

    def attach(self, system) -> None:
        for shell in system.shells.values():
            for name in self.NAMES:
                setattr(shell, name, self._counted(name, getattr(shell, name)))

    def _counted(self, name: str, method):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted


def _vm_hwm_kb(pid: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_mb(worker_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus the given live workers."""
    own = _vm_hwm_kb("self")
    if own is None:  # no procfs: fall back to the kernel's own peak
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = own + sum(_vm_hwm_kb(str(pid)) or 0 for pid in worker_pids)
    return total / 1024.0
