"""Design-space exploration runner (paper §7, as a library).

"The simulator parses a setup file that contains these architectural
parameters and collects measurement data" — this module is that loop
as an API: declare a workload factory and a set of parameter axes, and
:func:`sweep` runs every point (full factorial or one-at-a-time),
collecting the metrics the §7 experiments report.

Since PR 9 the sweep composes with the configuration solver
(:mod:`repro.verify.solve`): a ``prune`` callable rejects infeasible
points *statically* — no simulation spent on a configuration the
constraint model already refutes — and :func:`successive_halving`
races the surviving frontier across fidelity rungs, promoting only the
best half at each rung.

Example
-------
>>> from repro.explore import Axis, sweep           # doctest: +SKIP
>>> points = sweep(
...     workload,                                    # () -> (system, graph)
...     axes=[Axis("prefetch", [0, 2, 8],
...                lambda cfg, v: cfg.shell.update(prefetch_lines=v))],
... )
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CoprocessorSpec, ShellParams, SystemParams
from repro.core.system import EclipseSystem, SystemResult
from repro.kahn.graph import ApplicationGraph

__all__ = [
    "Axis",
    "SweepPoint",
    "sweep",
    "render_sweep",
    "feasibility_pruner",
    "successive_halving",
]


@dataclass(frozen=True)
class Axis:
    """One swept template parameter.

    ``name`` labels the column; ``values`` are the levels; ``apply``
    maps (base_shell, base_system, value) -> (shell, system) parameter
    sets.  The apply function must be pure (it receives copies).
    """

    name: str
    values: Sequence[Any]
    apply: Callable[[ShellParams, SystemParams, Any], tuple]


def shell_axis(name: str, values: Sequence[Any], **_ignored) -> Axis:
    """Axis over one ShellParams field of the same name."""
    return Axis(name, values, lambda sh, sy, v: (sh.with_(**{name: v}), sy))


def system_axis(name: str, values: Sequence[Any]) -> Axis:
    """Axis over one SystemParams field of the same name."""
    return Axis(name, values, lambda sh, sy, v: (sh, sy.with_(**{name: v})))


@dataclass
class SweepPoint:
    """One executed configuration and its headline metrics."""

    settings: Dict[str, Any]
    cycles: int
    stall_cycles: int
    denied_getspace: int
    messages: int
    utilization: Dict[str, float]
    result: SystemResult = field(repr=False, default=None)


def _build_point(build, shell, sys_params):
    """Module-level RunSpec factory for one sweep point: the axis
    ``apply`` closures already ran in the parent, so only ``build`` and
    the two parameter dataclasses cross the process boundary."""
    return build(shell, sys_params)


def _point_from_metrics(combo: Dict[str, Any], metrics: Dict[str, Any]) -> SweepPoint:
    """SweepPoint from a RunResult's deterministic metrics dict."""
    return SweepPoint(
        settings=dict(combo),
        cycles=metrics["cycles"],
        stall_cycles=sum(t["stall_cycles"] for t in metrics["tasks"].values()),
        denied_getspace=sum(s["denied_getspace"] for s in metrics["streams"].values()),
        messages=metrics["messages_sent"],
        utilization=dict(metrics["utilization"]),
    )


def _enumerate_combos(axes: Sequence[Axis], mode: str) -> List[Dict[str, Any]]:
    if mode == "factorial":
        return [
            dict(zip([a.name for a in axes], values))
            for values in itertools.product(*[a.values for a in axes])
        ]
    if mode == "oat":
        combos: List[Dict[str, Any]] = [{}]
        for axis in axes:
            combos.extend({axis.name: v} for v in axis.values)
        return combos
    raise ValueError(f"unknown mode {mode!r}")


def _resolve_combos(
    combos: Sequence[Dict[str, Any]],
    axes: Sequence[Axis],
    base_shell: ShellParams,
    base_system: SystemParams,
) -> List[Tuple[Dict[str, Any], ShellParams, SystemParams]]:
    """Concrete parameter sets per combo — the axis apply() closures
    run here, never across a process boundary."""
    resolved = []
    for combo in combos:
        shell, sys_params = base_shell, base_system
        for axis in axes:
            if axis.name in combo:
                shell, sys_params = axis.apply(shell, sys_params, combo[axis.name])
        resolved.append((combo, shell, sys_params))
    return resolved


def _run_resolved(
    resolved: Sequence[Tuple[Dict[str, Any], ShellParams, SystemParams]],
    build,
    keep_results: bool,
    parallel: bool,
    jobs: Optional[int],
) -> List[SweepPoint]:
    if parallel or jobs is not None:
        if keep_results:
            raise ValueError("keep_results requires the serial path (jobs=1, parallel=False)")
        from repro.runner import ParallelRunner, RunSpec

        specs = [
            RunSpec(
                factory=_build_point,
                kwargs={"build": build, "shell": shell, "sys_params": sys_params},
                label=f"sweep[{i}] {combo}",
            )
            for i, (combo, shell, sys_params) in enumerate(resolved)
        ]
        report = ParallelRunner(jobs=jobs).run(specs)
        failed = report.failures
        if failed:
            raise RuntimeError(
                f"{len(failed)}/{len(specs)} sweep points failed; first: "
                f"{failed[0].label}: {failed[0].error}"
            )
        return [
            _point_from_metrics(combo, res.metrics)
            for (combo, _sh, _sy), res in zip(resolved, report.results)
        ]

    out: List[SweepPoint] = []
    for combo, shell, sys_params in resolved:
        system, graph = build(shell, sys_params)
        system.configure(graph)
        result = system.run()
        point = _point_from_metrics(combo, result.to_dict())
        point.result = result if keep_results else None
        out.append(point)
    return out


def sweep(
    build: Callable[[ShellParams, SystemParams], "tuple[EclipseSystem, ApplicationGraph]"],
    axes: Sequence[Axis],
    base_shell: Optional[ShellParams] = None,
    base_system: Optional[SystemParams] = None,
    mode: str = "factorial",
    keep_results: bool = False,
    parallel: bool = False,
    jobs: Optional[int] = None,
    prune: Optional[Callable[[Dict[str, Any], ShellParams, SystemParams], Optional[str]]] = None,
    pruned: Optional[List[Tuple[Dict[str, Any], str]]] = None,
) -> List[SweepPoint]:
    """Run the exploration.

    ``build(shell, system_params)`` must return a fresh configured-able
    (system, graph) pair for the given parameters.  ``mode`` is
    ``"factorial"`` (cross product of all axes) or ``"oat"``
    (one-at-a-time around the base point).

    ``prune(combo, shell, sys_params)`` returns a reason string to
    reject the point *before any simulation* (None keeps it); use
    :func:`feasibility_pruner` to reject everything the static
    constraint model refutes.  Rejected combos (with reasons) are
    appended to the ``pruned`` list when one is passed.

    With ``parallel=True`` (or ``jobs`` set) the points are fanned out
    over :class:`repro.runner.ParallelRunner`: ``build`` must then be a
    module-level (picklable) callable, and points come back in the same
    deterministic order as the serial path.  ``keep_results`` is a
    serial-only feature (full SystemResults stay in-process).
    """
    base_shell = base_shell or ShellParams()
    base_system = base_system or SystemParams()
    combos = _enumerate_combos(axes, mode)
    resolved = _resolve_combos(combos, axes, base_shell, base_system)

    if prune is not None:
        surviving = []
        for combo, shell, sys_params in resolved:
            reason = prune(combo, shell, sys_params)
            if reason is None:
                surviving.append((combo, shell, sys_params))
            elif pruned is not None:
                pruned.append((dict(combo), reason))
        resolved = surviving

    return _run_resolved(resolved, build, keep_results, parallel, jobs)


def feasibility_pruner(
    build: Callable[[ShellParams, SystemParams], "tuple[EclipseSystem, ApplicationGraph]"],
) -> Callable[[Dict[str, Any], ShellParams, SystemParams], Optional[str]]:
    """A ``prune`` callable backed by the shared constraint model.

    Builds the point (cheap — no ``configure``, no simulation) and
    refutes it statically on two levels: the *declared* configuration
    must pass the graph linter with zero errors, and even the *minimal*
    allocation the solver would derive must fit the instance SRAM —
    if it cannot, no amount of tuning rescues the point.
    """

    def prune(combo, shell, sys_params):
        from repro.verify.graph_lint import lint_graph
        from repro.verify.run import _instance_params
        from repro.verify.solve import SolveError, solve_graph

        system, graph = build(shell, sys_params)
        cache_line, sram_size = _instance_params(system)
        report = lint_graph(graph, cache_line=cache_line, sram_size=sram_size)
        if report.has_errors:
            first = report.errors[0]
            return f"{first.rule_id}: {first.message}"
        try:
            solve_graph(graph, sram_size=sram_size, cache_line=cache_line)
        except SolveError as e:
            first = e.report.diagnostics[0]
            return f"{first.rule_id}: {first.message}"
        return None

    return prune


def successive_halving(
    build: Callable[[ShellParams, SystemParams], "tuple[EclipseSystem, ApplicationGraph]"],
    axes: Sequence[Axis],
    rung_axis: Axis,
    base_shell: Optional[ShellParams] = None,
    base_system: Optional[SystemParams] = None,
    keep: float = 0.5,
    metric: Callable[[SweepPoint], Any] = None,
    prune: Optional[Callable[[Dict[str, Any], ShellParams, SystemParams], Optional[str]]] = None,
    pruned: Optional[List[Tuple[Dict[str, Any], str]]] = None,
    parallel: bool = False,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Race the (statically feasible) frontier across fidelity rungs.

    ``rung_axis`` orders the fidelity levels cheapest-first (e.g. a
    short payload up to the full-length run).  Every surviving combo
    runs at the cheapest rung; the best ``keep`` fraction (by
    ``metric``, default cycles; deterministic tie-break on the
    settings) is promoted to the next rung, and so on.  The returned
    points are the survivors evaluated at the *final* rung, best
    first.  Budget: N + N/2 + N/4 + … runs instead of N x rungs.
    """
    if not rung_axis.values:
        raise ValueError("rung_axis needs at least one fidelity level")
    if not 0 < keep <= 1:
        raise ValueError(f"keep must be in (0, 1], got {keep}")
    metric = metric or (lambda p: p.cycles)
    base_shell = base_shell or ShellParams()
    base_system = base_system or SystemParams()

    combos = _enumerate_combos(axes, "factorial")
    if prune is not None:
        kept = []
        for combo, shell, sys_params in _resolve_combos(
            combos, axes, base_shell, base_system
        ):
            reason = prune(combo, shell, sys_params)
            if reason is None:
                kept.append(combo)
            elif pruned is not None:
                pruned.append((dict(combo), reason))
        combos = kept

    points: List[SweepPoint] = []
    for i, rung in enumerate(rung_axis.values):
        if not combos:
            return []
        resolved = []
        for combo, shell, sys_params in _resolve_combos(
            combos, axes, base_shell, base_system
        ):
            shell, sys_params = rung_axis.apply(shell, sys_params, rung)
            resolved.append((combo, shell, sys_params))
        points = _run_resolved(resolved, build, False, parallel, jobs)
        points.sort(key=lambda p: (metric(p), sorted(p.settings.items()).__repr__()))
        if i < len(rung_axis.values) - 1:
            n_keep = max(1, int(len(points) * keep))
            combos = [p.settings for p in points[:n_keep]]
    return points


def render_sweep(points: Sequence[SweepPoint], baseline: Optional[SweepPoint] = None) -> str:
    """Comparison table over the executed points."""
    if not points:
        return "(no points)"
    base = baseline or points[0]
    names = sorted({k for p in points for k in p.settings})
    header = " ".join(f"{n:>12}" for n in names) + f" {'cycles':>9} {'vs base':>8} {'stalls':>8} {'denied':>7}"
    lines = [header]
    for p in points:
        cols = " ".join(f"{str(p.settings.get(n, '-')):>12}" for n in names)
        lines.append(
            f"{cols} {p.cycles:>9} {p.cycles / base.cycles:>8.3f} "
            f"{p.stall_cycles:>8} {p.denied_getspace:>7}"
        )
    return "\n".join(lines)
