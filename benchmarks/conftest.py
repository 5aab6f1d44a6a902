"""Shared workloads for the benchmark/experiment suite.

Each bench regenerates one of the paper's figures/tables (see
DESIGN.md's experiment index).  Workloads are built once per session;
benches print their paper-comparable tables (run with ``-s`` to see
them) and stash the key numbers in ``benchmark.extra_info`` so they
land in pytest-benchmark's JSON output.
"""

import pytest

from repro import CodecParams, encode_sequence, synthetic_sequence


@pytest.fixture(scope="session")
def small_content():
    """48x32, 6 frames — fast enough for sweeps."""
    params = CodecParams(width=48, height=32, gop_n=6, gop_m=3)
    frames = synthetic_sequence(params.width, params.height, num_frames=6)
    bitstream, recon, stats = encode_sequence(frames, params)
    return params, frames, bitstream, recon, stats


@pytest.fixture(scope="session")
def fig10_content():
    """96x64, 12 frames (a full IPBBPBB... GOP) — the Figure 10 run."""
    params = CodecParams(width=96, height=64, gop_n=12, gop_m=3)
    frames = synthetic_sequence(params.width, params.height, num_frames=12, noise=1.0)
    bitstream, recon, stats = encode_sequence(frames, params)
    return params, frames, bitstream, recon, stats


def run_once(benchmark, fn):
    """Benchmark a long-running experiment exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_many(benchmark, specs, jobs=None):
    """Run a batch of independent RunSpecs through the parallel engine
    exactly once, stashing the speedup numbers in ``extra_info``.

    This is the shared multi-run path for the scalability/sweep benches:
    independent simulation points amortize across cores instead of
    executing strictly sequentially.  Returns the RunReport (results in
    spec order, deterministic regardless of ``jobs``).
    """
    from repro.runner import ParallelRunner

    runner = ParallelRunner(jobs=jobs)
    report = benchmark.pedantic(runner.run, args=(specs,), rounds=1, iterations=1)
    benchmark.extra_info["jobs"] = report.jobs
    benchmark.extra_info["runs"] = len(report.results)
    benchmark.extra_info["wall_time_s"] = round(report.wall_time, 3)
    benchmark.extra_info["serial_estimate_s"] = round(report.serial_time_estimate, 3)
    benchmark.extra_info["speedup"] = round(report.speedup, 2)
    return report
