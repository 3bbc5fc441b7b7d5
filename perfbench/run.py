#!/usr/bin/env python3
"""lexcat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {cv_headline,ingest,explain,all} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it imports lexcat
from the checkout's `src/` and keeps its files in `.bench_build/perfbench/`.
The lines before the last describe the run and print the workload's own
metrics with units; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 runs passes adding up to at least `--seconds`, between a round
of set-ups before them and one after, and reports the end-to-end metrics,
each time scaled to a nominal host speed by calibration chunks run during
the measurement (calibration.py).
--trace 1 runs untraced and traced passes in turn on the same inputs for at
least `--seconds`, checks that all give the same outputs and reports the
per-layer metrics plus the tracing overhead. `--workload all` runs every
workload in a process of its own, one after the other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
NAMES = ("cv_headline", "ingest", "explain")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_digest() -> str:
    """SHA-256 of the lexcat sources and of the benchmark's own, which makes
    the inputs, so stored digests never cross commits."""
    h = hashlib.sha256()
    paths = [*(SRC / "lexcat").rglob("*"), *Path(__file__).resolve().parent.glob("*.py")]
    for path in sorted(paths):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_stored_digest(checks, workdir: Path, key: str, digest: str) -> None:
    """The first run of a key in a checkout stores its digest; every later
    run of the same workload, seed, sizes and sources must reproduce it."""
    path = workdir / "digests" / (hashlib.sha256(key.encode()).hexdigest()[:32] + ".sha256")
    if path.exists():
        checks.check("digest_stable_across_runs", path.read_text() == digest)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest)


def machine_facts() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{os.cpu_count()} cores, Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}, "
            f"{'/'.join(BLAS_THREAD_VARS)}={os.environ.get(BLAS_THREAD_VARS[0], 'unset')}")


def end_to_end(m, setup_s: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (m.peak_rss_mib, "MiB"),
        "docs_per_s": (m.docs_per_s(), "docs/s"),
        "op_ms_p50": (m.op_ms(50), "ms"),
        "op_ms_p90": (m.op_ms(90), "ms"),
    }


def run_workload(wl, seconds: float, trace: bool) -> dict:
    """Set up, measure and verify one workload object; print the report and
    return the result object that the last line holds."""
    import workloads
    from tracer import Tracer

    checks = workloads.Checks()
    print(f"# workload {wl.name}, seed {wl.seed}: {wl.sizes()}")
    print(f"# machine: {machine_facts()}")

    if trace:
        # one traced set-up, then untraced and traced passes in turn on the
        # same inputs; layer figures are one set-up plus the mean traced pass
        setup_tracer, pass_tracer = Tracer(), Tracer()
        t0 = perf_counter()
        with setup_tracer:
            state = wl.setup()
        setup_s = perf_counter() - t0
        untraced, traced = [], []
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            untraced.append(wl.run_pass(state))
            with pass_tracer:
                traced.append(wl.run_pass(state))
        m = workloads.Measurement(untraced, wl.docs_per_pass)
        workloads.check_repeats(m, checks)
        digest = wl.verify(state, m, checks)
        for p in traced:
            checks.check("traced_outputs_match_untraced", p.outputs == m.outputs)
        layers = Tracer()
        layers.add(setup_tracer)
        layers.add(pass_tracer, 1.0 / len(traced))
        metrics = layers.metrics()
        metrics["bench.traced_setup_s"] = (setup_s, "s")
        traced_s = statistics.mean(p.wall_s for p in traced)
        metrics["bench.traced_pass_s"] = (traced_s, "s")
        metrics["bench.trace_overhead_ratio"] = (traced_s / m.mean_pass_s(), "ratio")
    else:
        setup_s, state, m = workloads.measure(wl, seconds)
        workloads.check_repeats(m, checks)
        digest = wl.verify(state, m, checks)
        metrics = end_to_end(m, setup_s)
        print(f"# {len(setup_s)} set-ups, {len(m.passes)} passes of {m.docs_per_pass} docs")
        for key, (value, unit) in wl.detail(m).items():
            print(f"{key} {value} {unit}")

    key = f"{wl.name}|{wl.seed}|{wl.sizes()}|{source_digest()}"
    check_stored_digest(checks, wl.workdir, key, digest)
    failed = len(checks.failures)
    print(f"error_rate {failed / checks.attempted} failed/attempted ({failed} of {checks.attempted})")
    for failure in sorted(set(checks.failures)):
        print(f"# FAILED {failure} x{checks.failures.count(failure)}")
    print(f"# outputs sha256 {digest}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexcat" / "__init__.py").is_file():
        print(f"perfbench: no lexcat sources at {SRC}/lexcat; run it in a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return status

    # pin BLAS to one thread before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](seed=args.seed, workdir=WORKDIR)
    run_workload(wl, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
