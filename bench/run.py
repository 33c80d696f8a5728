"""Benchmark of nextevent: closed-loop train steps and inference windows.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process drives the public API with
one client: the next window starts only when the previous one has finished.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the same loop untraced and then traced for half
the time each, and reports the per-layer metrics (spans are written to
``.bench_out/``). Every run checks each window's outputs and compares the
reference windows against ``reference.json``. The last line of standard
output is the result as one JSON object.

``python3 bench/run.py --write-reference`` recomputes ``reference.json``
from the current code.
"""

import os
import sys
import time

_START = time.perf_counter()
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # must happen before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"
# Set-up is measured this many more times in fresh processes; setup_s is
# the median of those and this process's own set-up.
SETUP_PROBES = 4


def _import_program():
    """Import the package from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import nextevent.model
    except ImportError as e:
        sys.exit(f"cannot import nextevent from {SRC}: {e}")
    if not Path(nextevent.model.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"nextevent imported from {nextevent.model.__file__}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, REFERENCE_SEED, Session, current_speed_factor, layer_targets, traced_metrics,
    window_summary,
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def write_reference() -> None:
    data = {}
    for wl in WORKLOADS.values():
        session = Session(wl, REFERENCE_SEED, 1.0)
        run = session.reference_run()
        if run.failed:
            sys.exit(f"{wl.name}: reference windows fail their output checks")
        data[wl.name] = run.losses
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    wl = WORKLOADS[args.workload]
    tracer = Tracer(layer_targets()) if args.trace else None
    if tracer is None:
        session = Session(wl, args.seed, args.seconds)
    else:
        with tracer:
            session = Session(wl, args.seed, args.seconds)
    setup_wall_s = time.perf_counter() - _START
    setup_factor = current_speed_factor()
    setup_s = setup_wall_s * setup_factor
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    expected = json.loads(REFERENCE.read_text())[wl.name]
    attempted, failed = session.check_reference(expected)
    details: dict = {"workload": wl.name, "env": environment(args.seed)}
    if tracer is None:
        setup = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        loop = session.run(args.seconds, wl.loss_windows)
        attempted += len(loop.ok)
        failed += loop.failed
        nominal = loop.nominal_s()
        windows = window_summary(nominal)
        metrics = {
            "windows_per_s": (len(nominal) / sum(nominal), "1/s"),
            "window_ms_p50": (windows["p50_ms"], "ms"),
            "window_ms_p90": (windows["p90_ms"], "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "loss_mean": (statistics.fmean(loop.losses[: wl.loss_windows]), "nat"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
        wall = window_summary(loop.durations)
        details.update(
            window_samples=windows["samples"], loss_windows=wl.loss_windows,
            setup_samples_s=setup, setup_wall_s=setup_wall_s,
            wall_windows_per_s=len(loop.durations) / loop.elapsed,
            wall_window_ms_p50=wall["p50_ms"], wall_window_ms_p90=wall["p90_ms"],
            speed_factor_median=statistics.median(loop.factors()),
        )
    else:
        metrics, plain, traced = traced_metrics(session, tracer, args.seconds, setup_factor)
        attempted += len(plain.ok) + len(traced.ok)
        failed += plain.failed + traced.failed
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        details.update(untraced_windows=len(plain.ok), traced_windows=len(traced.ok),
                       count_windows=wl.count_windows, spans=str(spans_path.relative_to(ROOT)))
    details.update(attempted=attempted, failed=failed)

    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
