"""Benchmark of the agemon CLI, run in-process from a source checkout.

    python3 perfbench/run.py --workload simulate-default --seed 20260810 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One operation is one call of ``agemon.cli.run_subcommand(argv)`` with
``AGEMON_OUT_DIR`` pointing at a temporary directory inside the checkout.
Operations run in a closed loop (one client, each call starts after the
previous one returned) from a single thread, until ``--seconds`` have been
spent measuring. Operation ``i`` passes the program ``--seed`` drawn as the
``i``-th 32-bit value of ``random.Random(--seed)``; nothing else about the
benchmark seed reaches the program. Every operation's outputs are checked
(see workloads.py); an operation that exits non-zero, raises or fails its
check counts as failed.

``--trace 0`` reports the end-to-end metrics: ``norm_cpu_s`` (median
normalised CPU seconds of one ``run_subcommand`` call), ``setup_s``
(median normalised CPU seconds to ``import agemon.cli`` in a fresh
interpreter) and ``peak_rss_mb`` (``ru_maxrss`` of this process).

On a shared virtual machine the speed of a vCPU changes with what the
host's other tenants do, in phases of a second to minutes: one 10^4-period
simulate took 1.4 s or 2.2 s of CPU time depending on when it ran, so
medians of raw times drift by tens of percent between runs. A fixed
calibration kernel therefore runs before and after every timed operation,
and each CPU time is rescaled by ``CALIBRATION_NOMINAL_S`` over the mean
of its two calibration times: a normalised second is a second of CPU on a
vCPU running the kernel in ``CALIBRATION_NOMINAL_S``. Operations are kept
short (well under a second) so that most of them run in one phase, and
the median over a run leaves out those that straddle a change. Fresh
interpreters calibrate themselves the same way around the import, with
the Python-level part of the kernel only (see setup_probe.py), since an
import is interpreter work and numpy is not loaded before it. CPU time
(user plus system, one thread) rather than wall time leaves out steal.
Raw CPU and wall times are printed alongside.

``--trace 1`` alternates untraced and traced operations on one program
seed and reports the per-layer metrics of ``BENCHMARK.json`` (see
tracer.py), among them the median raw wall time of the untraced operations
as ``proc.wall_s``; counts must repeat exactly across the traced
operations and the numeric outputs across all of them. Spans of the first
traced operation are written to ``.perfbench-traces/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when every operation passed, 1 when one failed, 2 when the program
cannot be imported from the checkout's ``src``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from scipy import integrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from setup_probe import python_loop  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Expected, check_outputs  # noqa: E402

DEFAULT_SEED = 20260810
SETUP_SAMPLES = 7
MIN_TRACED_OPS = 2
TRACE_DIR = ROOT / ".perfbench-traces"
# CPU seconds of one calibration kernel (_calibrate in this process,
# setup_probe.python_loop in a fresh interpreter) at the nominal speed that
# normalised times are expressed in: about their time on a 2 GHz Xeon vCPU
# with the host otherwise quiet
CALIBRATION_NOMINAL_S = 0.07


class SetupError(Exception):
    pass


def _release_heap():
    """Free garbage and hand freed heap pages back to the OS (glibc only), so
    each operation's peak RSS is what one command in a fresh process would
    reach, not that plus the allocator's history from earlier operations."""
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def _metric_units(kind: str) -> dict[str, str]:
    """Unit of every metric of one kind ("end_to_end" or "per_layer"), in
    BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


def _import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import agemon.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import agemon from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"agemon was imported from {cli.__file__}, not from {SRC}")
    return cli


def _scalar_density(z):
    """A piecewise density evaluated the way agemon's integrands are, numpy
    calls on one float at a time."""
    z = np.asarray(z, dtype=np.float64)
    return float(np.where(z < 3.0, -np.expm1(-0.7 * z), np.exp(-0.7 * z) * np.expm1(2.1)))


def _calibrate() -> float:
    """CPU seconds of a fixed kernel doing the three kinds of work agemon
    does: numpy passes over arrays of tens of thousands of floats, a
    Python-level loop, and adaptive quadrature of a scalar numpy integrand.
    Its time measures how fast the vCPU runs now."""
    start = process_time()
    rng = np.random.default_rng(12345)
    for _ in range(20):
        x = rng.exponential(size=50_000)
        y = np.cumsum(x)
        z = np.sort(np.maximum.accumulate(y - 0.5 * x))
        np.searchsorted(y, z[::7])
    python_loop(150_000)
    for k in range(6):
        integrate.quad(_scalar_density, 0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=300)
        integrate.quad(_scalar_density, 0.0, 3.0 + k, epsabs=1e-12, epsrel=1e-11, limit=300)
    return process_time() - start


def _normalise(cpu: float, before: float, after: float) -> float:
    return cpu * CALIBRATION_NOMINAL_S / ((before + after) / 2)


def _setup_seconds() -> list[float]:
    """Normalised CPU seconds to import agemon.cli in fresh isolated
    interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"fresh import failed: {proc.stderr.strip()}")
        seconds, before, after, path = proc.stdout.strip().split(maxsplit=3)
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"fresh interpreter imported agemon from {path}")
        samples.append(_normalise(float(seconds), float(before), float(after)))
    return samples


class Runner:
    """Runs and checks single operations of one workload."""

    def __init__(self, cli, workload, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.expected = Expected.for_workload(workload)

    def run(self, seed: int) -> dict:
        for stale in self.out_dir.iterdir():
            stale.unlink()
        _release_heap()
        argv = self.workload.argv(seed)
        stdout = io.StringIO()
        error = None
        cpu = process_time()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                status = self.cli.run_subcommand(argv)
        except Exception:
            status = None
            error = traceback.format_exc()
        wall = perf_counter() - start
        cpu = process_time() - cpu
        digest = None
        if error is None and status != 0:
            error = f"exit status {status}"
        if error is None:
            try:
                digest = check_outputs(self.workload, self.expected, seed, stdout.getvalue(), self.out_dir)
            except CheckFailed as exc:
                error = f"output check failed: {exc}"
        if error is not None:
            print(f"  FAILED seed={seed} argv={argv}: {error}", file=sys.stderr)
        return {"seed": seed, "wall": wall, "cpu": cpu, "ok": error is None, "sha256": digest}


def _op_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def _measure(runner: Runner, seed: int, seconds: float) -> tuple[list[dict], dict]:
    setup = _setup_seconds()
    ops = []
    after = _calibrate()
    start = perf_counter()
    for op_seed in _op_seeds(seed):
        if ops and perf_counter() - start >= seconds:
            break
        before = after
        op = runner.run(op_seed)
        after = _calibrate()
        op["norm_cpu"] = _normalise(op["cpu"], before, after)
        ops.append(op)
        print(f"  op {len(ops) - 1}: seed={op_seed} norm_cpu={op['norm_cpu']:.4f} s cpu={op['cpu']:.4f} s "
              f"wall={op['wall']:.4f} s calibration={before:.4f}/{after:.4f} s ok={op['ok']} sha256={op['sha256']}")
    for key in ("cpu", "wall"):
        print(f"  median raw {key} time of one operation: {statistics.median(op[key] for op in ops):.4f} s")
    metrics = {
        "norm_cpu_s": (statistics.median(op["norm_cpu"] for op in ops), len(ops)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return ops, metrics


def _trace(runner: Runner, seed: int, seconds: float, per_layer: list[str]) -> tuple[list[dict], dict, bool]:
    from tracer import COUNT_SPAN, Tracer

    op_seed = next(_op_seeds(seed))
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_OPS or perf_counter() - start < seconds:
        plain.append(runner.run(op_seed))
        tracer.install()
        tracer.reset()
        try:
            op = runner.run(op_seed)
        finally:
            tracer.uninstall()
        op["counts"], op["self_s"] = tracer.finish()
        traced.append(op)
        if len(traced) == 1:
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write_spans(TRACE_DIR / f"{runner.workload.name}.spans.tsv")
        print(f"  pair {len(traced) - 1}: seed={op_seed} untraced={plain[-1]['cpu']:.4f} s "
              f"traced={op['cpu']:.4f} s spans={len(tracer.spans)} sha256={op['sha256']}")
    if tracer.hook_errors:
        print(f"  counts that could not be read: {sorted(tracer.hook_errors)}")
    tracer.reset()

    ops = plain + traced
    repeatable = True
    if len({op["sha256"] for op in ops}) != 1:
        print("  outputs of one seed differ between operations", file=sys.stderr)
        repeatable = False
    counts = traced[0]["counts"]
    for op in traced[1:]:
        if op["counts"] != counts:
            diff = sorted(k for k in counts.keys() | op["counts"].keys()
                          if counts.get(k) != op["counts"].get(k))
            print(f"  counts differ between traced runs: {diff}", file=sys.stderr)
            repeatable = False

    names = set(tracer.names)
    absent = []

    def median_self(select) -> float:
        return statistics.median(
            sum(v for k, v in op["self_s"].items() if select(k)) for op in traced
        )

    def value(name: str) -> float:
        if name == "proc.wall_s":
            return statistics.median(op["wall"] for op in plain)
        if name == "proc.trace_overhead_s":
            return (statistics.median(op["cpu"] for op in traced)
                    - statistics.median(op["cpu"] for op in plain))
        target, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            if target in names:
                return counts.get(name, 0) if field == "calls" else median_self(target.__eq__)
            if field == "self_s" and any(n.startswith(target + ".") for n in names):
                return median_self(lambda k: k.startswith(target + "."))
            absent.append(name)
        # a count is zero when the layer that produces it did not run
        return counts.get(name, 0)

    metrics = {name: (value(name), len(traced)) for name in per_layer}
    own = {k: statistics.median(op["self_s"].get(k, 0.0) for op in traced)
           for k in traced[0]["self_s"] if k != COUNT_SPAN}
    print("  top self time (median over traced operations):")
    for k in sorted(own, key=own.get, reverse=True)[:8]:
        print(f"    {k:<40} {own[k]:10.4f} s")
    if absent:
        print(f"  absent at this commit: {', '.join(absent)}")
    return ops, metrics, repeatable


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    try:
        units = _metric_units("per_layer" if args.trace else "end_to_end")
        cli = _import_cli()
    except (OSError, ValueError, KeyError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name}: seed={args.seed} seconds={args.seconds} trace={args.trace}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-out-", dir=ROOT) as tmp:
        os.environ["AGEMON_OUT_DIR"] = tmp
        runner = Runner(cli, workload, Path(tmp))
        try:
            if args.trace:
                ops, metrics, repeatable = _trace(runner, args.seed, args.seconds, list(units))
            else:
                ops, metrics = _measure(runner, args.seed, args.seconds)
                repeatable = True
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    failed = sum(not op["ok"] for op in ops)
    for name, (value, samples) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]:<6} (n={samples})")
    print(f"  {'failed_share':<44} {failed / len(ops):>14.6g} ratio  ({failed} of {len(ops)} operations)")
    correct = failed == 0 and repeatable
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a process of its own; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            print(f"error: workload {name} did not run", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
