"""Seeded end-to-end and per-layer benchmark of the csisense CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark imports the package from
`src/` of the checkout it sits in and drives the real entry point,
`csisense.cli.main(argv)`, in this one process: a closed loop with a
single client, each CLI call starting when the previous one returned.

Phases of a run:

1. Set-up, seven times, each in a fresh interpreter: import the package
   and generate the workload's inputs from the seed.  `setup_s` is the
   median wall time from process start to inputs ready, and `import_s`
   (traced runs) the median time they took to import numpy and the
   package.
   The seven input sets must be byte-identical.
2. One warm-up pass, whose outputs become the reference and are scored
   against ground truth.
3. Timed passes until `--seconds` have passed (at least three).  Each
   call, like each set-up process, starts on a CPU in its fast state
   (see QuietCpu), and timings take each call's fastest run.  Every
   call must exit 0 and write the reference outputs again byte for byte;
   its output files are deleted before it starts, so a call that does not
   write them fails.

With `--trace 1` the timed phase alternates untraced and traced passes
and reports per-layer metrics from the traced ones (see tracer.py);
end-to-end metrics come only from `--trace 0` runs.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  `attempted` counts set-up processes and CLI calls;
`failed` counts those that exited nonzero or failed an output check.
A readable report goes to stderr and a detailed one, with machine
facts, to perfbench/out/<workload>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

STARTED = time.perf_counter()  # before numpy and the package load: base of import_s

# One BLAS thread, set before numpy loads BLAS.  The benchmark is one
# closed-loop client; a second BLAS thread would make its timings depend on
# what other tenants run on the machine's other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_PASSES = 3
SUBCOMMANDS = ("simulate", "decode", "calibrate", "bearing", "scan", "profile")

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, Score, Step, run_cli  # noqa: E402


@dataclass
class Call:
    step: Step
    code: int
    wall_s: float
    stdout: str
    stderr: str
    digests: dict[str, str | None]
    ingest: list = field(default_factory=list)  # IngestStats seen while traced


# -- CPU speed ------------------------------------------------------------------

# 8 MB, more than a core's private caches hold, so summing it meets other
# tenants in the shared cache and memory.
PROBE_BUFFER = np.ones(1 << 20)


def _probe_s() -> float:
    """Wall time of a fixed ~1.5 ms mix of interpreter work and memory traffic."""
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    PROBE_BUFFER.sum()
    return time.perf_counter() - started


class QuietCpu:
    """Puts this process on a CPU in its fast state before each timed step.

    On a shared host each virtual CPU flips, every fraction of a second to
    tens of seconds, between a fast state and one 25-100% slower: other
    tenants busy on the same physical core slow the interpreter, and those
    filling the shared cache and memory slow large arrays, independently.
    The two CPUs flip independently too.  Under load a whole run can pass
    without a call that ran in the fast state, so the fastest call of a
    run, let alone the median, then differs from run to run by that much.

    So before each timed step every CPU runs a probe that feels both kinds
    of contention (best of three), the process is pinned to the fastest,
    and, untimed, it waits up to a second for that probe to come within 10%
    of the fastest probe of the run.  The program runs one thread, so the
    pinning changes nothing else.
    """

    TOLERANCE = 1.1
    MAX_WAIT_S = 1.0

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.floor_s = float("inf")
        self.waits: list[float] = []
        self.gave_up = 0

    def _probe(self, cpu: int | None) -> float:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        best = min(_probe_s() for _ in range(3))
        self.floor_s = min(self.floor_s, best)
        return best

    def settle(self) -> None:
        started = time.perf_counter()
        while True:
            best, cpu = min((self._probe(cpu), cpu) for cpu in self.cpus or [None])
            waited = time.perf_counter() - started
            if best <= self.TOLERANCE * self.floor_s or waited > self.MAX_WAIT_S:
                break
            time.sleep(0.005)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        self.waits.append(waited)
        self.gave_up += best > self.TOLERANCE * self.floor_s

    def report(self) -> dict:
        return {"floor_s": self.floor_s, "settles": len(self.waits),
                "median_wait_s": _median(self.waits), "gave_up": self.gave_up}


CPU = QuietCpu()


# -- set-up -------------------------------------------------------------------

def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _import_package():
    """Import csisense from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import csisense
    import csisense.cli  # noqa: F401

    if Path(csisense.__file__).resolve().parent != (SRC / "csisense").resolve():
        raise ImportError(f"csisense imported from {csisense.__file__}, not {SRC}")
    return csisense


def setup_child(work: Path, workload: str, seed: int, tiny: bool) -> int:
    """Body of one set-up process: import, generate inputs, print the import
    time (numpy included) and the inputs' digests."""
    _import_package()
    import_s = time.perf_counter() - STARTED
    meta = WORKLOADS[workload].setup(work, seed, tiny)
    (work / "inputs.json").write_text(json.dumps(meta, sort_keys=True))
    print(json.dumps({"import_s": import_s,
                      "digests": {p.name: _digest(p) for p in sorted(work.iterdir())
                                  if p.is_file()}}))
    return 0


def run_setups(work: Path, args) -> tuple[list[float], list[float], list[dict]]:
    """Set-up walls, import times and input digests of the fresh set-up processes."""
    walls, imports, digests = [], [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(work),
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        if args.tiny:
            cmd.append("--tiny")
        CPU.settle()  # the child inherits the CPU
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(child["import_s"])
        digests.append(child["digests"])
    return walls, imports, digests


# -- passes ---------------------------------------------------------------------

def run_pass(steps: list[Step], work: Path, tracer=None) -> list[Call]:
    calls = []
    for step in steps:
        for name in step.outputs:
            (work / name).unlink(missing_ok=True)
        if tracer is not None:
            tracer.ingest_stats.clear()
        CPU.settle()
        started = time.perf_counter()
        try:
            code, out, err = run_cli(step.argv)
        except Exception:  # a traceback is a failed call, not a failed benchmark
            code, out, err = -1, "", traceback.format_exc()
        wall = time.perf_counter() - started
        call = Call(step, code, wall, out, err, {o: _digest(work / o) for o in step.outputs})
        if tracer is not None:
            call.ingest = list(tracer.ingest_stats)
        calls.append(call)
    return calls


def call_failures(call: Call, reference: dict[str, str | None], blamed: set[str]) -> list[str]:
    why = []
    if call.code != 0:
        why.append(f"exit {call.code}: {call.stderr.strip()[-300:]}")
    for name, digest in call.digests.items():
        if digest is None:
            why.append(f"{name} was not written")
        elif digest != reference.get(name):
            why.append(f"{name} differs from the warm-up output")
    if call.step.command in blamed:
        why.append("output failed a ground-truth check")
    return why


# -- metrics --------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _fastest(passes, command: str) -> float:
    return min(c.wall_s for p in passes for c in p if c.step.command == command)


def end_to_end_metrics(wl, meta, passes, setup_walls, score) -> dict:
    # Timings take each call's fastest run, not the median: every call
    # starts on a CPU in its fast state (see QuietCpu), but under load that
    # state may end before the call does, more often the longer the call.
    return {
        "setup_s": (_median(setup_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_s": (sum(_fastest(passes, c.step.command) for c in passes[0]), "s"),
        "frames_per_s": (meta["frames"] / _fastest(passes, wl.fps_command), "1/s"),
        "err_mean_deg": (score.mean_deg, "deg"),
    }


# Function-level metrics.  Self time is given as a share of the traced
# CLI time (trace.pass_ms is the base) so that a function a workload never
# calls reads 0 without posing as a measured time.
CALL_COUNTS = ("codec.decode_frame", "codec.encode_frame", "core.apply_calibration",
               "aoa.bartlett_profile", "calibration.suppress_bearing",
               "synth.environment_beacons", "scanner.step", "scanner.scan_all")
SELF_SHARES = ("codec.read_capture", "codec.write_capture", "core.apply_calibration",
               "aoa.bartlett_profile", "aoa.ProfileAverager.push", "aoa.spotfi_estimate",
               "aoa.music_spectrum", "aoa.estimate_bearing", "aoa.write_bearings_csv",
               "aoa.write_profile_pgm", "calibration.calibrate",
               "calibration.suppress_bearing", "calibration.coarse_calibration",
               "calibration.fine_tune", "synth.synth_trajectory", "scenario.load_scenario",
               "scenario.read_poses_csv", "scenario.write_poses_csv",
               "scanner.run_walkthrough")
NAMED = sorted(set(CALL_COUNTS + SELF_SHARES + ("codec.ingest_stream", "cli.main")))
INGEST_FIELDS = ("received", "delivered", "dropped_mac", "dropped_rssi", "dropped_decode")


def _stderr_count(pattern: str, text: str) -> int:
    match = re.search(pattern, text)
    return int(match.group(1)) if match else 0


def per_layer_metrics(tracer, traced_passes, untraced_passes, imports, attempted,
                      failed) -> dict:
    from tracer import LAYERS

    n = max(len(traced_passes), 1)
    calls = [c for p in traced_passes for c in p]
    main_ns = max(tracer.stats.get("cli.main", (0, 0, 0))[1], 1)
    m: dict[str, tuple[float, str]] = {}

    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (tracer.calls(name) / n, "count")
    decodes = tracer.calls("codec.decode_frame")
    m["codec.decode_frame.self_us"] = (tracer.self_ns("codec.decode_frame") / max(decodes, 1)
                                       / 1e3, "us")
    frames_read = sum(c.step.frames_read for c in calls)
    m["codec.decodes_per_frame"] = (decodes / frames_read if frames_read else 0.0, "ratio")
    for fname in INGEST_FIELDS:
        total = sum(getattr(s, fname, 0) for c in calls for s in c.ingest)
        m[f"codec.ingest.{fname}"] = (total / n, "count")
    for name in SELF_SHARES:
        m[f"{name}.self_share"] = (tracer.self_ns(name) / main_ns, "share")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (tracer.layer_self_ns(layer) / main_ns, "share")

    bearing_calls = [c for c in calls if c.step.command == "bearing"]
    written = sum(_stderr_count(r"(\d+) bearings written", c.stderr) for c in bearing_calls)
    delivered = sum(s.delivered for c in bearing_calls for s in c.ingest)
    m["aoa.accept_share"] = (written / delivered if delivered else 0.0, "share")
    m["cli.stderr_rssi_rejects"] = (sum(_stderr_count(r"(\d+) rejected by rssi floor",
                                                      c.stderr) for c in bearing_calls) / n,
                                    "count")
    iters = [it for it, _ in tracer.fine_tune]
    m["calibration.fine_tune.iterations"] = (_median(iters), "count")
    m["calibration.fine_tune.phase_moved_rad"] = (max((mv for _, mv in tracer.fine_tune),
                                                      default=0.0), "rad")

    pass_walls = [sum(c.wall_s for c in p) for p in traced_passes]
    for sub in SUBCOMMANDS:
        sub_wall = sum(c.wall_s for c in calls if c.step.command == sub)
        m[f"cli.main.{sub}.wall_share"] = (sub_wall / max(sum(pass_walls), 1e-12), "share")
    m["cli.self_ms"] = (tracer.layer_self_ns("cli") / max(tracer.calls("cli.main"), 1) / 1e6,
                        "ms")
    m["trace.pass_ms"] = (_median(pass_walls) * 1e3, "ms")
    untraced = _median([sum(c.wall_s for c in p) for p in untraced_passes])
    m["trace.overhead_share"] = (_median(pass_walls) / untraced - 1.0 if untraced else 0.0,
                                 "share")
    m["trace.absent_functions"] = (float(sum(not tracer.has(f) for f in NAMED)), "count")
    m["import_s"] = (_median(imports), "s")
    m["error_share"] = (failed / attempted, "share")
    return m


def function_table(tracer, n: int) -> dict:
    main_ns = max(tracer.stats.get("cli.main", (0, 0, 0))[1], 1)
    table = {name: {"calls_per_pass": rec[0] / n,
                    "self_ms_per_call": rec[2] / max(rec[0], 1) / 1e6,
                    "self_share": rec[2] / main_ns}
             for name, rec in sorted(tracer.stats.items())}
    for name in NAMED:
        if not tracer.has(name):
            table[name] = "absent"
    return table


# -- machine facts --------------------------------------------------------------

def _blas_threads():
    """Thread count of the loaded OpenBLAS, read through its C API if present."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(CPU.cpus) or os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "seed": seed,
        "note": f"numbers come from a {nproc}-core machine that other tenants may share; "
                "compare only runs made on the same machine",
    }


# -- one run ------------------------------------------------------------------

def benchmark(args, work: Path) -> dict:
    wl = WORKLOADS[args.workload]
    setup_walls, imports, setup_digests = run_setups(work, args)
    attempted = len(setup_digests)
    failed = sum(d != setup_digests[0] for d in setup_digests)
    problems = [f"set-up run {k} produced different inputs"
                for k, d in enumerate(setup_digests) if d != setup_digests[0]]

    _import_package()
    meta = json.loads((work / "inputs.json").read_text())
    steps = wl.steps(work, meta)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    warm = run_pass(steps, work)
    reference = {name: d for c in warm for name, d in c.digests.items()}
    try:
        score = wl.score(work, meta, {c.step.command: c.stdout for c in warm})
    except (OSError, ValueError, KeyError) as exc:  # e.g. an output the warm-up never wrote
        score = Score(np.array([]), [("outputs can be scored", False, repr(exc))],
                      wl.fps_command)
    blamed = {score.blamed} if not all(ok for _, ok, _ in score.checks) else set()

    passes, traced = [], []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(steps, work))
        if tracer is not None:
            tracer.record_spans = not traced
            tracer.install()
            try:
                traced.append(run_pass(steps, work, tracer))
            finally:
                tracer.uninstall()
                tracer.record_spans = False

    for call in [c for p in [warm] + passes + traced for c in p]:
        attempted += 1
        why = call_failures(call, reference, blamed)
        if why:
            failed += 1
            problems.append(f"{call.step.command}: {'; '.join(why)}")

    if tracer is None:
        metrics = end_to_end_metrics(wl, meta, passes, setup_walls, score)
    else:
        metrics = per_layer_metrics(tracer, traced, passes, imports, attempted, failed)

    timed = passes if tracer is None else traced
    steps_report = {}
    for sub in dict.fromkeys(s.command for s in steps):
        walls = sorted(c.wall_s for p in timed for c in p if c.step.command == sub)
        steps_report[f"{sub}_s"] = {"min": walls[0], "median": _median(walls), "max": walls[-1],
                                    "n": len(walls), "walls": walls}
    report = {
        "workload": wl.name, "why": wl.why, "trace": int(bool(tracer)),
        "seconds": args.seconds, "passes": len(timed), "untraced_passes": len(passes),
        "pass_walls_s": [sum(c.wall_s for c in p) for p in timed],
        "machine": machine_facts(args.seed),
        "setup": {"walls_s": setup_walls, "import_s": imports},
        "cpu": CPU.report(),
        "steps": steps_report,
        "checks": [{"check": c, "passed": ok, "value": v} for c, ok, v in score.checks],
        "error_deg": {"mean": score.mean_deg, "median": score.median_deg,
                      "n": int(score.errors_deg.size)},
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    if tracer is not None:
        report["functions"] = function_table(tracer, max(len(traced), 1))
        report["spans_file"] = str(out_dir / f"{wl.name}-spans.jsonl")
        report["spans"] = tracer.write_spans(out_dir / f"{wl.name}-spans.jsonl")
    (out_dir / f"{wl.name}-trace{int(bool(tracer))}.json").write_text(
        json.dumps(report, indent=1, default=str))
    _print_report(report)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": report["metrics"]}


def _print_report(report: dict) -> None:
    err = sys.stderr
    print(f"workload {report['workload']}: {report['passes']} timed passes, "
          f"{report['seconds']} s, trace={report['trace']}", file=err)
    for name, info in report["steps"].items():
        print(f"  {name:<14} min {info['min']:.4f}  median {info['median']:.4f}  "
              f"max {info['max']:.4f}  (n={info['n']})", file=err)
    print(f"  ground-truth error: mean {report['error_deg']['mean']:.4f} deg, median "
          f"{report['error_deg']['median']:.4f} deg over {report['error_deg']['n']} values",
          file=err)
    for check in report["checks"]:
        print(f"  check {check['check']}: {'ok' if check['passed'] else 'FAILED'} "
              f"({check['value']})", file=err)
    for problem in report["problems"][:10]:
        print(f"  problem: {problem}", file=err)
    for name, info in report["metrics"].items():
        print(f"  {name:<42} {info['value']:.6g} {info['unit']}", file=err)
    absent = [k for k, v in report.get("functions", {}).items() if v == "absent"]
    if absent:
        print(f"  absent: {', '.join(absent)}", file=err)
    cpu = report["cpu"]
    print(f"  fast CPU waits: median {cpu['median_wait_s'] * 1e3:.1f} ms over "
          f"{cpu['settles']} steps, {cpu['gave_up']} gave up; probe floor "
          f"{cpu['floor_s'] * 1e3:.3f} ms", file=err)
    print(f"  {report['machine']['note']}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up run (smoke test only)")
    parser.add_argument("--setup-child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "csisense" / "cli.py").is_file():
        print(f"error: no csisense sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(Path(args.setup_child), args.workload, args.seed, args.tiny)

    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = benchmark(args, work)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
