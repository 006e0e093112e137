"""dahyf benchmark: one seeded command per workload, run from the repo root.

    python3 bench/run.py --workload eval_short --seed 0 --seconds 10 --trace 0

With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  Each metric is printed with its unit,
then an environment record, then as the last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every output passed the correctness gate (and, on the default seed, matched
the golden reference), 1 when one did not, and 2 when the package source is
missing.  `--write-golden` regenerates `bench/golden.json`.  See
`bench/README.md` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 11
SETUP_CODE = "import dahyf; from dahyf import toy; dahyf.load_model(toy.bundled_model_path())"
MIN_CLIPS = 100

# name -> unit of every end-to-end metric, in print order
END_TO_END = {
    "frames_per_s": "frames/s",
    "clip_ms_p50": "ms",
    "clip_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads(n: int) -> None:
    """Cap BLAS/OpenMP pools at `n` threads; must run before numpy loads."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > n:
            os.environ[var] = str(n)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_record(args, n: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": n,
        "cpu_model": cpu_model(),
        "limits": f"shared {n}-core machine; no cache control, no frequency control; "
                  "each clip pinned to the CPU that runs a calibration kernel fastest just before it, "
                  "declared times host-adjusted by that kernel; single closed-loop client",
    }


def typical_clip_ms(frames: list[int], ms):
    """Each clip's time replaced by the median time of the clips with as
    many frames: robust to single slow clips, and the length mix stays."""
    import numpy as np

    frames = np.asarray(frames)
    by_length = {n: np.median(ms[frames == n]) for n in np.unique(frames)}
    return np.array([by_length[n] for n in frames])


def measure_setup(reps: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import dahyf and load the bundled
    model, as every `dahyf` CLI call does, each started on the least
    contended CPU; raw and host-adjusted.  One unmeasured warm-up first."""
    from host import Host, host_adjusted, kernel_ms

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {SETUP_CODE}"
    host = Host()
    times, before, after = [], [], []
    try:
        for i in range(reps + 1):
            ms = host.settle()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
            if i:
                times.append(time.perf_counter() - start)
                before.append(ms)
                after.append(kernel_ms())
    finally:
        host.release()
    return times, list(host_adjusted(times, before, after))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("eval_short", "live_logits", "train_targets"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0, help="clip time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-clips", type=int, default=MIN_CLIPS, help="clips to run at the least")
    p.add_argument("--write-golden", action="store_true", help="regenerate bench/golden.json and exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_golden:
        p.error("--workload is required")
    return args


def write_golden() -> int:
    import golden
    from workloads import DEFAULT_SEED, WORKLOADS, drive

    records = {}
    for name, cls in WORKLOADS.items():
        workdir = WORK / f"golden-{name}-{os.getpid()}"
        try:
            wl = cls(DEFAULT_SEED, workdir)
            outcome = drive(wl, 0.0, wl.gold_clips)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if outcome.failed:
            print("\n".join(outcome.errors[:10]), file=sys.stderr)
            return 1
        records[name] = outcome.records
    golden.write(DEFAULT_SEED, records)
    print(f"wrote {golden.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dahyf" / "__init__.py").is_file():
        print(f"error: dahyf package source not found under {SRC}", file=sys.stderr)
        return 2
    n = nproc()
    cap_threads(n)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dahyf
    import golden
    from host import K_REF_MS, host_adjusted
    from tracer import METRICS as LAYER_METRICS, Tracer, reanchor_statement
    from workloads import DEFAULT_SEED, WORKLOADS, drive

    if Path(dahyf.__file__).resolve().parent != SRC / "dahyf":
        print(f"error: imported dahyf from {dahyf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()

    env = env_record(args, n)
    setup, setup_adjusted = measure_setup(SETUP_REPS) if args.trace == 0 else ([], [])
    tracer = Tracer() if args.trace else None
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        outcome = drive(WORKLOADS[args.workload](args.seed, workdir), args.seconds, args.min_clips, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = list(outcome.errors)
    if args.seed == DEFAULT_SEED:
        errors += golden.check(args.workload, outcome.records)
    correct = not errors and outcome.attempted > 0

    clip_ms = np.array(outcome.seconds) * 1e3
    frames, timed_s = sum(outcome.frames), sum(outcome.seconds)
    print(f"dahyf benchmark  workload={args.workload} seed={args.seed} trace={args.trace}  "
          f"{outcome.attempted} clips, {frames} frames, {timed_s:.2f} s of clip time")
    if tracer is None:
        adjusted_ms = host_adjusted(clip_ms, outcome.kernel_before_ms, outcome.kernel_after_ms)
        values = {
            "frames_per_s": 1e3 * frames / typical_clip_ms(outcome.frames, adjusted_ms).sum()
                            if clip_ms.size else 0.0,
            "clip_ms_p50": float(np.percentile(adjusted_ms, 50)) if clip_ms.size else 0.0,
            "clip_ms_p90": float(np.percentile(adjusted_ms, 90)) if clip_ms.size else 0.0,
            "setup_s": statistics.median(setup_adjusted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        notes = {"setup_s": f"median of {len(setup)} fresh interpreters; wall clock {statistics.median(setup):.4f}"}
        if clip_ms.size:
            notes.update({
                "frames_per_s": f"wall clock {frames / timed_s:.1f}, "
                                f"CPU/wall {sum(outcome.cpu_seconds) / timed_s:.3f}",
                "clip_ms_p50": f"wall clock {np.percentile(clip_ms, 50):.2f}, n={clip_ms.size} clips",
                "clip_ms_p90": f"wall clock {np.percentile(clip_ms, 90):.2f}",
            })
    else:
        values = tracer.metrics(sum(outcome.traced_frames), len(outcome.traced_frames),
                                sum(outcome.seconds), sum(outcome.traced_seconds))
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        notes = {}
    for name, unit in units.items():
        print(f"  {name:38s} {values[name]:14.4f} {unit:12s} {notes.get(name, '')}")
    print(f"  {'error_rate':38s} {outcome.failed / max(outcome.attempted, 1):14.4f} {'fraction':12s} "
          f"{outcome.failed} of {outcome.attempted} clips failed")
    if outcome.kernel_before_ms:
        kernel = np.percentile(outcome.kernel_before_ms + outcome.kernel_after_ms, [10, 50, 90])
        print(f"  calibration kernel p10/p50/p90 {kernel[0]:.3f}/{kernel[1]:.3f}/{kernel[2]:.3f} ms; "
              f"declared times are scaled to {K_REF_MS} ms (see bench/host.py)")
    if tracer is not None and args.workload == "eval_short":
        print("  " + reanchor_statement(values))
    for err in errors[:10]:
        print(f"FAIL {err}", file=sys.stderr)

    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    header = {"env": env, "result": result, "errors": errors[:100],
              "clips": {"frames": outcome.frames, "wall_s": outcome.seconds, "cpu_s": outcome.cpu_seconds,
                        "kernel_before_ms": outcome.kernel_before_ms,
                        "kernel_after_ms": outcome.kernel_after_ms}}
    (OUT / f"result_{stem}.json").write_text(json.dumps(header) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"trace_{args.workload}.json", header)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
