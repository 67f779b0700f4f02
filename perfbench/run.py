#!/usr/bin/env python3
"""TED benchmark: three CLI workloads on seeded synthetic inputs.

    python3 perfbench/run.py --workload score-manual-60k --seed 20260823 \
        --seconds 20 --trace 0

`--workload all` runs every workload in turn. Each run generates its dataset
once from `--seed` (outside every timed region), then:

* `--trace 0` times `python -m ted.cli --version` (set-up) and runs the
  workload's command as a closed loop with one client: one subprocess at a
  time, the next one starting when the previous one exits, until `--seconds`
  have passed. Every invocation's outputs are checked.
* `--trace 1` runs the command once untraced and once in process with spans
  around each module's public functions (see spans.py), and reports the
  per-layer metrics.

Human-readable lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Full records (host,
per-invocation times, load averages, spans) go under `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 20260823  # the package's `correlated` preset seed
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, dict]  # "full" / "tiny" -> generator arguments
    manual_aus: bool
    tracker_shape: bool
    argv: tuple[str, ...]
    tiny_argv: tuple[str, ...]
    quality_name: str
    check: Callable  # (out_dir, sequences, size) -> (problems, quality)


WORKLOADS = {
    w.name: w
    for w in (
        # Ingestion-bound path every command shares; the only large output.
        Workload(
            name="score-manual-60k",
            sizes={
                "full": dict(n_subjects=25, n_sequences=8, n_frames=300),
                "tiny": dict(n_subjects=3, n_sequences=2, n_frames=60),
            },
            manual_aus=True,
            tracker_shape=False,
            argv=("score", "--au-source", "manual", "--jobs", "1"),
            tiny_argv=(),
            quality_name="mean_pcc",
            check=lambda out, seqs, size: checks.check_scores(out, seqs, ROOT),
        ),
        # Wide tracker-shaped rows, no manual AUs; dynamics and correlation
        # over seven windows, tiny output.
        Workload(
            name="sweep-predicted-lm68",
            sizes={
                "full": dict(n_subjects=10, n_sequences=8, n_frames=300, n_landmarks=68),
                "tiny": dict(n_subjects=3, n_sequences=2, n_frames=60, n_landmarks=68),
            },
            manual_aus=False,
            tracker_shape=True,
            argv=(
                "sweep", "--au-source", "predicted", "--profile", "pain_predicted",
                "--jobs", "1",
            ),
            tiny_argv=(),
            quality_name="mean_pcc",
            check=lambda out, seqs, size: checks.check_sweep(
                out, seqs, min_pcc=0.8 if size == "full" else 0.0
            ),
        ),
        # The forest: 10 LOSO folds; the only workload run with --jobs 2.
        Workload(
            name="interpret-loso-12k",
            sizes={
                "full": dict(n_subjects=10, n_sequences=4, n_frames=300),
                "tiny": dict(n_subjects=3, n_sequences=2, n_frames=100),
            },
            manual_aus=True,
            tracker_shape=False,
            argv=(
                "interpret", "--au-source", "manual", "--trees", "50", "--jobs", "2",
                "--pspi-threshold", "3",
            ),
            tiny_argv=("--trees", "5"),
            quality_name="mean_f1",
            check=lambda out, seqs, size: checks.check_interpret(
                out, seqs, min_f1=0.75 if size == "full" else 0.0
            ),
        ),
    )
}


def host_record() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def spawn_cli(argv: list[str], log: Path) -> Invocation:
    """Run `python -m ted.cli argv` to exit; time it and read its peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    with open(log, "wb") as out:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
        ]
        command = [sys.executable, "-m", "ted.cli", *argv]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, command, env, file_actions=actions)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    return Invocation(wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status))


class Session:
    """One workload run: inputs, set-up timing, invocations and their checks."""

    def __init__(self, workload: Workload, seed: int, size: str, work: Path):
        self.workload = workload
        self.size = size
        self.work = work
        self.sequences = inputs.correlated(seed, **workload.sizes[size])
        self.manifest = inputs.write(
            self.sequences, work / "data", workload.manual_aus, workload.tracker_shape
        )
        self.frames = sum(seq.features.shape[0] for seq in self.sequences)
        self.input_mb = sum(p.stat().st_size for p in (work / "data").iterdir()) / 1e6
        self.reference: dict[str, str] | None = None
        self.quality: float | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.invocations: list[Invocation] = []

    def argv(self, out_dir: Path) -> list[str]:
        w = self.workload
        extra = w.tiny_argv if self.size == "tiny" else ()
        return [w.argv[0], "--manifest", str(self.manifest), "--out", str(out_dir),
                *w.argv[1:], *extra]

    def setup_seconds(self) -> list[float]:
        """Interpreter start plus package import, after one warm-up."""
        times = []
        for i in range(SETUP_REPEATS + 1):
            inv = spawn_cli(["--version"], self.work / "setup.log")
            if inv.exit_code != 0:
                raise RuntimeError(f"ted.cli --version exited {inv.exit_code}")
            if i:
                times.append(inv.wall_s)
        return times

    def assess(self, error: str | None, out_dir: Path) -> bool:
        """Count one attempt; the first good output is the reference."""
        self.attempted += 1
        problems = []
        if error:
            problems.append(error)
        elif self.reference is None:
            problems, quality = self.workload.check(out_dir, self.sequences, self.size)
            if not problems:
                self.reference = checks.output_digests(out_dir)
                self.quality = quality
        elif checks.output_digests(out_dir) != self.reference:
            problems.append("outputs differ from the first run's")
        self.failed += bool(problems)
        self.problems += [f"attempt {self.attempted}: {p}" for p in problems]
        return not problems

    def invoke(self) -> Invocation:
        i = len(self.invocations)
        out_dir = self.work / f"out-{i}"
        inv = spawn_cli(self.argv(out_dir), self.work / f"cli-{i}.log")
        self.invocations.append(inv)
        self.assess(f"exit code {inv.exit_code}" if inv.exit_code else None, out_dir)
        return inv

    def traced(self, run_id: str) -> spans.Tracer:
        """One in-process run of ted.cli.main with every wrap point traced."""
        import ted.cli

        tracer = spans.Tracer(run_id)
        out_dir = self.work / "out-traced"
        tracer.install()
        try:
            with open(self.work / "cli-traced.log", "w", encoding="utf-8") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                with tracer.span("cli.main"):
                    code = ted.cli.main(self.argv(out_dir))
            error = f"exit code {code}" if code else None
        except Exception as exc:  # a traced run must still report its spans
            error = f"traced run raised {exc!r}"
        finally:
            tracer.uninstall()
        self.assess(error, out_dir)
        tracer.write_jsonl(self.work / "spans.jsonl")
        return tracer


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 size: str, units: dict[str, str], host: dict) -> dict:
    work = WORK / f"{workload.name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = loadavg_1m()
    start = time.perf_counter()
    session = Session(workload, seed, size, work)
    generate_s = time.perf_counter() - start
    setup = session.setup_seconds()
    setup_s = statistics.median(setup)

    if trace:
        inv = session.invoke()
        tracer = session.traced(f"{workload.name}-seed{seed}-{os.getpid()}")
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_s"] = metrics["cli.main_s"] - (inv.wall_s - setup_s)
        metrics["trace.missing_wraps"] = len(tracer.missing)
        extra = {"missing_wraps": tracer.missing}
    else:
        loop_start = time.perf_counter()
        while not session.invocations or time.perf_counter() - loop_start < seconds:
            session.invoke()
        wall_s = statistics.median(i.wall_s for i in session.invocations)
        metrics = {
            "wall_s": wall_s,
            "frames_per_s": session.frames / wall_s,
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in session.invocations),
            "setup_s": setup_s,
            # 0 only when no invocation passed its checks (then correct=false)
            "quality": session.quality or 0.0,
        }
        extra = {}
    load_after = loadavg_1m()

    unknown = sorted(set(metrics) ^ set(units))
    if unknown:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {unknown}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "host": host,
        "trace": trace,
        "frames": session.frames,
        "input_mb": session.input_mb,
        "generate_s": generate_s,
        "setup_samples_s": setup,
        "invocations": [vars(i) for i in session.invocations],
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "quality_name": workload.quality_name,
        "loadavg_1m": {"before": load_before, "after": load_after},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work / "data", ignore_errors=True)
    for out_dir in work.glob("out-*"):
        shutil.rmtree(out_dir, ignore_errors=True)
    return record


def report(record: dict) -> None:
    tag = f"[{record['workload']}]"
    print(f"{tag} seed={record['seed']} size={record['size']}: {record['frames']} "
          f"frames, {record['input_mb']:.1f} MB of input, generated in "
          f"{record['generate_s']:.2f} s (not timed)")
    load = record["loadavg_1m"]
    print(f"{tag} 1-minute load average: before {load['before']}, after {load['after']}")
    for name, m in record["metrics"].items():
        print(f"{tag} {name} = {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        n = len(record["invocations"])
        print(f"{tag} ({n} invocation(s); setup_s is the median of "
              f"{len(record['setup_samples_s'])})")
        quality = record["metrics"]["quality"]["value"]
        print(f"{tag} {record['quality_name']} = {quality:.6g} (reported as quality)")
    print(f"{tag} fail_ratio = {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.6g}")
    for problem in record["problems"]:
        print(f"{tag} FAILED {problem}")
    for missing in record.get("missing_wraps", []):
        print(f"{tag} wrap point missing: {missing}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=["full", "tiny"], default="full",
        help="tiny shrinks every dataset, for the smoke test",
    )
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ted" / "cli.py", ROOT / "tests" / "naive.py"):
        if not needed.exists():
            print(f"perfbench: {needed} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    host = host_record()
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace,
                              args.size, units, host)
        report(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
