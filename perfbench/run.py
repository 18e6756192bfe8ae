"""ospchar benchmark: time the public entry points and check every answer.

    python3 perfbench/run.py --workload {suite,closed_form,tableau} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all      # every workload, untraced and traced, one table
    python3 perfbench/run.py --self-test         # the checks must catch corrupted outputs

Run from the repository root; the program is imported from ``src``.  A run
repeats whole rounds of its workload's fixed batch until another round would
pass ``--seconds`` (at least one round), checks each output outside the timed
region, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` repeats the measurement with spans around
every module's public functions and gives the per-layer metrics.  Operations
are timed in CPU time and scaled to reference host speed by the pace probe
(pace.py) that runs beside them.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import refs
import workloads
from pace import Pace
from tracing import IDENTITIES, ROUTES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 9
# An operation's host slowness comes from probe samples this close to it.
PACE_AROUND_S = 2.0
SETUP_ARGV = ["-m", "ospchar", "compute", "--family", "schur", "--method", "jt", "--n", "1", "--lambda", "1"]


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, or a broken launch)."""


def child_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def measure_setup() -> list[tuple[float, float, float]]:
    """Each launch of ``ospchar`` to its answer on s_(1)(x1): start and end (time.time()) and wall time."""
    launches = []
    for _ in range(SETUP_LAUNCHES):
        t0, w0 = time.time(), time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *SETUP_ARGV], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60
        )
        launches.append((t0, time.time(), time.perf_counter() - w0))
        if proc.returncode != 0 or proc.stdout.strip() != "x1":
            raise BenchError(f"ospchar start-up check failed: exit {proc.returncode}, output {proc.stdout!r}")
    return launches


@dataclass
class Round:
    """One batch: each operation's CPU time, wall time and span, and the host's slowness."""

    cpu: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)  # time.time() at start and end
    factors: list[float] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        """Each operation's CPU time at reference host speed."""
        return [t / f for t, f in zip(self.cpu, self.factors)]


def run_round(ops: list, refs_for: dict, corrupt=None) -> tuple[Round, int]:
    """Run one batch; return its times and the number of operations that failed.

    A failure is an exception, a nonzero exit or an output that a check
    rejects.  ``corrupt`` (self-test only) alters an output before its check.
    Garbage is collected before each operation, outside the timed region, so
    that no operation pays for collecting what an earlier one left behind,
    as none would when each runs as its own ``ospchar`` command.
    """
    rnd, failed = Round(), 0
    for op in ops:
        gc.collect()
        t0, w0, c0 = time.time(), time.perf_counter(), time.process_time()
        try:
            output, problem = op.run(), None
        except Exception as exc:  # the program under test failed this operation
            output, problem = None, f"{type(exc).__name__}: {exc}"
        rnd.cpu.append(time.process_time() - c0)
        rnd.wall.append(time.perf_counter() - w0)
        rnd.spans.append((t0, time.time()))
        if problem is None:
            if corrupt is not None:
                output = corrupt(op, output)
            try:
                problem = op.error(output, refs_for)
            except Exception as exc:  # an output the checks cannot read is wrong
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            print(f"FAILED {op}: {problem}", file=sys.stderr)
    return rnd, failed


def measure(ops: list, refs_for: dict, seconds: float) -> tuple[list[Round], int]:
    """Whole rounds until the next one would end after ``seconds``."""
    rounds, failed = [], 0
    start = time.perf_counter()
    while True:
        rnd, bad = run_round(ops, refs_for)
        rounds.append(rnd)
        failed += bad
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds, failed


def slowness(pace: Pace):
    """The host's slowness over a span: from probe samples within PACE_AROUND_S
    of it, or, where too few fall that close, from the whole run's."""
    whole = pace.factor(-math.inf, math.inf)
    if whole is None:
        raise BenchError("the pace probe recorded too few samples")
    return lambda start, end: pace.factor(start, end, PACE_AROUND_S) or whole


def nearest_rank(samples: list[float], percentile: float) -> float:
    ordered = sorted(samples)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, rounds: list[Round], setup_s: float) -> dict:
    samples = [t for rnd in rounds for t in rnd.times]
    return {
        "setup_s": metric(setup_s, "s"),
        "round_s": metric(round_s(rounds), "s"),
        "op_p50_s": metric(statistics.median(samples), "s"),
        "op_tail_s": metric(nearest_rank(samples, workloads.TAIL_PERCENTILE[workload]), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def round_s(rounds: list[Round]) -> float:
    return statistics.median(sum(rnd.times) for rnd in rounds)


def host_record(rounds: list[Round], pace: Pace) -> dict:
    """The raw figures behind the scaled times, for the run record."""
    return {
        "round_cpu_s": [sum(rnd.cpu) for rnd in rounds],
        "round_wall_s": [sum(rnd.wall) for rnd in rounds],
        "host_factor": [sum(rnd.cpu) / sum(rnd.times) for rnd in rounds],
        "pace_samples": len(pace.samples),
    }


def per_layer(tracer, rounds: int, import_s: float, traced_round: float, untraced_round: float) -> dict:
    """Per-round layer figures from a traced measurement of ``rounds`` rounds."""

    def calls(name):
        return metric(tracer.calls[name] / rounds, "count")

    def total(name):
        return metric(tracer.total[name] / rounds, "s")

    def self_s(name):
        return metric(tracer.self_time[name] / rounds, "s")

    out = {
        "algebra.mul.calls": calls("algebra.mul"),
        "algebra.mul.term_products": metric(tracer.counts["algebra.mul.term_products"] / rounds, "count"),
        "algebra.mul.self_s": self_s("algebra.mul"),
        "algebra.exact_div.calls": calls("algebra.exact_div"),
        "algebra.exact_div.self_s": self_s("algebra.exact_div"),
        "algebra.exact_div.max_dividend_terms": metric(
            tracer.maxima["algebra.exact_div.max_dividend_terms"], "terms"
        ),
    }
    for det in ("det_bareiss", "det_cofactor", "det_rational"):
        out[f"algebra.{det}.calls"] = calls(f"algebra.{det}")
        out[f"algebra.{det}.total_s"] = total(f"algebra.{det}")
    out["algebra.to_text.total_s"] = total("algebra.to_text")
    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.import_s"] = metric(import_s, "s")
    out["symfun.complete_table.calls"] = calls("symfun.complete_table")
    for name in ("complete_table", "jseries_table", "skew_schur_jt", "super_complete"):
        out[f"symfun.{name}.total_s"] = total(f"symfun.{name}")
    for name in ROUTES + ("denominators",):
        out[f"characters.{name}.total_s"] = total(f"characters.{name}")
    out["tableaux.weight_sum.total_s"] = total("tableaux.weight_sum")
    out["tableaux.weight_sum.tableaux"] = metric(tracer.counts["tableaux.weight_sum.tableaux"] / rounds, "count")
    out["tableaux.enumerate.total_s"] = total("tableaux.enumerate")
    for name in IDENTITIES:
        out[f"identities.{name}.total_s"] = total(f"identities.{name}")
    out["trace.round_s"] = metric(traced_round, "s")
    out["trace.overhead_s"] = metric(traced_round - untraced_round, "s")
    return out


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 of the program's sources, which names the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ospchar").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, rounds: int, ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": ops,
        "op_tail_percentile": workloads.TAIL_PERCENTILE[args.workload],
    }


def import_program() -> float:
    """Import the program from ``src`` and return the import time."""
    if not (SRC / "ospchar" / "cli.py").is_file():
        raise BenchError(f"no ospchar sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ospchar.cli  # noqa: F401

    return time.perf_counter() - t0


def run_workload(args) -> dict:
    import_s = import_program()
    refs_for = refs.load().get(args.workload, {})
    ops = workloads.operations(args.workload, args.seed)
    traced, traced_failed, tracer, launches = [], 0, None, []
    with Pace(OUT / f"pace-{os.getpid()}.log") as pace:
        if not args.trace:
            launches = measure_setup()
        rounds, failed = measure(ops, refs_for, args.seconds)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_failed = measure(ops, refs_for, args.seconds)
            finally:
                tracer.uninstall()
    at = slowness(pace)
    for rnd in rounds + traced:
        rnd.factors = [at(start, end) for start, end in rnd.spans]
    failed += traced_failed
    attempted = (len(rounds) + len(traced)) * len(ops)
    if not args.trace:
        setup_s = statistics.median(wall / at(start, end) for start, end, wall in launches)
        metrics = end_to_end(args.workload, rounds, setup_s)
    else:
        metrics = per_layer(tracer, len(traced), import_s, round_s(traced), round_s(rounds))
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    record = run_record(args, len(rounds) + len(traced), len(ops)) | host_record(rounds, pace)
    if launches:
        record["setup_wall_s"] = statistics.median(wall for _, _, wall in launches)
    print(json.dumps({"record": record}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, as one table."""
    rows, results = [], {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[f"{workload}/trace{trace}"] = result
            prefix = "trace." if trace else ""
            rows.append((workload, f"{prefix}attempted", result["attempted"], "ops"))
            rows.append((workload, f"{prefix}failed", result["failed"], "ops"))
            for name, m in result["metrics"].items():
                if trace == 0 or name.startswith("trace."):
                    rows.append((workload, name, m["value"], m["unit"]))
    for workload, name, value, unit in rows:
        print(f"{workload:12s} {name:20s} {value:>14.6g} {unit}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            import selftest

            import_program()
            return selftest.main(run_round)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
