"""End-to-end benchmark of the `coarsecert` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from src/.  The
benchmark writes its inputs from the seed (workloads.py), then runs the
workload's commands the way a user runs them: each as its own child process,
one after another (a closed loop with one client), with `--workers 1` and
BLAS/OpenMP threads capped at the CPUs this process may use.  Each command is
timed from outside, and its peak RSS comes from os.wait4.  Whole pipelines
repeat until S seconds have been spent in them (at least one runs), and the
medians are reported.  Every output is then re-checked by oracle.py, which
does not use `coarsecert`, and its artifacts' sha256 digests are compared
with the first run of the same invocation in this checkout.

`setup_s` is the median wall time of 2 * SETUP_REPEATS `coarsecert --help`
processes (interpreter start plus imports), taken after one warm-up, half
before the pipelines and half after them so that the median spans the run.

With --trace 1 the pipeline runs twice, untraced and then with every command
under traced_cli.py, and the per-layer metrics come from the traced run's
spans.  Each command's wall time splits into the self times of the seven
layers plus an untraced remainder (interpreter start, imports, exit), and
the tracing overhead is the traced pipeline time minus the untraced one.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`attempted` counts every command, oracle check and digest comparison, and
`failed` the ones that gave a wrong exit code, verdict or answer; their
ratio is ops_failed.  Exit code 2, and no result, when the program is not
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import oracle  # noqa: E402
from bench import workloads as wl  # noqa: E402
from bench.tracer import LAYERS, self_times  # noqa: E402

WORK = ROOT / "bench" / "_work"
TIME_LIMIT = 170.0
SETUP_REPEATS = 3
STAGES = ("decompose", "certify", "verify")

END_TO_END = {  # name -> unit
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer time metrics: metric name -> span name whose self time it sums
SPAN_TIMES = {
    "metric.load_s": "metric.load",
    "metric.apsp_s": "metric.apsp",
    "metric.closure_s": "metric.closure",
    "metric.dijkstra_s": "metric.dijkstra",
    "metric.diameter_s": "metric.diameter",
    "metric.dist_to_set_s": "metric.dist_to_set",
    "metric.retraction_s": "metric.retraction",
    "covers.brick_tree_s": "covers.brick_tree",
    "covers.tree_validate_s": "covers.tree_validate",
    "extend.build_self_s": "extend.build",
    "extend.glue_self_s": "extend.glue",
    "extend.piece_s": "extend.piece",
    "extend.extend_pou_s": "extend.extend_pou",
    "simplex.retraction_s": "simplex.retraction",
    "simplex.dense_s": "simplex.dense",
    "simplex.star_diam_s": "simplex.star_diam",
    "verify.lipschitz_s": "verify.lipschitz",
    "verify.cobounded_s": "verify.cobounded",
    "verify.r_disjoint_s": "verify.r_disjoint",
    "jsonio.json_parse_s": "jsonio.json_parse",
    "jsonio.pou_load_s": "jsonio.pou_load",
    "jsonio.pou_save_s": "jsonio.pou_save",
}
COUNTS = ("metric.dijkstra_calls", "metric.rows_computed", "metric.row_calls",
          "metric.neighbors_calls", "covers.tree_validate_calls", "extend.pieces",
          "extend.branch1", "extend.branch2", "simplex.convex_combine_calls",
          "simplex.carrier_size", "verify.r_disjoint_calls", "verify.pairs_checked",
          "jsonio.pou_bytes")


class ProgramMissing(Exception):
    pass


@dataclass
class Proc:
    rc: int
    wall: float
    rss_mb: float


@dataclass
class Iteration:
    procs: Dict[str, Proc] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(p.wall for p in self.procs.values())


class Run:
    """One benchmark run: its deadline, its child environment and its op tally."""

    def __init__(self, workload: wl.Workload, seed: int, n: int):
        self.workload, self.seed, self.n = workload, seed, n or workload.n
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: List[str] = []
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS=threads,
                        OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    def left(self) -> float:
        return TIME_LIMIT - (time.perf_counter() - self.start)

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def child(self, argv: List[str], cwd: Path, log: Path) -> Proc:
        """Run argv to completion; wall time and peak RSS as seen from outside."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.left()), _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


HELP = [sys.executable, "-m", "coarsecert.cli", "--help"]


def warm_up(run: Run) -> None:
    """One `coarsecert --help`, which also writes the bytecode caches."""
    WORK.mkdir(parents=True, exist_ok=True)
    if run.child(HELP, WORK, WORK / "help.log").rc != 0:
        raise ProgramMissing((WORK / "help.log").read_text(errors="replace"))


def measure_setup(run: Run) -> List[float]:
    """Wall times of SETUP_REPEATS `coarsecert --help` processes."""
    walls = []
    for _ in range(SETUP_REPEATS):
        p = run.child(HELP, WORK, WORK / "help.log")
        run.op("coarsecert --help exit 0", p.rc == 0, f"exit {p.rc}")
        walls.append(p.wall)
    return walls


def run_pipeline(run: Run, directory: Path, traced: bool) -> Iteration:
    """Write fresh inputs, run the workload's commands, check every output."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    inputs = wl.write_inputs(run.workload, run.seed, directory, run.n)
    it = Iteration()

    def command(stage: str, args: List[str]) -> bool:
        if traced:
            spans = directory / f"{stage}.spans.json"
            run_id = f"{run.workload.name}/seed{run.seed}/{stage}"
            argv = [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans), run_id]
        else:
            argv = [sys.executable, "-m", "coarsecert.cli"]
        p = run.child(argv + args, directory, directory / f"{stage}.log")
        it.procs[stage] = p
        if traced and (directory / f"{stage}.spans.json").is_file():
            it.spans[stage] = json.loads((directory / f"{stage}.spans.json").read_text())
        return run.op(f"{stage} exit 0", p.rc == 0, f"exit {p.rc}, see {directory / stage}.log")

    if run.workload.lane == "certificate":
        if not (command("decompose", wl.decompose_args())
                and command("certify", wl.certify_args())):
            return it
        cert_report = _read(directory / f"{wl.CERT_PREFIX}.report.json")
        if not command("verify", wl.verify_args(run.workload, cert_report["bound"])):
            return it
        checks = oracle.Checks()
        oracle.check_certificate(checks, inputs.weights, float(wl.EPSILON),
                                 _read(directory / f"{wl.CERT_PREFIX}.pou.json"),
                                 cert_report, _read(directory / wl.VERIFY_FILE))
        artifacts = [f"{wl.CERT_PREFIX}.pou.json", f"{wl.CERT_PREFIX}.report.json",
                     f"{wl.CERT_PREFIX}.schedule.json", wl.VERIFY_FILE]
    else:
        if not command("verify", wl.verify_args(run.workload, max(inputs.blocks) - 1)):
            return it
        checks = oracle.Checks()
        oracle.check_wide(checks, inputs.blocks, _read(directory / wl.VERIFY_FILE))
        artifacts = [wl.VERIFY_FILE]
    for name, ok, detail in checks.results:
        run.op(f"oracle: {name}", ok, detail)
    check_digests(run, {a: _sha256(directory / a) for a in artifacts})
    return it


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(run: Run, digests: Dict[str, str]) -> None:
    """Compare with the first run of the same invocation in this checkout."""
    store = WORK / "digests.json"
    known = _read(store) if store.is_file() else {}
    key = f"{run.workload.name} seed={run.seed} n={run.n}"
    first = known.setdefault(key, digests)
    for artifact, digest in digests.items():
        run.op(f"{artifact} digest stable", first.get(artifact) == digest,
               f"{digest[:16]} != first run's {str(first.get(artifact))[:16]}")
        print(f"digest {artifact} {digest}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def per_layer(untraced: Iteration, traced: Iteration) -> Dict[str, float]:
    """Per-layer metrics of the traced pipeline, and its accounting per command."""
    selfs: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    out: Dict[str, float] = {}
    print("traced stage accounting (s): " + "  ".join(f"{x:>8}" for x in
                                                        ("wall",) + LAYERS + ("untraced",)))
    for stage, proc in traced.procs.items():
        rec = traced.spans.get(stage, {"spans": [], "counts": {}})
        mine = self_times(rec["spans"])
        layer = {x: sum(v for k, v in mine.items() if k.split(".")[0] == x) for x in LAYERS}
        untraced_s = proc.wall - sum(layer.values())
        print(f"  {stage:<26} " + "  ".join(f"{v:8.3f}" for v in
                                             [proc.wall, *layer.values(), untraced_s]))
        for k, v in mine.items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in rec["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k == "simplex.carrier_size" else counts.get(k, 0) + v
        for x in LAYERS:
            out[f"{x}.self_s"] = out.get(f"{x}.self_s", 0.0) + layer[x]
        out["trace.untraced_s"] = out.get("trace.untraced_s", 0.0) + untraced_s
    for name, span in SPAN_TIMES.items():
        out[name] = selfs.get(span, 0.0)
    for name in COUNTS:
        out[name] = float(counts.get(name, 0))
    rows, computed = counts.get("metric.row_calls", 0), counts.get("metric.rows_computed", 0)
    out["metric.row_hit_ratio"] = (rows - computed) / rows if rows else 0.0
    pairs_all = counts.get("verify.pairs_all", 0)
    out["verify.pair_ratio"] = counts.get("verify.pairs_checked", 0) / pairs_all if pairs_all else 0.0
    for stage in STAGES:
        out[f"trace.{stage}_s"] = traced.procs[stage].wall if stage in traced.procs else 0.0
    out["trace.pipeline_s"] = traced.pipeline_s
    out["trace.overhead_s"] = traced.pipeline_s - untraced.pipeline_s
    print(f"tracing overhead {out['trace.overhead_s']:.3f} s "
          f"(traced {traced.pipeline_s:.3f} s - untraced {untraced.pipeline_s:.3f} s)")
    return out


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {f"{x}.self_s": "s" for x in LAYERS}
    units.update({f"trace.{s}_s": "s" for s in STAGES})
    units.update({"trace.pipeline_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s"})
    units.update({name: "s" for name in SPAN_TIMES})
    units.update({name: ("bytes" if name == "jsonio.pou_bytes" else "count") for name in COUNTS})
    units.update({"metric.row_hit_ratio": "ratio", "verify.pair_ratio": "ratio"})
    return units


def report_iteration(it: Iteration) -> None:
    for stage, p in it.procs.items():
        print(f"{stage:<10} exit {p.rc}  {p.wall:8.3f} s  {p.rss_mb:8.1f} MB")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=0,
                    help="override the workload's point count (scaled-down smoke runs)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "coarsecert" / "cli.py").is_file():
        print(f"error: no coarsecert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(wl.WORKLOADS[args.workload], args.seed, args.n)
    print(f"workload {run.workload.name} seed {run.seed} n {run.n} "
          f"trace {args.trace} threads {run.env['OMP_NUM_THREADS']}")
    try:
        warm_up(run)
    except ProgramMissing as exc:
        print(f"error: coarsecert does not start:\n{exc}", file=sys.stderr)
        return 2
    setup_walls = measure_setup(run) if not args.trace else []

    directory = WORK / run.workload.name
    iterations = [run_pipeline(run, directory, traced=False)]
    report_iteration(iterations[0])
    if not args.trace:
        measured = iterations[0].pipeline_s
        while (not run.failures and measured < args.seconds
               and run.left() > 2.0 * iterations[-1].pipeline_s + 10.0):
            iterations.append(run_pipeline(run, directory, traced=False))
            report_iteration(iterations[-1])
            measured += iterations[-1].pipeline_s

    if args.trace:
        traced = run_pipeline(run, WORK / f"{run.workload.name}-traced", traced=True)
        report_iteration(traced)
        values = per_layer(iterations[0], traced) if not run.failures else {}
        units = per_layer_units()
    else:
        setup_walls += measure_setup(run)

        def median(stage):
            return statistics.median(it.procs[stage].wall if stage in it.procs else 0.0
                                     for it in iterations)
        values = {
            "pipeline_s": statistics.median(it.pipeline_s for it in iterations),
            "peak_rss_mb": statistics.median(max((p.rss_mb for p in it.procs.values()), default=0.0)
                                             for it in iterations),
            "setup_s": statistics.median(setup_walls),
        }
        units = END_TO_END
        for stage in iterations[0].procs:
            print(f"{stage}_s {median(stage):.4f} s")
        print(f"pipelines measured {len(iterations)}")

    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"ops_failed {len(run.failures) / run.attempted:.4f} ratio "
          f"({len(run.failures)} of {run.attempted})")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
