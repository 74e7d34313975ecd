"""Benchmark of the falgebroid library: seeded workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload law-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload on one thread. It generates the inputs from
the seed, sets up (import, generation, parsing) several times and keeps
the median, then runs passes over the job list until ``--seconds`` have
passed, checking every output after each pass. A timer samples the
machine's speed all through the run, and every time is reported in
reference seconds, at the speed measured around it (see ``Reference``).
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload
all`` runs each workload in its own child process, one after another,
and prints their results.

See bench/README.md for the workloads, metrics and excluded cases.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import gen  # noqa: E402  (the benchmark's own modules, found through the path above)
import oracle  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = ("law-sweep", "almost-duality", "hierarchy", "deformation-point")
SETUP_ROUNDS = 21
HASH_SEED = "0"
REFERENCE_S = 0.006  # one reference sample on an unloaded machine, roughly
TICK_S = 0.2
WINDOW_S = 0.5

E2E_UNITS = {
    "wall_s": "s",
    "job_s.tail": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Reference:
    """A fixed piece of Fraction arithmetic, timed all through a run to track machine speed.

    The piece is the benchmark's own code, so no library change can alter
    it: the oracle evaluating the B3 structure constants at 8 fixed points
    (small Fractions, dicts and tuples, like the law sweep), then products
    of Fractions with 10- to 30-digit terms (big-integer gcds, like the
    ring's normal form). On the 2-core sandbox this benchmark was built in,
    the machine's speed drifted by up to a factor of two within minutes,
    and by a fifth within seconds.

    While the sampler runs (``with reference:``), an interval timer
    interrupts the program every TICK_S and times the piece once, inside
    whatever job is running. The time spent in the sampler is kept out of
    the job times (``clock``). A measured interval is converted to
    reference seconds with the piece's mean time over the interval,
    widened by WINDOW_S on each side: seconds measured times REFERENCE_S
    over that mean. A 12-second job is so normalised by the speed of its
    own 12 seconds, not by that of the whole run. The samples are evenly
    spaced in time, so their mean follows the job's average slowdown,
    short stalls included; their median tracked it less well.
    """

    def __init__(self):
        self.data = gen.frobenius("B3", 0)
        self.points = gen.sample_points(random.Random(0), 3, 8)
        self.big = [Fraction(3**k + 1, 2**k + 3) for k in range(20, 60)]
        self.ends: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _piece(self):
        for p in self.points:
            cp = oracle.eval_product(self.data["c"], p)
            oracle.inverse_section(cp, [gen.poly_eval(q, p) for q in self.data["euler"]], self.data["identity"])
        for _ in range(6):
            acc = Fraction(0)
            for a in self.big:
                acc = acc * a + a

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._piece()
        end = time.perf_counter()
        self.ends.append(end)
        self.samples.append(end - t)
        self.stolen += end - t

    def __enter__(self):
        for _ in range(3):  # warm up, so the first samples are not the cold piece's
            self._piece()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> tuple[float, float]:
        """(wall time, wall time less the time spent in the sampler so far)."""
        while True:
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:
                return t, t - stolen

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def to_reference(self, seconds: float, start: float, end: float) -> float:
        """Seconds measured over the wall interval [start, end], in reference seconds."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        window = self.samples[lo:hi] or self.samples[max(0, lo - 3) : lo + 3]
        return seconds * REFERENCE_S / statistics.fmean(window)


def plain_clock() -> tuple[float, float]:
    """The clock of a run without the sampler: wall time twice."""
    t = time.perf_counter()
    return t, t


def slowest_job_s(passes, key: str) -> float:
    """The slowest job of a pass, median over passes.

    The job mix is heterogeneous, so a percentile of the pooled latencies
    moves with the number of passes that fit in the run: a faster program
    would report a higher percentile. The slowest job of a pass is the same
    job on every pass and every commit.
    """
    return statistics.median(max(p[key]) for p in passes)


def import_library():
    """Import falgebroid afresh from the checkout's src/ and return the package."""
    for name in [m for m in sys.modules if m == "falgebroid" or m.startswith("falgebroid.")]:
        del sys.modules[name]
    import falgebroid

    if Path(falgebroid.__file__).resolve().parent != SRC / "falgebroid":
        raise ImportError(f"falgebroid imported from {falgebroid.__file__}, not from {SRC}")
    return falgebroid


def setup(workload: str, seed: int, workdir: Path, clock):
    """Import, generate and parse SETUP_ROUNDS times.

    Returns the last job list and, per round, (start, end, seconds): the
    wall interval and the seconds measured by ``clock``.
    """
    rounds = []
    jobs = None
    for _ in range(SETUP_ROUNDS):
        gc.collect()  # garbage from the previous round is not this round's cost
        start, t = clock()
        import_library()
        jobs = workloads.build(workload, seed, str(workdir))
        end, t_end = clock()
        rounds.append((start, end, t_end - t))
    return jobs, rounds


def run_pass(jobs, clock) -> dict:
    """Run every job once, timed by ``clock``; then verify the outputs, untimed."""
    state: dict = {}
    outputs = []
    latencies = []
    intervals = []
    for job in jobs:
        start, t = clock()
        try:
            out, err = job.run(state), None
        except Exception as exc:  # a failing job is counted, and the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        end, t_end = clock()
        latencies.append(t_end - t)
        intervals.append((start, end))
        outputs.append((out, err))
    wall = sum(latencies)
    errors = {}
    n_checks = distinct = 0
    for job, (out, err) in zip(jobs, outputs):
        if err is None:
            try:
                problems, pairs = job.verify(out, state)
            except Exception as exc:  # a check that cannot run is a failed job
                problems, pairs = [f"verify raised {type(exc).__name__}: {exc}"], []
        else:
            problems, pairs = [err], []
        if problems:
            errors[job.name] = problems
        n_checks += len(pairs)
        distinct += len(set(pairs))
    return {
        "wall": wall,
        "latencies": latencies,
        "intervals": intervals,
        "errors": errors,
        "checks": n_checks,
        "distinct": distinct,
    }


def measure(jobs, seconds: float, clock) -> list[dict]:
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        passes.append(run_pass(jobs, clock))
        if time.perf_counter() >= deadline:
            return passes


def in_reference(passes, setup_rounds, ref: Reference) -> list[float]:
    """Add each pass's job times in reference seconds; return the set-up times in them."""
    for p in passes:
        p["ref_latencies"] = [ref.to_reference(s, *iv) for s, iv in zip(p["latencies"], p["intervals"])]
    return [ref.to_reference(s, start, end) for start, end, s in setup_rounds]


def end_to_end(passes, setup_times, key: str) -> dict:
    """The gated metrics from the job times under ``key``, measured or in reference seconds."""
    walls = [sum(p[key]) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "job_s.tail": slowest_job_s(passes, key),
        "checks_per_s": statistics.median(p["distinct"] / w for p, w in zip(passes, walls)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: dict, untraced_wall: float) -> dict:
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    gcd_calls = calls("ring.gcd")
    add_calls = calls("ring.ratfunc_add")
    report_adds = calls("report.add")
    sweeps = [name for name in tracer.stats if name.startswith("algebroid.check_")]
    n_checks = traced["checks"]
    metrics = {
        "ring.gcd.calls": (gcd_calls, "count"),
        "ring.gcd.self_s": (self_s("ring.gcd"), "s"),
        "ring.gcd.self_share": (self_s("ring.gcd") / traced["wall"], "ratio"),
        "ring.gcd.nontrivial_share": (tracer.gcd_nontrivial / gcd_calls if gcd_calls else 0.0, "ratio"),
        "ring.gcd.max_terms": (tracer.gcd_max_terms, "count"),
        "ring.ratfunc_add.calls": (add_calls, "count"),
        "ring.ratfunc_add.same_den_share": (tracer.same_den / add_calls if add_calls else 0.0, "ratio"),
        "ring.ratfunc_mul.calls": (calls("ring.ratfunc_mul"), "count"),
        "ring.poly_mul.calls": (calls("ring.poly_mul"), "count"),
        "ring.poly_mul.self_s": (self_s("ring.poly_mul"), "s"),
        "ring.poly_add.self_s": (self_s("ring.poly_add"), "s"),
        "ring.derivative.calls": (calls("ring.derivative"), "count"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.self_s": (self_s("linalg.rref"), "s"),
        "algebroid.multiply.calls": (calls("algebroid.multiply"), "count"),
        "algebroid.multiply.self_s": (self_s("algebroid.multiply"), "s"),
        "algebroid.prelie_of.self_s": (self_s("algebroid.prelie_of"), "s"),
        "algebroid.bracket_of.self_s": (self_s("algebroid.bracket_of"), "s"),
        "algebroid.sweep.self_s": (self_s(*sweeps), "s"),
        "algebroid.dup_check_share": (
            (n_checks - traced["distinct"]) / n_checks if n_checks else 0.0,
            "ratio",
        ),
        "report.add.calls": (report_adds, "count"),
        "report.witness_on_pass_share": (tracer.witness_on_pass / report_adds if report_adds else 0.0, "ratio"),
        "report.format.self_s": (self_s("report.summary", "report.to_dict"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "constructions.load_fixture.s": (total_s("constructions.load_fixture"), "s"),
        "exprparse.parse_presentation.s": (total_s("exprparse.parse_presentation"), "s"),
        "exprparse.parse_expr.calls": (calls("exprparse.parse_expr"), "count"),
        "duality.dubrovin_dual.s": (total_s("duality.dubrovin_dual"), "s"),
        "duality.invert_section.s": (total_s("duality.invert_section"), "s"),
        "duality.verify_certificate.s": (total_s("duality.verify_certificate"), "s"),
        "hierarchy.principal_hierarchy.s": (total_s("hierarchy.principal_hierarchy"), "s"),
        "hierarchy.flows_commute.calls": (calls("hierarchy.flows_commute"), "count"),
        "hierarchy.flows_commute.self_s": (self_s("hierarchy.flows_commute"), "s"),
        "hierarchy.jet_mul.calls": (calls("hierarchy.jet_mul"), "count"),
        "deformation.cohomology_point.s": (total_s("deformation.cohomology_point"), "s"),
        "deformation.d_def.calls": (calls("deformation.d_def"), "count"),
        "deformation.d_def.self_s": (self_s("deformation.d_def"), "s"),
        "deformation.check_n_deformation.s": (total_s("deformation.check_n_deformation"), "s"),
        "trace.overhead_share": (traced["wall"] / untraced_wall - 1, "ratio"),
        "trace.spans": (len(tracer.spans) + tracer.dropped_spans, "count"),
    }
    for layer, s in tracer.layer_self_s().items():
        metrics[f"layer.{layer}.self_s"] = (s, "s")
    return metrics


def traced_pass(workload: str, seed: int, workdir: Path, untraced_wall: float, out_dir: Path):
    """Rebuild the jobs and run one pass with every library function wrapped, without the sampler."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        jobs = workloads.build(workload, seed, str(workdir))
        traced = run_pass(jobs, plain_clock)
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"columns": ["id", "parent", "name", "start_s", "end_s"], "spans": tracer.spans}, fh)
    return traced, per_layer(tracer, traced, untraced_wall)


def run_workload(args) -> int:
    ref = Reference()
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with ref:
            try:
                jobs, setup_rounds = setup(args.workload, args.seed, workdir, ref.clock)
            except ImportError as exc:
                print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
                return 2
            passes = measure(jobs, args.seconds, ref.clock)
        setup_times = in_reference(passes, setup_rounds, ref)
        all_passes = passes
        if args.trace:
            untraced_wall = statistics.median(p["wall"] for p in passes)
            traced, layer = traced_pass(args.workload, args.seed, workdir, untraced_wall, BENCH / "out")
            all_passes = passes + [traced]
            metrics = layer
        else:
            e2e = end_to_end(passes, setup_times, "ref_latencies")
            metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
            raw = end_to_end(passes, [s for _, _, s in setup_rounds], "latencies")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(len(p["latencies"]) for p in all_passes)
    failed = sum(len(p["errors"]) for p in all_passes)
    lat = [x for p in passes for x in p["latencies"]]
    ref_lat = [x for p in passes for x in p["ref_latencies"]]
    print(
        f"provenance: git {git_sha()} python {sys.version.split()[0]} nproc {os.cpu_count()} "
        f"reference_s {ref.median_s():.5f} ({len(ref.samples)} samples, every {TICK_S} s) "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} FALG_THREADS={os.environ.get('FALG_THREADS', 'unset')}"
    )
    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(jobs)} jobs, "
        f"{len(lat)} job samples (p50), {len(passes)} slowest-job samples (tail)"
    )
    job_medians = (statistics.median(p["latencies"][i] for p in passes) for i in range(len(jobs)))
    print("job medians (s): " + ", ".join(f"{j.name}={m:.4g}" for j, m in zip(jobs, job_medians)))
    failures = [(job, problems) for p in all_passes for job, problems in p["errors"].items()]
    for job, problems in failures[:20]:
        print(f"FAILED {job}: {'; '.join(problems)[:500]}")
    for name, (value, unit) in metrics.items():
        measured = "" if args.trace or name == "peak_rss_mb" else f"  (measured {raw[name]:.6g} {unit})"
        print(f"  {name} = {value:.6g} {unit}{measured}")
    p50 = statistics.median(lat)
    print(f"  job_s.p50 = {statistics.median(ref_lat):.6g} s  (measured {p50:.6g} s; printed only, {len(lat)} samples)")
    print(f"  failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = proc.returncode or 1
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or "FALG_THREADS" in os.environ:
        env = {k: v for k, v in os.environ.items() if k != "FALG_THREADS"}
        env["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    if not (SRC / "falgebroid" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}/falgebroid", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
