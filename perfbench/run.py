#!/usr/bin/env python3
"""flatgrav benchmark: one run of one workload.

    python3 perfbench/run.py --workload <cli-suite|orbit-sweep|spin-transport>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; flatgrav is imported from ./src.  Each
workload is one client with one request in flight (closed loop).  With
``--trace 0`` the run times the workload and prints every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` it prints every per-layer metric from a
separate traced run.  Timed runs scale their timings to reference machine
speed (calibration.py).  Either way every output is checked, the last stdout
line is the JSON result, details go to perfbench/results/, and the exit
code is non-zero if any check failed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
sys.path.insert(0, str(ROOT))

from perfbench import calibration, cases, checks, tracing  # noqa: E402

WORKLOADS = ("cli-suite", "orbit-sweep", "spin-transport")
SETUP_REPEATS = 5        # set-ups per run; setup_s is their median
TAIL_BEYOND = 10         # a tail percentile keeps >= 10 samples beyond it
UNTRACED_SHARE = 0.4     # traced run: share of --seconds run untraced
CHILD_TIMEOUT_S = 120
MAX_FAILURES_KEPT = 20


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_flatgrav():
    """Import flatgrav from this checkout's src/, never from elsewhere."""
    if not (SRC / "flatgrav" / "__init__.py").is_file():
        raise SetupError(f"no flatgrav source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flatgrav.cli
    where = Path(flatgrav.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"flatgrav imported from {where}, not {SRC}")
    return flatgrav.cli


# ------------------------------------------------------------ results


@dataclass
class Op:
    """One measured operation."""

    case: object
    ms: float
    work: float              # revolutions, or 1 per command
    failures: List[str]
    accuracy: Optional[float] = None


@dataclass
class Outcome:
    ops: List[Op] = field(default_factory=list)
    passes: List[list] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failures)

    def failures(self) -> List[str]:
        return [f"{_record(op.case)}: {msg}" for op in self.ops
                for msg in op.failures][:MAX_FAILURES_KEPT]


def _record(case) -> object:
    return asdict(case) if is_dataclass(case) else case


def tail(samples: List[float]) -> Dict[str, float]:
    """Highest percentile with >= TAIL_BEYOND samples beyond it (the
    maximum, with fewer beyond, when a run has too few samples)."""
    s = sorted(samples)
    n = len(s)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {"value": s[idx], "percentile": 100.0 * (idx + 1) / n,
            "samples": n, "beyond": n - 1 - idx}


# ----------------------------------------------------------- families
#
# A family runs one kind of operation.  ``run`` returns an Op; only the call
# into flatgrav is inside the timed region.  Input construction and checks
# run under ``quiet``, which the traced run sets to pause tracing.


class CliProcess:
    """`python -m flatgrav.cli ...` as a fresh process, spawn to exit."""

    def __init__(self, seed: int, workdir: Path):
        self.pool = cases.cli_pool(seed)
        self.argvs = cases.materialize(self.pool, workdir)
        self.workdir = workdir
        self.refs: List[Optional[float]] = []
        self.digests: Dict[int, str] = {}
        self.quiet = contextlib.nullcontext

    def prepare(self) -> None:
        """Independent-route references, computed outside any timing."""
        import_flatgrav()
        self.refs = [checks.cli_reference(c) for c in self.pool]

    def warm_up(self) -> None:
        self.invoke(0)

    def passes(self) -> Iterator[list]:
        while True:
            yield list(range(len(self.pool)))

    def invoke(self, k: int):
        cmd = [sys.executable, "-m", "flatgrav.cli", *self.argvs[k]]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return (time.perf_counter() - t0) * 1e3, None, "", ""
        return (time.perf_counter() - t0) * 1e3, proc.returncode, \
            proc.stdout, proc.stderr

    def run(self, k: int) -> Op:
        case = self.pool[k]
        if case.out:
            for p in self.workdir.glob(f"{Path(case.out).stem}*"):
                if ".cfg." not in p.name:
                    p.unlink()
        ms, rc, stdout, stderr = self.invoke(k)
        if rc is None:
            return Op(k, ms, 1.0, ["timed out"])
        with self.quiet():
            return Op(k, ms, 1.0, *self.check(k, rc, stdout, stderr))

    def check(self, k: int, rc: int, stdout: str, stderr: str):
        case = self.pool[k]
        fails = checks.process_failures(rc, stderr)
        if fails:
            return fails, None
        acc = None
        try:
            report = checks.read_cli_output(case, stdout, self.workdir)
            res = checks.check_cli(case, report, self.workdir, self.refs[k])
            fails += res["failures"]
            acc = res["rel_err"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            fails.append(f"malformed output: {exc!r}")
        digest = checks.output_digest(stdout, self.workdir, case)
        if self.digests.setdefault(k, digest) != digest:
            fails.append("output differs from the same argv's first run")
        return fails, acc


def call_main(cli, argv: List[str]):
    """In-process ``cli.main(argv)``: (ms, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, reported as such
        rc = 1
        err.write(traceback.format_exc())
    return (time.perf_counter() - t0) * 1e3, rc, out.getvalue(), \
        err.getvalue()


class CliReplay(CliProcess):
    """The cli-suite argv list replayed in-process (traced run only)."""

    def prepare(self) -> None:
        self.cli = import_flatgrav()
        super().prepare()

    def invoke(self, k: int):
        return call_main(self.cli, list(self.argvs[k]))


class OrbitSweep:
    """In-process `flatgrav.cli.main(["orbit", "--config", case])`."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = workdir / "orbit-case.json"
        workdir.mkdir(parents=True, exist_ok=True)
        self.quiet = contextlib.nullcontext

    def prepare(self) -> None:
        self.cli = import_flatgrav()

    def warm_up(self) -> None:
        self.run(cases.warmup_case("orbit-sweep", self.seed))

    def passes(self) -> Iterator[list]:
        return cases.passes("orbit-sweep", self.seed)

    def run(self, case: cases.OrbitCase) -> Op:
        with self.quiet():
            self.config.write_text(json.dumps(case.config()),
                                   encoding="utf-8")
        ms, rc, stdout, stderr = call_main(
            self.cli, ["orbit", "--config", str(self.config)])
        with self.quiet():
            fails = checks.process_failures(rc, stderr)
            acc = None
            if not fails:
                try:
                    report = checks.parse_report(stdout, "json")
                    ref = checks.orbit_reference(cases.SOLAR_R_O, case.a,
                                                 case.ecc)
                    res = checks.check_orbit(report, ref, case.n_orbits)
                    fails += res["failures"]
                    acc = res["rel_err"]
                except (ValueError, KeyError, TypeError,
                        ArithmeticError) as exc:
                    fails.append(f"malformed output: {exc!r}")
        return Op(case, ms, float(case.n_orbits), fails, acc)


class SpinTransport:
    """In-process `spin.transport_spin` over one circular polar orbit."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.quiet = contextlib.nullcontext

    def prepare(self) -> None:
        import_flatgrav()

    def warm_up(self) -> None:
        self.run(cases.warmup_case("spin-transport", self.seed))

    def passes(self) -> Iterator[list]:
        return cases.passes("spin-transport", self.seed)

    @staticmethod
    def inputs(case: cases.SpinCase):
        import numpy as np
        from flatgrav import presets, spin
        if case.kind == "earth":
            p = presets.earth_spin_parameters()
            spec = spin.RotatingFieldSpec(r_o=p["r_o"], inertia=p["inertia"],
                                          omega=p["omega"])
            orbit = spin.circular_polar_orbit(case.radius, p["r_o"])
        else:
            spec = spin.RotatingFieldSpec(
                r_o=case.r_o_over_r, inertia=case.inertia,
                omega=np.array([0.0, 0.0, cases.SPIN_OMEGA]))
            orbit = spin.circular_polar_orbit(1.0, case.r_o_over_r)
        return spec, orbit, np.array([1.0, 0.0, 0.0])

    def run(self, case: cases.SpinCase) -> Op:
        from flatgrav import spin
        with self.quiet():
            spec, (position, velocity, _, period), s0 = self.inputs(case)
        t0 = time.perf_counter()
        try:
            sol = spin.transport_spin(spec, position, velocity, s0,
                                      (0.0, period), tol=cases.TOL)
        except Exception as exc:  # a crash is a failed operation
            return Op(case, (time.perf_counter() - t0) * 1e3, 1.0,
                      [f"raised {exc!r}"])
        ms = (time.perf_counter() - t0) * 1e3
        with self.quiet():
            res = checks.spin_checks(spec, position, velocity, s0, period,
                                     sol)
        return Op(case, ms, 1.0, res["failures"], res["drift"])


FAMILIES = {"cli-suite": CliProcess, "orbit-sweep": OrbitSweep,
            "spin-transport": SpinTransport}


def measure(family, seconds: float = 0.0,
            passes: Optional[List[list]] = None, whole_passes: bool = True,
            before: Callable[[object], None] = lambda case: None) -> Outcome:
    """Run ``passes`` as given, or the family's own passes for ``seconds``.

    Time-bounded in-process runs take whole passes only, starting one when
    the previous pass would still fit, so every run has the same case mix.
    The process family stops at the first case after the deadline.
    """
    out = Outcome()
    bounded = passes is None
    t_start = time.perf_counter()
    last = 0.0
    for cases_ in (family.passes() if bounded else passes):
        elapsed = time.perf_counter() - t_start
        if bounded and out.passes and (
                elapsed + last > seconds if whole_passes
                else elapsed >= seconds):
            break
        t_pass = time.perf_counter()
        done = []
        for case in cases_:
            if bounded and not whole_passes and \
                    time.perf_counter() - t_start >= seconds:
                break
            before(case)
            out.ops.append(family.run(case))
            done.append(case)
        out.passes.append(done)
        last = time.perf_counter() - t_pass
    return out


# ------------------------------------------------------------- set-up


def setup(workload: str, seed: int, workdir: Path):
    """Generate inputs, import flatgrav (in-process workloads) and run one
    untimed warm-up case; the cli-suite warm-up is one CLI process, and its
    check references are computed after set-up, in :func:`timed_run`."""
    family = FAMILIES[workload](seed, workdir)
    if workload != "cli-suite":
        family.prepare()
    family.warm_up()
    return family


def setup_seconds(workload: str, seed: int,
                  before: Callable[[], None]) -> List[float]:
    """Time SETUP_REPEATS set-ups, each in a fresh process, spawn to exit;
    ``before`` runs ahead of each one."""
    times = []
    for _ in range(SETUP_REPEATS):
        before()
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return times


# --------------------------------------------------------------- runs


def pool_record(family) -> dict:
    """The cli-suite argv list; its cases are recorded as indices into it."""
    if not isinstance(family, CliProcess):
        return {}
    return {"cli_pool": [asdict(c) for c in family.pool]}


ACCURACY = {
    "cli-suite": "max |integration - quadrature| / |quadrature| precession "
                 "over the suite's orbit reports",
    "orbit-sweep": "max |integration - quadrature| / |quadrature| precession "
                   "over all cases",
    "spin-transport": "max relative drift of spin_norm_invariant over each "
                      "transported orbit, over all cases",
}


def timed_run(workload: str, seed: int, seconds: float, workdir: Path
              ) -> dict:
    calibration.pin_to_one_cpu()
    cal = calibration.Calibration()
    setups = setup_seconds(workload, seed, cal.sample)
    family = setup(workload, seed, workdir)
    if workload == "cli-suite":
        family.prepare()
    first = len(cal.samples)             # kernel sample before op i: first+i
    out = measure(family, seconds, whole_passes=workload != "cli-suite",
                  before=cal.sample)
    who = resource.RUSAGE_CHILDREN if workload == "cli-suite" \
        else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    wall_ms = [op.ms for op in out.ops]
    lat = [op.ms * cal.scale(first + i) for i, op in enumerate(out.ops)]
    acc = [op.accuracy for op in out.ops if op.accuracy is not None]
    t = tail(lat)
    work = sum(op.work for op in out.ops)
    metrics = {
        "setup_s": statistics.median(setups) * cal.scale(),
        "case_ms_p50": statistics.median(lat),
        "case_ms_tail": t["value"],
        "throughput_per_s": work * 1e3 / sum(lat),
        "accuracy_err_max": max(acc, default=float("nan")),
        "peak_rss_mb": rss_mb,
    }
    return {"metrics": metrics, "outcome": out, "details": {
        "timings_are": "metrics and case_ms: wall times scaled to reference "
                       "machine speed (perfbench/calibration.py); wall and "
                       "the samples below: unscaled",
        "wall": {"setup_s": statistics.median(setups),
                 "case_ms_p50": statistics.median(wall_ms),
                 "case_ms_tail": tail(wall_ms)["value"],
                 "throughput_per_s": work * 1e3 / sum(wall_ms)},
        "calibration": {"reference_ms": calibration.REFERENCE_MS,
                        "run_scale": cal.scale(), "first_op_sample": first,
                        "kernel_ms": cal.samples},
        "setup_samples_s": setups,
        "wall_case_ms": wall_ms,
        "case_ms": lat,
        "case_ms_tail": t,
        "case_ms_quartiles": statistics.quantiles(lat, n=4)
        if len(lat) > 1 else lat,
        "throughput_unit": "commands/s" if workload == "cli-suite"
        else "revolutions/s",
        "accuracy": ACCURACY[workload],
        "peak_rss_of": "largest CLI child" if workload == "cli-suite"
        else "benchmark process",
        **pool_record(family),
    }}


def traced_run(workload: str, seed: int, seconds: float, workdir: Path
               ) -> dict:
    """Per-layer metrics.  The workload's own cases run untraced, then the
    same cases traced; one traced pass of other families reaches the
    layers the workload does not."""
    metrics = tracing.import_metrics(sys.executable, child_env(), ROOT)
    own = (CliReplay if workload == "cli-suite"
           else FAMILIES[workload])(seed, workdir / "own")
    cover = []
    if workload != "cli-suite":
        cover.append(CliReplay(seed, workdir / "cover"))
    if workload != "spin-transport":
        cover.append(SpinTransport(seed, workdir / "cover"))
    for fam in [own] + cover:
        fam.prepare()
        fam.warm_up()

    untraced = measure(own, UNTRACED_SHARE * seconds)
    tracer = tracing.Tracer()
    for fam in [own] + cover:
        fam.quiet = tracer.paused
    tracer.install()
    try:
        traced = measure(own, passes=untraced.passes, before=tracer.next_case)
        covered = [measure(fam, passes=[next(iter(fam.passes()))],
                           before=tracer.next_case) for fam in cover]
    finally:
        tracer.uninstall()
    spans = tracer.closed_spans()
    overhead = (statistics.median(op.ms for op in traced.ops)
                - statistics.median(op.ms for op in untraced.ops))
    metrics.update(tracing.LayerStats(spans, tracer.counts).metrics())
    metrics["trace.overhead_ms"] = overhead
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"{workload}-seed{seed}-spans.csv.gz"
    tracer.write(spans_path)
    everything = Outcome(ops=untraced.ops + traced.ops
                         + [op for c in covered for op in c.ops],
                         passes=untraced.passes)
    return {"metrics": metrics, "outcome": everything, "details": {
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_self_ms": tracing.layer_self_ms(spans),
        "trace_overhead": {
            "untraced_case_ms_p50": statistics.median(
                op.ms for op in untraced.ops),
            "traced_case_ms_p50": statistics.median(
                op.ms for op in traced.ops),
            "cases": len(traced.ops)},
        "coverage_cases": [[_record(op.case) for op in c.ops]
                           for c in covered],
        **pool_record(own),
    }}


# --------------------------------------------------------------- main


def finite_or_none(x: float) -> Optional[float]:
    """JSON has no NaN; a metric no operation produced is null."""
    return x if math.isfinite(x) else None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            return 0
        import_flatgrav()
        spec = load_spec()
        run = traced_run if args.trace else timed_run
        res = run(args.workload, args.seed, args.seconds, workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(res["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(res['metrics'])} do not match "
                           f"BENCHMARK.json {key} {sorted(units)}")
    out: Outcome = res["outcome"]
    result = {
        "correct": out.failed == 0,
        "attempted": len(out.ops),
        "failed": out.failed,
        "metrics": {k: {"value": finite_or_none(res["metrics"][k]),
                        "unit": units[k]} for k in units},
    }
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "error_rate": out.failed / len(out.ops),
        "failures": out.failures(),
        "cases": [[_record(c) for c in p] for p in out.passes],
        **res["details"],
        "result": result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{tag}.json"
    path.write_text(json.dumps(details, indent=1, default=str),
                    encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']} {m['unit']}")
    print(f"error_rate {details['error_rate']:g} "
          f"({out.failed}/{len(out.ops)}); details in "
          f"{path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
