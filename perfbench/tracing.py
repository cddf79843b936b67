"""Layer tracing for the traced run only.

``Tracer.install`` replaces the public functions of each flatgrav module
(plus a few boundary methods) with wrappers that record spans, and
``Tracer.uninstall`` puts the originals back.  Timed runs never install it.
Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import math
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "presets", "orbits", "photons", "carriers", "baseline",
          "spin")
# Called thousands of times per case at ~1 us each: counted, not spanned.
COUNT_ONLY = {"orbits.rosette_rhs"}
# Boundaries that are methods or private functions but mark a layer's work.
EXTRA = {
    "cli": ("_emit", "RunReport.to_json", "RunReport.rows_csv"),
    "presets": ("Scenario.__init__",),
    "orbits": ("Trajectory.integral_drift",),
}


def _steps(sol) -> int:
    return len(sol.ts) - 1


# Counts read off a call's result: solver steps and report size.
PROBES: Dict[str, Callable] = {
    "orbits.integrate_orbit": lambda tr: {
        "steps": _steps(tr.sol),
        "revs": (tr.phi_end - tr.phi_start) / (2.0 * math.pi)},
    "spin.transport_spin": lambda sol: {"steps": _steps(sol)},
    "photons.fermat_ray_integrate": lambda res: {"steps": _steps(res[0].sol)},
    "cli.RunReport.to_json": lambda text: {"bytes": len(text.encode())},
    "cli.RunReport.rows_csv": lambda text: {"bytes": len(text.encode())},
}


@dataclass(slots=True)
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index into Tracer.spans, -1 for a root
    case: object
    extra: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.case: int = -1
        self.active = True
        self._stack: List[int] = []
        self._undo: list = []

    def next_case(self, _case=None) -> None:
        """Tag the spans that follow with a new case id."""
        self.case += 1

    @contextlib.contextmanager
    def paused(self):
        """Call through without recording (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -------------------------------------------------------- wrappers

    def span(self, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.case)
            if probe is not None:
                self.spans[idx].extra = probe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary, in every namespace that binds it."""
        import flatgrav
        modules = {m: importlib.import_module(f"flatgrav.{m}")
                   for m in LAYERS}
        namespaces = [flatgrav] + list(modules.values())
        for layer, mod in modules.items():
            targets = {}
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[attr] = obj
            for attr in EXTRA.get(layer, ()):
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    name = f"{layer}.{attr}"
                    wrapped = self.span(name, orig)
                    setattr(cls, meth, wrapped)
                    self._undo.append((cls, meth, orig))
                else:
                    targets[attr] = getattr(mod, attr)
            for attr, fn in targets.items():
                name = f"{layer}.{attr}"
                wrapped = (self.counter if name in COUNT_ONLY
                           else self.span)(name, fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)
                            self._undo.append((ns, key, fn))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # ----------------------------------------------------------- output

    def closed_spans(self) -> List[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("tracer read while a span is still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path: Path) -> None:
        """Spans as CSV: index,name,start_ns,end_ns,parent,case."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,case\n")
            for i, s in enumerate(self.closed_spans()):
                fh.write(f"{i},{s.name},{s.start},{s.end},{s.parent},"
                         f"{s.case}\n")


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def layer_self_ms(spans: List[Span]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for s, self_ns in zip(spans, self_times(spans)):
        out[s.layer] += self_ns / 1e6
    return dict(out)


class LayerStats:
    """Per-layer metrics from one traced run's spans and counters."""

    def __init__(self, spans: List[Span], counts: Counter):
        self.spans = spans
        self.counts = counts
        self.self_ns = self_times(spans)
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)

    def n(self, *names: str) -> int:
        return sum(len(self.by_name[x]) for x in names)

    def _need(self, *names: str) -> int:
        count = self.n(*names)
        if count == 0:
            raise RuntimeError(f"traced run never reached {names}")
        return count

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        idx = self.by_name[name]
        self._need(name)
        src = self.self_ns if self_time else [s.dur for s in self.spans]
        return sum(src[i] for i in idx) / len(idx) / 1e6

    def total_ms(self, pred: Callable[[Span], bool],
                 self_time: bool = True) -> float:
        return sum((self.self_ns[i] if self_time else s.dur)
                   for i, s in enumerate(self.spans) if pred(s)) / 1e6

    def extra_sum(self, name: str, key: str) -> float:
        self._need(name)
        return sum(self.spans[i].extra[key] for i in self.by_name[name])

    def metrics(self) -> Dict[str, float]:
        cmds = [x for x in self.by_name if x.startswith("cli.cmd_")]
        n_main = self._need("cli.main")
        n_int = self._need("orbits.integrate_orbit")
        steps = self.extra_sum("orbits.integrate_orbit", "steps")
        revs = self.extra_sum("orbits.integrate_orbit", "revs")
        rosette = self.counts["orbits.rosette_rhs"]
        n_spin = self._need("spin.transport_spin")
        spin_steps = self.extra_sum("spin.transport_spin", "steps")
        spin_rhs = self._need("spin.transport_rhs")
        emits = ("cli.RunReport.to_json", "cli.RunReport.rows_csv")
        bytes_ = sum(self.extra_sum(x, "bytes") for x in emits if self.n(x))
        quads = {"carriers.total_charge_quadrature",
                 "carriers.self_energy_quadrature",
                 "carriers.enclosed_energy_quadrature",
                 "carriers.total_energy_quadrature"}
        profile_cmds = self._need("cli.cmd_density", "cli.cmd_electric")
        return {
            "cli.command_ms": self.total_ms(lambda s: s.name in cmds)
            / self._need(*cmds),
            "cli.emit_ms": self.mean_ms("cli._emit"),
            "cli.report_bytes": bytes_ / self._need(*emits),
            "presets.resolve_us": 1e3 * self.total_ms(
                lambda s: s.layer == "presets") / n_main,
            "orbits.integrate_ms": self.mean_ms("orbits.integrate_orbit"),
            "orbits.steps_per_rev": steps / revs,
            "orbits.rhs_evals_per_rev": rosette / revs,
            "orbits.rhs_evals_per_step": rosette / steps,
            "orbits.perihelion_ms": self.mean_ms("orbits.precession_numeric"),
            "orbits.drift_calls_per_case":
                self._need("orbits.Trajectory.integral_drift") / n_int,
            "orbits.drift_ms": self.total_ms(
                lambda s: s.name == "orbits.Trajectory.integral_drift",
                self_time=False) / n_int,
            "orbits.quadrature_us":
                1e3 * self.mean_ms("orbits.precession_quadrature"),
            "photons.ray_ms": self.mean_ms("photons.fermat_ray_integrate"),
            "photons.ray_steps":
                self.extra_sum("photons.fermat_ray_integrate", "steps")
                / self.n("photons.fermat_ray_integrate"),
            "photons.shapiro_ms": self.mean_ms("photons.shapiro_delay"),
            "photons.deflection_us":
                1e3 * self.mean_ms("photons.deflection_integral"),
            "carriers.quadrature_ms":
                self.mean_ms("carriers.total_charge_quadrature"),
            "carriers.profile_ms": self.total_ms(
                lambda s: s.layer == "carriers" and s.name not in quads)
            / profile_cmds,
            "baseline.quadrature_us": 1e3 * self.mean_ms(
                "baseline.schwarzschild_precession_quadrature"),
            "spin.transport_ms": self.mean_ms("spin.transport_spin"),
            "spin.steps": spin_steps / n_spin,
            "spin.rhs_evals": spin_rhs / n_spin,
            "spin.rhs_evals_per_step": spin_rhs / spin_steps,
            "spin.rhs_us": 1e3 * self.mean_ms("spin.transport_rhs"),
            "spin.connection_us": 1e3 * self.mean_ms(
                "spin.rotating_connections", self_time=True),
        }


# ------------------------------------------------------- import probes


def _run(cmd: List[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120, check=True)


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Import cost of `import flatgrav.cli` by package, from -X importtime.

    Package figures are sums of self times, so they add up; the total is
    the cumulative time of the top-level flatgrav imports.
    """
    self_us: Dict[str, float] = defaultdict(float)
    total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = float(fields[0]), float(fields[1])
        except ValueError:          # the header line
            continue
        raw = fields[2]
        name = raw.strip()
        top = name.split(".")[0]
        self_us[top] += own
        if top == "flatgrav" and len(raw) - len(raw.lstrip()) == 1:
            total += cumulative
    return {"import.total_ms": total / 1e3,
            "import.numpy_ms": self_us["numpy"] / 1e3,
            "import.scipy_ms": self_us["scipy"] / 1e3,
            "import.flatgrav_self_ms": self_us["flatgrav"] / 1e3}


def import_metrics(python: str, env: dict, cwd: Path,
                   repeats: int = 3) -> Dict[str, float]:
    """Interpreter start-up and import cost, each in fresh processes."""
    startup = []
    for _ in range(2 * repeats - 1):
        t0 = time.perf_counter()
        _run([python, "-c", "pass"], env, cwd)
        startup.append((time.perf_counter() - t0) * 1e3)
    samples = [parse_importtime(_run(
        [python, "-X", "importtime", "-c", "import flatgrav.cli"],
        env, cwd).stderr) for _ in range(repeats)]
    out = {"interp.startup_ms": statistics.median(startup)}
    for key in samples[0]:
        out[key] = statistics.median(s[key] for s in samples)
    return out
