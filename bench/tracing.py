"""Per-module spans for the traced benchmark run, recorded from outside the
package.

`Tracer` wraps every public function of the package's layer modules;
`install` rebinds each module-level name that refers to one, in every
module of the package, so calls made inside the package (synthesis ->
segment_evolution, propagation -> hamiltonian_path, model -> pauli_on,
synthesis -> scipy's minimize) go through the wrappers too. `uninstall`
puts the original objects back; the benchmark installs the wrappers for
the length of each traced task only. Nothing in the package itself is
modified on disk.

A span is [name, task, parent, start, end, error class, info]; spans stay
in memory and are written out once, at the end of the run. A layer's self
time is its span time minus the time of its child spans. Functions called
thousands of times per task with no children of interest are counted, not
spanned, so the span list stays small.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("linalg", "model", "propagation", "synthesis", "characterization", "tables", "cli")

#: Counted only (no span): leaf helpers on the per-evaluation hot path.
COUNT_ONLY = {
    "propagation.single_qubit_loop_gate",
    "propagation.zero_dynamical_phase_amplitude",
    "synthesis.gate_length",
}
#: Names imported into a layer from outside the package that are wrapped too.
FOREIGN = {"synthesis": ("minimize",)}
#: Error classes reported by name under `propagation.errors`.
ERROR_CLASSES = ("EigenvalueCrossingError", "NonAbelianDegeneracyError", "ValidationError")
#: Searches whose call arguments are kept, to rescore their restarts.
SEARCHES = ("synthesis.synthesize", "synthesis.find_entangling")

NAME, TASK, PARENT, START, END, ERROR, INFO = range(7)


def _clock() -> float:
    return time.perf_counter()


def _arg(args, kwargs, pos: int, key: str):
    """Argument `key` of a call, given at position `pos` or by keyword."""
    return args[pos] if len(args) > pos else kwargs.get(key)


def _binder(fn):
    """(args, kwargs) -> every argument of a call to fn, defaults included."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _probes(originals: dict) -> dict:
    """Per-function extractors of the counts a span carries, called as
    probe(args, kwargs, result) with result None when the call raised."""
    probes = {
        "model.hamiltonian_path": lambda a, k, out: None if out is None else int(out.shape[0]),
        "propagation.segment_evolution": lambda a, k, out: _arg(a, k, 1, "n_t"),
        "synthesis.minimize": lambda a, k, out: None if out is None else {
            "nfev": int(out.nfev), "nit": int(out.nit), "x": [float(v) for v in out.x]},
        "characterization.simulate_qpt": lambda a, k, out: None if out is None else int(out[1]),
        "cli.dumps_report": lambda a, k, out: None if out is None else len(out.encode()),
    }

    def fit_info(a, k, out):
        if out is None:
            return None
        _, err, converged = out
        finite = err is not None and all(math.isfinite(e) for e in err)
        return {"converged": bool(converged), "finite_stderr": finite}

    probes["characterization.fit_decay"] = fit_info

    if "characterization.rb_run" in originals:
        bind_rb = _binder(originals["characterization.rb_run"])

        def rb_info(a, k, out):
            kw = bind_rb(a, k)
            variants = 1 if kw["target"] is None else 2
            return len(tuple(kw["m_values"])) * int(kw["n_sequences"]) * variants

        probes["characterization.rb_run"] = rb_info
    for name in SEARCHES:
        probes[name] = lambda a, k, out: {"converged": out is not None and bool(out.converged)}
    return probes


class Tracer:
    """Spans and call counts for one traced run of the benchmark."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.task = -1
        self.probe_errors = 0
        self.arguments: dict[int, tuple] = {}  # span index -> (args, kwargs) of a search
        self._originals = self._targets()
        self._bindings = self._plan()

    # ------------------------------------------------------------ wrapping
    def _targets(self) -> dict:
        """Qualified name -> original function, for every wrapped name that
        exists. A name a later version deletes is simply absent; its
        metrics then read zero."""
        out = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer, None)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    out[f"{layer}.{attr}"] = obj
            for attr in FOREIGN.get(layer, ()):
                if callable(getattr(mod, attr, None)):
                    out[f"{layer}.{attr}"] = getattr(mod, attr)
        return out

    def _modules(self) -> list:
        mods = [self.package]
        mods += [getattr(self.package, layer) for layer in LAYERS if hasattr(self.package, layer)]
        return mods

    def _plan(self) -> list[tuple]:
        """(module, name, original, wrapper) for every binding to rebind."""
        originals = self._originals
        probes = _probes(originals)
        wrappers = {}
        for name, fn in originals.items():
            if name.startswith("linalg.") or name in COUNT_ONLY:
                wrappers[id(fn)] = self._counted(name, fn)
            else:
                wrappers[id(fn)] = self._spanned(name, fn, probes.get(name))
        wanted = {id(fn): fn for fn in originals.values()}
        return [
            (mod, attr, obj, wrappers[id(obj)])
            for mod in self._modules()
            for attr, obj in vars(mod).items()
            if id(obj) in wanted and obj is wanted[id(obj)]
        ]

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn, probe):
        spans, stack = self.spans, self.stack
        keep = name in SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.task, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            if keep:
                self.arguments[len(spans)] = (args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            out = None
            span[START] = _clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = _clock()
                stack.pop()
                if probe is not None:
                    try:
                        span[INFO] = probe(args, kwargs, out)
                    except Exception:  # a changed signature loses the count, not the run
                        self.probe_errors += 1

        return wrapper

    @contextmanager
    def task_span(self, index: int):
        """Root span of one benchmark task; its calls share the task id."""
        self.task = index
        span = ["task", index, -1, 0.0, 0.0, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = _clock()
        try:
            yield
        except Exception as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = _clock()
            self.stack.pop()
            self.task = -1

    # ------------------------------------------------------------- results
    def write(self, path: Path) -> None:
        keys = ("name", "task", "parent", "start", "end", "error", "info")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"span": i} | dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def _ancestor(self, index: int, names) -> int | None:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return parent
            parent = self.spans[parent][PARENT]
        return None

    def _restart_converged(self, search: int, x: list[float]) -> bool:
        """Whether one restart's end point `x` passes the test its search
        uses to declare convergence, rescored on the fine default grid as
        the search rescores its pick: fidelity goal reached for `synthesize`,
        an accepted (not separable, score below tolerance) entangler for
        `find_entangling`. Runs after the traced tasks, unwrapped."""
        pkg = self.package
        syn, prop = pkg.synthesis, pkg.propagation
        name = self.spans[search][NAME]
        kw = _binder(self._originals[name])(*self.arguments[search])
        try:
            if name == "synthesis.synthesize":
                problem = kw["problem"]
                if problem.n_qubits == 1:
                    seq = syn.single_qubit_sequence_from_vector(x)
                else:
                    seq = syn.two_qubit_sequence_from_vector(x, problem.coupling)
                u = prop.sequence_propagator(seq)
                return pkg.linalg.unitary_fidelity(problem.target, u) >= problem.fidelity_goal
            seg = syn.two_qubit_sequence_from_vector(x, kw["coupling"]).segments[0]
            sv = syn.correlation_singular_values(prop.segment_evolution(seg)[0])
            return bool(sv[2] >= syn.SEPARABLE_S2 and sv[1] < kw["score_tol"])
        except (prop.EigenvalueCrossingError, pkg.linalg.ValidationError):
            return False  # the search itself would skip this candidate

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, self time and the counts each span carries.

        A restart (one `minimize` call) is useful when its end point alone
        would have let its search report convergence (see
        `_restart_converged`).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        m: dict[str, float] = defaultdict(float)
        for name, n in self.counts.items():
            m[f"{name}.calls"] += n
        minimize_s = 0.0
        restarts = useful = searches = converged = 0
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            key = name
            if name == "propagation.segment_evolution":
                key = f"{name}.fine" if s[INFO] is None else f"{name}.search"
                if s[INFO] is not None:
                    m[f"{key}.grid_points"] += int(s[INFO])
                if s[ERROR]:
                    cls = s[ERROR] if s[ERROR] in ERROR_CLASSES else "other"
                    m[f"propagation.errors.{cls}"] += 1
                    m["propagation.errors.total"] += 1
            m[f"{key}.calls"] += 1
            m[f"{key}.self_s"] += dur - child_time[i]
            layer = name.split(".", 1)[0]
            if layer == "tables":
                m["tables.calls"] += 1
                m["tables.self_s"] += dur - child_time[i]
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            if parent is not None and parent[NAME] == "synthesis.minimize" and s[ERROR]:
                m["synthesis.rejected_evals"] += 1
            if name == "model.hamiltonian_path" and s[INFO] is not None:
                m["model.hamiltonian_path.matrices"] += s[INFO]
                if parent is not None and parent[NAME] == "propagation.ode_propagator":
                    m["propagation.ode_propagator.steps"] += s[INFO]
            elif name in ("synthesis.synthesize", "synthesis.find_entangling") and s[INFO]:
                searches += 1
                converged += s[INFO]["converged"]
            elif name == "synthesis.minimize" and s[INFO] is not None:
                minimize_s += dur
                m["synthesis.nfev"] += s[INFO]["nfev"]
                m["synthesis.nit"] += s[INFO]["nit"]
                search = self._ancestor(i, SEARCHES)
                if search is not None:
                    try:
                        useful += self._restart_converged(search, s[INFO]["x"])
                        restarts += 1
                    except Exception:  # a changed API loses the count, not the run
                        self.probe_errors += 1
            elif name == "characterization.rb_run" and s[INFO] is not None:
                m["characterization.rb_run.sequences"] += s[INFO]
            elif name == "characterization.simulate_qpt" and s[INFO] is not None:
                m["characterization.simulate_qpt.settings"] += s[INFO]
            elif name == "characterization.fit_decay" and s[INFO] is not None:
                m["characterization.fit_decay.unconverged"] += not s[INFO]["converged"]
                m["characterization.fit_decay.nonfinite_stderr"] += not s[INFO]["finite_stderr"]
            elif name == "cli.dumps_report" and s[INFO] is not None:
                m["cli.report_bytes"] += s[INFO]
        nfev = m.get("synthesis.nfev", 0.0)
        m["synthesis.eval_s"] = minimize_s / nfev if nfev else 0.0
        rejected = m.get("synthesis.rejected_evals", 0.0)
        m["synthesis.rejected_eval_ratio"] = rejected / nfev if nfev else 0.0
        m["synthesis.useful_restart_ratio"] = useful / restarts if restarts else 0.0
        m["synthesis.converged_ratio"] = converged / searches if searches else 0.0
        m["trace.probe_errors"] = self.probe_errors
        return dict(m)
