"""Outside-in tracing of paikit: spans recorded around the calls into each layer.

The program is not changed.  While ``Tracer.active()`` is open, every public
function of the layer modules (plus the two methods a per-layer metric
names) is replaced, in every paikit namespace that holds it, by a wrapper
that records a span: name, start, end, parent and workload.  paikit imports
by name, so ``paikit.inversion.simulate_forward`` and
``paikit.wave_forward.simulate_forward`` are both replaced.  The originals
come back on exit.  Spans stay in memory; counts come from the arguments
and return values of the wrapped calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import paikit
from paikit.wave_forward import n_steps_for, stable_dt

LAYERS = ("grid", "geometry", "initial_data", "wave_forward", "wave_dirichlet",
          "observability", "control", "inversion", "norms")
# methods wrapped besides the public functions, because a metric names them
METHODS = {"grid": ("Discretization.__init__",),
           "control": ("_HumOperator.gramian_apply",)}
MIB = 2.0 ** 20


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "workload",
                 "phase", "info")

    def __init__(self, name, layer, parent, workload, phase):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.workload = workload
        self.phase = phase
        self.start = self.end = time.perf_counter()
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _expected_steps(speed, T, cfl) -> int:
    return n_steps_for(T, stable_dt(speed.domain, speed.c_max, cfl))


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


def _forward_info(args, out):
    traj = out[0]
    a = args.arguments
    return {"steps": traj.n_steps,
            "expected_steps": _expected_steps(a["speed"], a["T"], a["cfl"]),
            "state_bytes": _nbytes(traj.states)}


def _dirichlet_info(args, out):
    traj, trace = out
    p = args.arguments["problem"]
    run = traj.run
    return {"steps": traj.n_steps,
            "expected_steps": _expected_steps(p.speed, p.T, p.cfl),
            "history_bytes": _nbytes(run.x, run.g, run.trace, traj.states,
                                     traj.snapshots, trace.values)}


# counts read from return values, keyed by span name
INSPECTORS = {
    "wave_forward.simulate_forward": _forward_info,
    "wave_dirichlet.simulate_dirichlet": _dirichlet_info,
    "control.hum_control": lambda args, out: {"cg_iters": out.iterations},
    "inversion.reconstruct": lambda args, out: {"lbfgs_iters": out.n_iterations},
}


def _targets():
    """(owner, attribute, span name, layer) of everything that gets wrapped."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"paikit.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((mod, attr, f"{layer}.{attr}", layer))
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            out.append((getattr(mod, cls_name), meth, f"{layer}.{qual}", layer))
    return out


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []

    def _wrap(self, fn, name, layer):
        sig = inspect.signature(fn)
        inspector = INSPECTORS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1,
                        self.workload, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if inspector is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = inspector(bound, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def active(self, phase: str):
        """Install the wrappers for the duration of the block."""
        self.phase = phase
        wrappers = {}
        namespaces = {id(paikit): paikit}
        for owner, attr, name, layer in _targets():
            fn = getattr(owner, attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
            namespaces[id(owner)] = owner
        patched = []
        for ns in namespaces.values():
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(ns, attr, wrappers[id(obj)][1])
                    patched.append((ns, attr, obj))
        try:
            yield self
        finally:
            for ns, attr, obj in patched:
                setattr(ns, attr, obj)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part covered by its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def _under(self, i: int, ancestor: str) -> bool:
        while i >= 0:
            if self.spans[i].name == ancestor:
                return True
            i = self.spans[i].parent
        return False

    def layer_metrics(self, kernel: dict) -> dict:
        """Per-layer metrics of the traced operation ("solve" spans)."""
        spans = self.spans
        selft = self.self_times()
        solve = [i for i, s in enumerate(spans) if s.phase == "solve"]

        def pick(name):
            return [i for i in solve if spans[i].name == name]

        def total(name):
            return sum(spans[i].duration for i in pick(name))

        def info_sum(name, key):
            return sum(spans[i].info[key] for i in pick(name))

        def self_s(names, under):
            return sum(selft[i] for i in solve
                       if spans[i].name in names and self._under(i, under))

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {}
        setup_builds = [s.duration for s in spans
                        if s.name == "grid.Discretization.__init__"]
        m["grid.disc_build_s"] = (sum(setup_builds), "s")
        m["grid.k_matvec_us"] = (kernel["k_matvec_us"], "us")
        m["grid.triad_us"] = (kernel["triad_us"], "us")
        m["grid.k_matvec_bytes_calc"] = (kernel["k_matvec_bytes_calc"], "B")

        m["geometry.speed_field_calls"] = (len(pick("geometry.build_speed_field")), "count")
        m["geometry.speed_field_s"] = (total("geometry.build_speed_field"), "s")

        n_ell = len(pick("initial_data.solve_spd"))
        t_ell = total("initial_data.solve_spd")
        m["initial_data.elliptic_solves"] = (n_ell, "count")
        m["initial_data.elliptic_s"] = (t_ell, "s")
        m["initial_data.elliptic_ms_per_solve"] = (per(t_ell, n_ell, 1e3), "ms")
        m["initial_data.make_initial_data_s"] = (total("initial_data.make_initial_data"), "s")

        fw = "wave_forward.simulate_forward"
        steps, t_fw = info_sum(fw, "steps"), total(fw)
        us_step = per(t_fw, steps, 1e6)
        m["wave_forward.runs"] = (len(pick(fw)), "count")
        m["wave_forward.steps"] = (steps, "count")
        m["wave_forward.s"] = (t_fw, "s")
        m["wave_forward.us_per_step"] = (us_step, "us")
        m["wave_forward.step_over_matvec"] = (per(us_step, kernel["k_matvec_us"]), "ratio")
        m["wave_forward.state_mb"] = (
            max((spans[i].info["state_bytes"] for i in pick(fw)), default=0) / MIB, "MiB")

        dr = "wave_dirichlet.simulate_dirichlet"
        steps, t_dr = info_sum(dr, "steps"), total(dr)
        m["wave_dirichlet.runs"] = (len(pick(dr)), "count")
        m["wave_dirichlet.steps"] = (steps, "count")
        m["wave_dirichlet.s"] = (t_dr, "s")
        m["wave_dirichlet.us_per_step"] = (per(t_dr, steps, 1e6), "us")
        m["wave_dirichlet.history_mb"] = (
            max((spans[i].info["history_bytes"] for i in pick(dr)), default=0) / MIB, "MiB")

        obs_names = {s.name for s in spans if s.layer == "observability"}
        m["observability.members"] = (len(pick("observability.observability_ratio")), "count")
        m["observability.self_s"] = (sum(selft[i] for i in solve
                                         if spans[i].name in obs_names), "s")

        hum, gram = "control.hum_control", "control._HumOperator.gramian_apply"
        rep = "control.representation_residual"
        gram_spans = pick(gram)
        m["control.hum_s"] = (total(hum), "s")
        m["control.hum_cg_iters"] = (info_sum(hum, "cg_iters"), "count")
        m["control.hum_self_s"] = (self_s({hum, gram}, hum), "s")
        m["control.gramian_apply_ms"] = (
            per(sum(spans[i].duration for i in gram_spans), len(gram_spans), 1e3), "ms")
        m["control.representation_self_s"] = (
            self_s({rep, "control.controlled_solution"}, rep), "s")

        bracket, line_search = self._misfit_roles(solve)
        iters = info_sum("inversion.reconstruct", "lbfgs_iters")
        grad = "inversion.adjoint_gradient"
        m["inversion.bracket_evals"] = (bracket, "count")
        m["inversion.line_search_evals"] = (line_search, "count")
        m["inversion.line_search_accept_ratio"] = (per(iters, line_search), "ratio")
        m["inversion.lbfgs_iters"] = (iters, "count")
        m["inversion.misfit_s"] = (total("inversion.misfit"), "s")
        m["inversion.gradient_evals"] = (len(pick(grad)), "count")
        m["inversion.gradient_s"] = (total(grad), "s")
        m["inversion.gradient_self_s"] = (self_s({grad}, grad), "s")
        inv_names = {s.name for s in spans if s.layer == "inversion"}
        m["inversion.scan_self_s"] = (self_s(inv_names, "inversion.stability_scan"), "s")
        m["norms.trace_norms_s"] = (total("wave_forward.trace_norms"), "s")
        return m

    def _misfit_roles(self, solve):
        """Misfit calls of each reconstruct: (bracket, line search) counts.

        Calls made before the first ``adjoint_gradient`` of a reconstruct are
        the radius bracket; the rest are line-search trials.
        """
        bracket = line_search = 0
        seen_gradient = set()
        for i in solve:
            s = self.spans[i]
            root = i
            while root >= 0 and self.spans[root].name != "inversion.reconstruct":
                root = self.spans[root].parent
            if root < 0:
                continue
            if s.name == "inversion.adjoint_gradient":
                seen_gradient.add(root)
            elif s.name == "inversion.misfit":
                if root in seen_gradient:
                    line_search += 1
                else:
                    bracket += 1
        return bracket, line_search
