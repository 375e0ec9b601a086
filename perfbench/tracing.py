"""Layer spans recorded from outside the program.

`Tracer.install()` replaces functions of the meantau modules with timing
wrappers and `uninstall()` puts the originals back, so no program file
changes.  A from-import copies a function into the importing module, so a
wrapper is bound under every module attribute that holds the original.

A span's self time is its duration minus the time of the spans it
encloses.  `config.parse.s` and `output.write.s` count only the outermost
span of their layer, so write_csv enclosing write_text_atomic is counted
once.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import sys
from time import perf_counter

LAYERS = ("simulate", "adjoint", "bangbang", "variational", "smp", "portfolio",
          "config", "output", "cli")

# Functions the `__all__` lists miss: the noise draw and the shared RK4
# propagator.  Khat closures and bangbang's brentq are wrapped in install().
_EXTRA = {"simulate": {"step_noise": "step_noise", "_affine_path": "rk4"}}
_SKIP = {
    # called once per CSV cell or per JSON node: the wrapper would cost
    # more than the work, and write_csv/write_json already enclose them
    ("output", "fmt_float"),
    ("output", "json_sanitize"),
}

# Counts that repeat exactly for fixed inputs; a traced run checks them.
EXACT = (
    "simulate.step_noise.calls", "simulate.step_noise.rows", "simulate.step_noise.bytes",
    "simulate.simulate_ensemble.calls", "simulate.simulate_ensemble.path_steps",
    "simulate.rk4.calls", "simulate.rk4.nodes", "simulate.solve_mean_path.calls",
    "portfolio.ensembles", "portfolio.unique_ensemble_ratio",
    "adjoint.exp_with_integral.calls", "bangbang.iterations",
    "bangbang.vertex_policy.calls", "bangbang.khat.calls", "bangbang.brentq.calls",
    "variational.adjoint_evals", "smp.residual_entries", "output.bytes",
)


class _Stats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.stats = {}
        self.layer_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self._ensemble_keys = []
        # each frame: [span name, layer, time of enclosed spans]
        self._stack = [["", "", 0.0]]
        self._patches = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Timing wrapper for `fn`; `after(args, kwargs, result, parent)`
        records counters once the call returns."""
        layer = name.split(".", 1)[0]
        st = self.stats.setdefault(name, _Stats())
        stack = self._stack
        layer_time = self.layer_time

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[2] += dt
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[2]
                if parent[1] != layer:
                    layer_time[layer] += dt
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _bound(self, fn):
        sig = inspect.signature(fn)

        def bind(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        return bind

    # -- counters -----------------------------------------------------------

    def _hooks(self, mods):
        hooks = {}
        sim = mods["simulate"]

        bind_noise = self._bound(sim.step_noise)

        def noise(args, kwargs, result, parent):
            a = bind_noise(args, kwargs)
            self._count("simulate.step_noise.rows", a["n_paths"])
            self._count("simulate.step_noise.bytes", a["n_paths"] * a["d"] * 8)

        hooks["simulate.step_noise"] = noise

        bind_ens = self._bound(sim.simulate_ensemble)

        def ensemble(args, kwargs, result, parent):
            a = bind_ens(args, kwargs)
            self._count("simulate.simulate_ensemble.path_steps",
                        a["n_paths"] * a["grid"].n_steps)
            if any(f[1] == "portfolio" for f in self._stack):
                self._count("portfolio.ensembles")
                self._ensemble_keys.append(pickle.dumps(a))

        hooks["simulate.simulate_ensemble"] = ensemble

        bind_rk4 = self._bound(sim._affine_path)

        def rk4(args, kwargs, result, parent):
            self._count("simulate.rk4.nodes", len(bind_rk4(args, kwargs)["times"]))

        hooks["simulate.rk4"] = rk4

        def synthesize(args, kwargs, result, parent):
            self._count("bangbang.iterations", result.iterations)

        hooks["bangbang.synthesize"] = synthesize

        def closed_form(args, kwargs, result, parent):
            if parent[1] == "variational":
                self._count("variational.adjoint_evals")

        hooks["adjoint.time_adjoint_closed_form"] = closed_form

        def smp(args, kwargs, result, parent):
            self._count("smp.residual_entries",
                        result.n_time_nodes * result.n_control_samples)

        hooks["smp.check_candidate"] = smp

        bind_write = self._bound(mods["output"].write_text_atomic)

        def write(args, kwargs, result, parent):
            self._count("output.bytes", len(bind_write(args, kwargs)["text"].encode()))

        hooks["output.write_text_atomic"] = write
        return hooks

    # -- patching -----------------------------------------------------------

    def install(self):
        """Bind wrappers under every meantau attribute holding a target."""
        mods = {name: importlib.import_module(f"meantau.{name}") for name in LAYERS}
        hooks = self._hooks(mods)
        targets = []
        for layer, mod in mods.items():
            names = {n: n for n in getattr(mod, "__all__", ())}
            names.update(_EXTRA.get(layer, {}))
            for attr, label in names.items():
                fn = getattr(mod, attr, None)
                if (layer, attr) in _SKIP or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                targets.append((f"{layer}.{label}", fn))

        loaded = [m for n, m in sys.modules.items()
                  if n == "meantau" or n.startswith("meantau.")]
        for name, fn in targets:
            wrapper = self.wrap(name, fn, hooks.get(name))
            for mod in loaded:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapper)

        bb = mods["bangbang"]
        # Khat is a closure built per call; wrap each one as it is made.
        make_khat = bb.khat_evaluator
        khat_span = self.wrap("bangbang.khat", lambda f, *a: f(*a))

        def khat_evaluator(*args, **kwargs):
            f = make_khat(*args, **kwargs)
            return lambda t: khat_span(f, t)

        self._patch(bb, "khat_evaluator", khat_evaluator)
        self._patch(bb, "brentq", self.wrap("bangbang.brentq", bb.brentq))
        spec_cls = mods["variational"].PerturbationSpec
        self._patch(spec_cls, "validate",
                    self.wrap("variational.PerturbationSpec.validate", spec_cls.validate))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s):
        """Flat per-layer metrics for this pass; `wall_s` is its command time."""
        def st(name):
            return self.stats.get(name, _Stats())

        c = self.counts.get
        n_ens = c("portfolio.ensembles", 0)
        out = {
            "simulate.step_noise.calls": st("simulate.step_noise").calls,
            "simulate.step_noise.s": st("simulate.step_noise").total,
            "simulate.step_noise.rows": c("simulate.step_noise.rows", 0),
            "simulate.step_noise.bytes": c("simulate.step_noise.bytes", 0),
            "simulate.simulate_ensemble.calls": st("simulate.simulate_ensemble").calls,
            "simulate.simulate_ensemble.self_s": st("simulate.simulate_ensemble").self_time,
            "simulate.simulate_ensemble.path_steps":
                c("simulate.simulate_ensemble.path_steps", 0),
            "simulate.rk4.calls": st("simulate.rk4").calls,
            "simulate.rk4.s": st("simulate.rk4").total,
            "simulate.rk4.nodes": c("simulate.rk4.nodes", 0),
            "simulate.solve_mean_path.calls": st("simulate.solve_mean_path").calls,
            "simulate.solve_mean_path.s": st("simulate.solve_mean_path").total,
            "portfolio.ensembles": n_ens,
            "portfolio.unique_ensemble_ratio":
                len(set(self._ensemble_keys)) / n_ens if n_ens else 0.0,
            "portfolio.mc_validate.s": st("portfolio.mc_validate").total,
            "portfolio.figure_columns.s": st("portfolio.figure_columns").total,
            "adjoint.exp_with_integral.calls": st("adjoint.exp_with_integral").calls,
            "adjoint.exp_with_integral.s": st("adjoint.exp_with_integral").total,
            "adjoint.time_adjoint_closed_form.s": st("adjoint.time_adjoint_closed_form").total,
            "adjoint.solve_time_adjoint.s": st("adjoint.solve_time_adjoint").total,
            "bangbang.synthesize.s": st("bangbang.synthesize").total,
            "bangbang.iterations": c("bangbang.iterations", 0),
            "bangbang.vertex_policy.calls": st("bangbang.vertex_policy").calls,
            "bangbang.vertex_policy.self_s": st("bangbang.vertex_policy").self_time,
            "bangbang.khat.calls": st("bangbang.khat").calls,
            "bangbang.find_switch_times.s": st("bangbang.find_switch_times").total,
            "bangbang.brentq.calls": st("bangbang.brentq").calls,
            "variational.fd_tau_check.s": st("variational.fd_tau_check").total,
            "variational.dual_identity_check.s": st("variational.dual_identity_check").total,
            "variational.fd_state_check.s": st("variational.fd_state_check").total,
            "variational.simulate_state_sensitivity.s":
                st("variational.simulate_state_sensitivity").total,
            "variational.adjoint_evals": c("variational.adjoint_evals", 0),
            "smp.check_candidate.self_s": st("smp.check_candidate").self_time,
            "smp.residual_entries": c("smp.residual_entries", 0),
            "config.parse.s": self.layer_time["config"],
            "output.write.s": self.layer_time["output"],
            "output.bytes": c("output.bytes", 0),
        }
        self_s = dict.fromkeys(LAYERS, 0.0)
        for name, stats in self.stats.items():
            self_s[name.split(".", 1)[0]] += stats.self_time
        # time inside cli.main that no other layer's span covers
        out["trace.coverage"] = 1.0 - self_s["cli"] / wall_s if wall_s > 0 else 0.0
        for layer in LAYERS[:-1]:
            out[f"layer.{layer}.self_s"] = self_s[layer]
        return out
