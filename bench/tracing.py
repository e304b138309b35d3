"""Per-layer spans and counters recorded from outside the spinsense package.

The tracer replaces public functions of each module with timing wrappers for
the duration of one pass and puts the originals back afterwards; nothing in
``src/`` is edited.  Spans (name, parent, start, end) are kept in memory and
written out once the pass is over.  A span's self time is its duration minus
the durations of its direct child spans.
"""

import inspect
import json
import time

from spinsense import cli, dicke, dynamics, metrology, model

MODULES = (cli, dicke, dynamics, metrology, model)

# (module, function) pairs recorded as spans named "<module>.<function>".
# A function defined in its module is also replaced where other modules
# imported it by name; scipy's eigh_tridiagonal is traced only as called by
# the ramp stepper in dynamics.
SPANNED = (
    (dicke, "rotation_matrix"),
    (model, "sector_tridiagonal"),
    (dynamics, "eigh_tridiagonal"),
    (dynamics, "scan_ramp_time"),
    (dynamics, "protocol_kernel"),
    (metrology, "tint_sweep"),
    (cli, "write_csv"),
)


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = {}
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    def _count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if before else None

        def traced(*args, **kwargs):
            if before:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                before(bound.arguments)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = start
                spans[index][3] = time.perf_counter()
                stack.pop()
            if after:
                after(result)
            return result

        return traced

    def _replace(self, owner, attribute, new):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, new)

    def _on_scan(self, arguments):
        k = len(arguments["ramp_times"])
        d = arguments["n_qubits"] // 2 + 1
        steps = arguments["ramp_steps"]
        # Two ramps per scan; each step takes one d x K phase exponential and
        # two d x d by d x K complex products (8 flops per multiply-add).
        self._count("dynamics.scan_points", k)
        self._count("dynamics.phase_exps", 2 * steps * d * k)
        self._count("dynamics.matmul_flops", 2 * steps * 2 * 8 * d * d * k)

    def _on_sweep(self, result):
        self._count("metrology.sweep_points", len(result.t_sense))

    def _on_csv(self, path):
        self._count("cli.write_csv_bytes", path.stat().st_size)

    def install(self):
        hooks = {
            "dynamics.scan_ramp_time": {"before": self._on_scan},
            "metrology.tint_sweep": {"after": self._on_sweep},
            "cli.write_csv": {"after": self._on_csv},
        }
        for module, attribute in SPANNED:
            fn = getattr(module, attribute)
            name = f"{_short(module)}.{attribute}"
            wrapper = self._wrap(name, fn, **hooks.get(name, {}))
            owners = [module]
            if getattr(fn, "__module__", None) == module.__name__:
                owners += [m for m in MODULES if m is not module and getattr(m, attribute, None) is fn]
            for owner in owners:
                self._replace(owner, attribute, wrapper)

        survival = dynamics.ProtocolKernel.survival

        def counted_survival(kernel, t_sense, hz):
            self._count("metrology.survival_evals")
            return survival(kernel, t_sense, hz)

        self._replace(dynamics.ProtocolKernel, "survival", counted_survival)

    def restore(self):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def write(self, path):
        path.write_text(json.dumps({"fields": ["name", "parent", "start", "end"],
                                    "spans": self.spans}))

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        total, calls, child = {}, {}, [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += end - start
        self_time = {}
        ramp_rotation = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
            if name == "dicke.rotation_matrix" and parent >= 0 and self.spans[parent][0] in (
                "dynamics.scan_ramp_time", "dynamics.protocol_kernel"
            ):
                ramp_rotation += end - start
        c = self.counters.get
        eigensolves = calls.get("dynamics.eigh_tridiagonal", 0)
        ramp_time = (total.get("dynamics.scan_ramp_time", 0.0)
                     + total.get("dynamics.protocol_kernel", 0.0) - ramp_rotation)
        sweep_points = c("metrology.sweep_points", 0)
        return {
            "dicke.rotation_matrix_s": (total.get("dicke.rotation_matrix", 0.0), "s"),
            "dicke.rotation_matrix_calls": (calls.get("dicke.rotation_matrix", 0), "count"),
            "model.sector_tridiagonal_s": (total.get("model.sector_tridiagonal", 0.0), "s"),
            "model.sector_tridiagonal_calls": (calls.get("model.sector_tridiagonal", 0), "count"),
            "dynamics.eigensolves": (eigensolves, "count"),
            "dynamics.eigensolve_s": (total.get("dynamics.eigh_tridiagonal", 0.0), "s"),
            "dynamics.step_us": (1e6 * ramp_time / eigensolves if eigensolves else 0.0, "us"),
            "dynamics.scan_ramp_time.self_s": (self_time.get("dynamics.scan_ramp_time", 0.0), "s"),
            "dynamics.scan_points": (c("dynamics.scan_points", 0), "count"),
            "dynamics.phase_exps": (c("dynamics.phase_exps", 0), "count"),
            "dynamics.matmul_flops": (c("dynamics.matmul_flops", 0), "flop"),
            "dynamics.protocol_kernel_s": (total.get("dynamics.protocol_kernel", 0.0), "s"),
            "dynamics.protocol_kernel.self_s": (self_time.get("dynamics.protocol_kernel", 0.0), "s"),
            "metrology.tint_sweep.self_s": (self_time.get("metrology.tint_sweep", 0.0), "s"),
            "metrology.survival_evals": (c("metrology.survival_evals", 0), "count"),
            "metrology.survival_evals_per_point": (
                c("metrology.survival_evals", 0) / sweep_points if sweep_points else 0.0,
                "count",
            ),
            "cli.write_csv_s": (total.get("cli.write_csv", 0.0), "s"),
            "cli.write_csv_bytes": (c("cli.write_csv_bytes", 0), "B"),
        }
