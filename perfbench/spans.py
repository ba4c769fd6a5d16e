"""In-memory spans around corrscan's public functions, for the traced run.

``install`` wraps every public function of the measured modules (and the
``__init__`` of their public non-exception classes, which is how
``RhoGridFactors`` is timed) and rebinds the wrapper under every name a
corrscan module holds for the original, because ``harness``, ``adjusted`` and
``cli`` import those names directly.  Nothing in ``src/`` is edited.

A span records name, start, end, parent span, operation id, the exception type
it ended with (if any) and a few counts taken at the boundary.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
import types
from collections import defaultdict

MODULES = ("region", "scan", "matern", "mcmc", "adjusted", "fdr", "harness", "cli")


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return arguments


def _count_hooks(mods):
    """name -> f(args, kwargs, result) giving the counts recorded on the span."""
    n_iter_default = mods["mcmc"].McmcConfig().n_iter
    llr_args = _bound(mods["scan"].llr_star_batch)
    sim_args = _bound(mods["adjusted"].simulate_model2_counts)
    fit_args = _bound(mods["mcmc"].fit_model2)

    def windows(args, kwargs, result):
        return {"windows": len(result)}

    def window_evals(args, kwargs, result):
        a = llr_args(args, kwargs)
        rows = len(a["counts"]) if getattr(a["counts"], "ndim", 2) == 2 else 1
        return {"window_evals": rows * len(a["windows"])}

    def rows(args, kwargs, result):
        return {"rows": sim_args(args, kwargs)["size"]}

    def iters(args, kwargs, result):
        config = fit_args(args, kwargs)["config"]
        return {"iters": config.n_iter if config is not None else n_iter_default,
                "ess_beta": float(result.ess["beta"]),
                "ess_sigma": float(result.ess["sigma"])}

    return {
        "region.enumerate_windows": windows,
        "scan.llr_star_batch": window_evals,
        "adjusted.simulate_model2_counts": rows,
        "mcmc.fit_model2": iters,
    }


class Tracer:
    """Collects spans; ``op`` is set by the caller before each operation."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op, error, counts]
        self.stack = []
        self.op = None
        self.hooks = {}

    def wrap(self, name, fn):
        hook = self.hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(self.spans), name, clock(), None,
                    self.stack[-1] if self.stack else None, self.op, None, None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                self.stack.pop()
            if hook is not None:
                span[7] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap and rebind; returns the list of traced names."""
        mods = {n: importlib.import_module(f"corrscan.{n}") for n in MODULES}
        holders = [importlib.import_module("corrscan"), *mods.values()]
        self.hooks = _count_hooks(mods)
        names = []
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ["main"]):
                obj = getattr(mod, attr)
                name = f"{short}.{attr}"
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(name, obj)
                    for holder in holders:
                        for key, val in list(vars(holder).items()):
                            if val is obj:
                                setattr(holder, key, wrapped)
                    names.append(name)
                elif (isinstance(obj, type) and not issubclass(obj, BaseException)
                      and "__init__" in vars(obj)
                      and "__dataclass_fields__" not in vars(obj)):
                    obj.__init__ = self.wrap(name, vars(obj)["__init__"])
                    names.append(name)
        return names

    def dump(self, path):
        keys = ("id", "name", "start", "end", "parent", "op", "error", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def per_op(self):
        """{op: {name: {"s", "self_s", "calls", <counts>...}}}.

        ``s`` sums the spans of a name that have no ancestor of the same name;
        ``self_s`` is duration minus the time covered by direct children."""
        child_time = defaultdict(float)
        for sid, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for sid, name, start, end, parent, op, error, counts in self.spans:
            row = out[op][name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[sid]
            anc = parent
            while anc is not None and self.spans[anc][1] != name:
                anc = self.spans[anc][4]
            if anc is None:
                row["s"] += end - start
            if error is not None:
                row[f"failed.{error}"] += 1
            for key, val in (counts or {}).items():
                row[key] += val
        return out


def _med(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(per_op, spec):
    """Per-layer metrics named in ``spec`` ({name: unit}) from ``Tracer.per_op``.

    Per-operation quantities are medians over operations; rates are totals over
    totals.  A layer that never ran reads 0."""
    ops = list(per_op.values())

    def field(name, key):
        return [row[name][key] if name in row else 0.0 for row in ops]

    def total(name, key):
        return sum(field(name, key))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    fit = "mcmc.fit_model2"
    fit_s = total(fit, "s")
    derived = {
        "region.windows": _med(field("region.enumerate_windows", "windows")),
        "scan.window_evals_per_s": rate(total("scan.llr_star_batch", "window_evals"),
                                        total("scan.llr_star_batch", "s")),
        f"{fit}.iters_per_s": rate(total(fit, "iters"), fit_s),
        f"{fit}.ess_beta_per_s": rate(total(fit, "ess_beta"), fit_s),
        f"{fit}.ess_sigma_per_s": rate(total(fit, "ess_sigma"), fit_s),
    }
    metrics = {}
    for metric, unit in spec.items():
        if metric in derived:
            value = derived[metric]
        elif ".failed." in metric:
            # failures are run totals; ".failed.other" takes every type not named
            name, _, err = metric.partition(".failed.")
            named = {m.partition(".failed.")[2] for m in spec if m.startswith(name + ".failed.")}
            seen = {k[len("failed."):] for row in ops for k in row.get(name, {})
                    if k.startswith("failed.")}
            errs = seen - named if err == "other" else {err}
            value = sum(total(name, f"failed.{e}") for e in errs)
        else:
            name, _, key = metric.rpartition(".")
            value = _med(field(name, key))
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
