"""Spans around the public functions of each symtorus layer.

The traced run wraps, from the outside, every module-level function of
each layer and every method written in the body of its public classes
(``IntMatrix.__init__``, ``IntMatrix.__mul__``, ...). It rebinds every
name under which a symtorus module holds a wrapped function: module
attributes (``symtorus.intmat.int_inverse`` and the ``int_inverse``
imported into ``symtorus.monodromy`` get the same wrapper) and the
values, or items of tuple values, of module-level dicts and tuples
(``symtorus.cli.COMMANDS``). No file of the program changes. ``torus``
is not wrapped: its Fraction arithmetic runs inside every other layer,
so it would swamp the trace, and it shows up in their self times
instead. Functions nested inside others are not reachable from outside
and count towards the function that defines them.

A span is (name, layer, start, end, parent, request, error), kept in
memory and written out by ``dump`` when the run ends.
"""

import collections
import functools
import importlib
import json
import sys
import time
import types

LAYER_MODULES = (
    ("symtorus.cli", "cli"),
    ("symtorus.serialize", "serialize"),
    ("symtorus.classify4d", "classify4d"),
    ("symtorus.lagrangian", "lagrangian"),
    ("symtorus.orbisurface", "orbisurface"),
    ("symtorus.monodromy", "monodromy"),
    ("symtorus.orbitkernel", "orbitkernel"),
    ("symtorus._orbitpy", "orbitkernel"),
    ("symtorus.intmat", "intmat"),
    ("symtorus.ratmat", "ratmat"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_MODULES))
# Private functions wrapped too, because a counter is read from them.
PRIVATE = {"symtorus.monodromy": ("_action_tables",)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = collections.Counter()
        self._restore = []

    def install(self):
        wrappers = {}
        for modname, layer in LAYER_MODULES:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            short = modname.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if getattr(value, "__module__", None) != modname:
                    continue
                if isinstance(value, type) and not attr.startswith("_"):
                    self._wrap_class(value, "%s.%s" % (short, attr), layer,
                                     module.__file__)
                elif isinstance(value, types.FunctionType) and (
                        not attr.startswith("_")
                        or attr in PRIVATE.get(modname, ())):
                    wrappers[value] = self._wrap(
                        "%s.%s" % (short, attr), layer, value)

        def swap(value):
            if isinstance(value, types.FunctionType):
                return wrappers.get(value, value)
            if isinstance(value, tuple):
                new = tuple(swap(item) for item in value)
                return value if new == value else new
            return value

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "symtorus"
                                      or modname.startswith("symtorus.")):
                continue
            for attr, value in list(vars(module).items()):
                new = swap(value)
                if new is not value:
                    setattr(module, attr, new)
                    self._restore.append(
                        functools.partial(setattr, module, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not item:
                            value[key] = new
                            self._restore.append(functools.partial(
                                value.__setitem__, key, item))

    def _wrap_class(self, cls, prefix, layer, filename):
        """Wrap the methods written in the class body (not the private
        ones, and not those a decorator such as dataclass generated)."""
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and not (attr.startswith("__")
                                             and attr.endswith("__")):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                fn, kind = value.__func__, type(value)
            elif isinstance(value, property):
                fn, kind = value.fget, None
            else:
                fn, kind = value, None
            if not (isinstance(fn, types.FunctionType)
                    and fn.__code__.co_filename == filename):
                continue
            wrapped = self._wrap("%s.%s" % (prefix, attr), layer, fn)
            if kind is not None:
                wrapped = kind(wrapped)
            elif isinstance(value, property):
                wrapped = property(wrapped, value.fset, value.fdel,
                                   value.__doc__)
            setattr(cls, attr, wrapped)
            self._restore.append(functools.partial(setattr, cls, attr, value))

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore = []

    def _wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        is_kernel = layer == "orbitkernel"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent, parent_layer = stack[-1] if stack else (-1, None)
            spans.append(None)
            stack.append((index, layer))
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent,
                                self.request, error)
            if counter:
                counter(self.counts, args, result)
            if is_kernel and parent_layer != "orbitkernel":
                _count_closure(self.counts, args, result)
            return result

        return traced

    def summary(self, requests):
        """Per-layer self time and calls, and the counters, per request."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = collections.Counter()
        calls = collections.Counter()
        by_name = collections.Counter()
        errors = 0
        for i, (name, layer, start, end, parent, _, error) in enumerate(
                self.spans):
            self_ms[layer] += (end - start - child[i]) * 1000.0
            calls[layer] += 1
            by_name[name] += 1
            if (error and layer == "serialize"
                    and (parent < 0 or self.spans[parent][1] != "serialize")):
                errors += 1
        n = max(requests, 1)
        out = {}
        for layer in LAYERS:
            out[layer + ".self_ms"] = (self_ms[layer] / n, "ms/req")
            out[layer + ".calls"] = (calls[layer] / n, "1/req")
        out["serialize.errors"] = (errors / n, "1/req")
        out["classify4d.validations_per_request"] = (
            by_name["classify4d.validate_description"] / n, "1/req")
        out["lagrangian.extend_tau_calls"] = (
            by_name["lagrangian.extend_tau"] / n, "1/req")
        out["intmat.int_inverse_calls"] = (
            by_name["intmat.int_inverse"] / n, "1/req")
        out["intmat.smith_calls"] = (
            by_name["intmat.smith_normal_form"] / n, "1/req")
        out["monodromy.generators"] = (self.counts["generators"] / n, "1/req")
        out["monodromy.tables"] = (self.counts["tables"] / n, "1/req")
        out["orbitkernel.states"] = (self.counts["states"] / n, "1/req")
        out["orbitkernel.candidates"] = (
            self.counts["candidates"] / n, "1/req")
        out["orbitkernel.useful_ratio"] = (
            self.counts["new_states"] / self.counts["candidates"]
            if self.counts["candidates"] else 0.0, "ratio")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _count_closure(counts, args, result):
    """A closure call: ``result`` holds the states, ``args[1]`` the tables."""
    states = len(result)
    tables = len(args[1]) if len(args) > 1 else 0
    counts["states"] += states
    counts["new_states"] += states - 1
    counts["candidates"] += states * tables


COUNTERS = {
    "monodromy.group_generators":
        lambda counts, args, result: counts.update(generators=len(result)),
    "monodromy._action_tables":
        lambda counts, args, result: counts.update(tables=len(result)),
}
