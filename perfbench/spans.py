"""Span tracer that wraps fibrand's public functions from outside the program.

Installing the tracer rebinds every name that refers to a public function of
a traced module, in every ``fibrand`` module namespace (the package itself
included).  Callers bind with ``from .arith import fib_mod``, so patching only
``fibrand.arith`` would miss their calls.  Removing the tracer restores the
original bindings; the program's files are never edited.

Each call becomes a span with a name, start, end, parent span and job id.
A span's self time is its duration minus the time covered by its children.
The hot leaf functions in ``LEAVES`` run hundreds of thousands of times per
run, so their calls are not stored one by one: count and total time are
aggregated on the parent span (or, outside any span, on the job) instead.
"""

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("arith", "periods", "binseq", "stats", "keystream", "cli")
LEAVES = frozenset({"arith.fib_mod", "arith.is_prime"})


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "child", "leaves", "moduli")

    def __init__(self, name, job, parent, start):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.leaves = None  # {leaf name: [calls, seconds]}, made on first leaf call
        self.moduli = 0  # moduli passed, for periods.pisano_periods_range


def _convention_label(fn):
    sig = inspect.signature(fn)

    def label(args, kwargs):
        return sig.bind(*args, **kwargs).arguments.get(
            "convention", sig.parameters["convention"].default
        ).value

    return label


def _modulus_count(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["m_max"] - bound.arguments["m_min"] + 1

    return count


class Tracer:
    """Collects spans for calls into fibrand while installed.

    Use as a context manager around the traced region; set ``job`` to the
    current job id before each job.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.root_leaves = defaultdict(lambda: [0, 0.0])  # (job, leaf) -> calls outside any span
        self.job = None
        self._stack: list[Span] = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._saved = []
        for layer in LAYERS:
            module = importlib.import_module(f"fibrand.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

    def _wrap(self, name, fn):
        stack = self._stack
        if name in LEAVES:
            root = self.root_leaves

            @wraps(fn)
            def leaf(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    if stack:
                        parent = stack[-1]
                        parent.child += dt
                        if parent.leaves is None:
                            parent.leaves = defaultdict(lambda: [0, 0.0])
                        agg = parent.leaves[name]
                    else:
                        agg = root[self.job, name]
                    agg[0] += 1
                    agg[1] += dt

            return leaf

        label = _convention_label(fn) if name == "stats.autocorrelation" else None
        count = _modulus_count(fn) if name == "periods.pisano_periods_range" else None
        spans = self.spans

        @wraps(fn)
        def span(*args, **kwargs):
            full = f"{name}.{label(args, kwargs)}" if label else name
            parent = stack[-1] if stack else None
            s = Span(full, self.job, parent, perf_counter())
            if count:
                s.moduli = count(args, kwargs)
            stack.append(s)
            try:
                return fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += s.end - s.start
                spans.append(s)

        return span

    def __enter__(self):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fibrand" or mod_name.startswith("fibrand.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._saved.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False

    def summary(self, selected):
        """Per-name calls, self seconds and moduli passed, plus leaf calls keyed
        by parent name, over the spans whose job id satisfies `selected`."""
        calls = Counter()
        self_s = defaultdict(float)
        moduli = Counter()
        leaf_under = Counter()  # (leaf name, parent name) -> calls
        for s in self.spans:
            if not selected(s.job):
                continue
            calls[s.name] += 1
            self_s[s.name] += s.end - s.start - s.child
            moduli[s.name] += s.moduli
            for leaf, (n, t) in (s.leaves or {}).items():
                calls[leaf] += n
                self_s[leaf] += t
                leaf_under[leaf, s.name] += n
        for (job, leaf), (n, t) in self.root_leaves.items():
            if selected(job):
                calls[leaf] += n
                self_s[leaf] += t
                leaf_under[leaf, None] += n
        return calls, self_s, moduli, leaf_under
