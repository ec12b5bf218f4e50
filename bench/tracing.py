"""Spans around calls into gek's public functions, for the traced run only.

Nothing here changes gek's source.  ``Tracer.install`` replaces each target
with a timing wrapper wherever it is looked up: a class attribute for methods,
and every ``gek.*`` module namespace that holds the function (so
``gek.cli.check_composability`` and ``gek.properties.product_distribution``,
bound at import time, are covered too).  ``uninstall`` puts the originals
back.  Spans stay in memory and are written once, by ``dump``.

A span is ``(name_id, parent_index, t0, t1, tag)``; ``tag`` is a small integer
read from the arguments (input length, series order) so that metrics can be
split by size.  Times come from ``time.perf_counter``, which on Linux reads
the system-wide monotonic clock, so spans written by child processes can be
merged with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager


def _size(args) -> int:
    x = args[1]
    return getattr(x, "size", None) or len(x)


def _order_arg0(args) -> int:
    return args[0].order


def _order_arg1(args) -> int:
    return args[1]


# (module, attribute or Class.attribute, span name, tag function)
TARGETS = [
    ("gek.cli", "parse_args", "cli.parse_args", None),
    ("gek.cli", "run", "cli.run", None),
    ("gek.properties", "check_composability", "properties.composability", None),
    ("gek.properties", "check_sk_axioms", "properties.sk", None),
    ("gek.properties", "check_schur_concavity", "properties.schur", None),
    ("gek.properties", "solve_growth_law", "properties.extensivity", None),
    ("gek.properties", "round_trip_residual", "properties.extensivity", None),
    ("gek.properties", "tsallis_qstar", "properties.extensivity", None),
    ("gek.entropy", "EntropySpec.value", "entropy.value", _size),
    ("gek.entropy", "EntropySpec.raw_value", "entropy.value", _size),
    ("gek.entropy", "EntropySpec.phi", "entropy.phi", None),
    ("gek.entropy", "Distribution.__init__", "entropy.distribution", None),
    ("gek.entropy", "product_distribution", "entropy.product_distribution", None),
    ("gek.grouplog", "GroupFunction.inverse", "grouplog.inverse_numeric", None),
    ("gek.grouplog", "SeriesGroup.inverse", "grouplog.inverse_numeric", None),
    ("gek.grouplog", "IdentityGroup.inverse", "grouplog.inverse_closed", None),
    ("gek.grouplog", "MultiplicativeGroup.inverse", "grouplog.inverse_closed", None),
    ("gek.grouplog", "KaniadakisGroup.inverse", "grouplog.inverse_closed", None),
    ("gek.grouplog", "GroupFunction.chi", "grouplog.chi_numeric", None),
    ("gek.grouplog", "IdentityGroup.chi", "grouplog.chi_closed", None),
    ("gek.grouplog", "MultiplicativeGroup.chi", "grouplog.chi_closed", None),
    ("gek.grouplog", "KaniadakisGroup.chi", "grouplog.chi_closed", None),
    ("gek.series", "reversion", "series.reversion", _order_arg0),
    ("gek.series", "compose", "series.compose", None),
    ("gek.series", "group_law_from_G", "series.group_law", _order_arg1),
    ("gek.series", "verify_group_axioms", "series.axioms", _order_arg0),
    ("gek.series", "TruncatedSeries.__mul__", "series.mul", None),
    ("gek.series", "BivariateTruncatedSeries.__mul__", "series.mul", None),
    ("gek.quantum", "DensityMatrix.__init__", "quantum.density_matrix", None),
    ("gek.quantum", "dicke_reduced_density", "quantum.dicke_closed", None),
    ("gek.quantum", "dicke_reduced_density_dense", "quantum.dicke_dense", None),
    ("gek.quantum", "lmg_asymptotic_za0", "quantum.asymptotic", None),
    ("gek.quantum", "quantum_z_ab", "quantum.z_ab", None),
]

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, tag=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (nid, parent, t0, t1, tag(args) if tag else 0)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self._name_id(name), parent, t0, t1, 0)

    def install(self) -> None:
        for module_name in {t[0] for t in TARGETS}:
            importlib.import_module(module_name)
        gek_modules = [m for n, m in list(sys.modules.items()) if n == "gek" or n.startswith("gek.")]
        for module_name, attr, name, tag in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, tag))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, tag)
            for mod in gek_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)

    def absorb(self, path: str, parent: int) -> None:
        """Append the spans a child process dumped, re-parenting its roots under ``parent``."""
        with open(path) as handle:
            data = json.load(handle)
        base = len(self.spans)
        remap = [self._name_id(n) for n in data["names"]]
        for nid, par, t0, t1, tag in data["spans"]:
            self.spans.append((remap[nid], parent if par < 0 else par + base, t0, t1, tag))


class Summary:
    """Per-name counts, inclusive and self time, derived from a span list."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for nid, parent, t0, t1, _tag in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self.names = tracer.names
        self.spans = spans
        self.self_time = [(s[3] - s[2]) - c for s, c in zip(spans, child_time)]

    def select(self, name: str, tag_test=None) -> list[float]:
        """Inclusive durations (s) of the spans called ``name`` whose tag passes ``tag_test``."""
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [t1 - t0 for n, _p, t0, t1, tag in self.spans if n == nid and (tag_test is None or tag_test(tag))]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        ids = {i for i, n in enumerate(self.names) if n.startswith(prefix)}
        return sum(st for s, st in zip(self.spans, self.self_time) if s[0] in ids)
