"""Timing wrappers around matcat's public functions, installed from outside.

Tracer.install() replaces each public function of the matcat modules, in its
defining module and in every module that imported it by name, and the public
methods of the classes in CLASSES, with a wrapper that records one span per
call: name, start, end, parent span and item id.  Spans stay in memory;
Tracer.write() puts them in a gzip'd TSV when the run ends.  Per-name
aggregates (calls, total, self time = duration minus the time covered by
child spans) and hook counters are kept alongside.

Under a fork-started worker pool, the wrapped orderly._worker ships each
task's spans back with its result.  The pool's result thread unpickles them
into Tracer.inbox, and uninstall() merges them from the main thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
from array import array
from functools import cached_property
from time import perf_counter

MODULES = ("core", "canon", "lattice", "orderly", "props", "represent", "orderable", "paving", "store")
CLASSES = {"core": ("Matroid",), "lattice": ("FlatLattice",), "paving": ("IsetSearch",)}

# Bit-level helpers called millions of times at sub-microsecond cost: a
# wrapper would cost more than the call it measures, so they stay bare and
# their time counts as their caller's self time.
SKIP = {
    "core.popcount", "core.bits", "core.mask_of", "core.subsets_of",
    "core.Matroid.rank_of", "core.Matroid.closure", "core.Matroid.is_independent",
    "canon.relabel_mask", "canon.relabel_family",
    "lattice.FlatLattice.rank_of_flat", "lattice.FlatLattice.join_index",
    "lattice.FlatLattice.meet_index", "lattice.FlatLattice.is_modular_pair_idx",
}

EXMINORS = "represent.excluded_minors"

# The tracer whose inbox receives worker spans when results are unpickled.
_ACTIVE = None


def _hook_signature(tr, args, result, dur):
    tr.count("canon.signature_prefilter.pass", bool(result))
    tr.count(f"funnel.{args[0]}.signature_pass", bool(result))


def _hook_first_cell(tr, args, result, dur):
    # the orderly test: the new (last) element lies in the first cell
    passed = args[0] - 1 in result
    tr.count("canon.first_cell.pass", passed)
    tr.count(f"funnel.{args[0]}.first_cell_pass", passed)


def _hook_ingleton(tr, args, result, dur):
    tr.count("props.ingleton.violators", result is not None)


def _hook_exminor_lookup(tr, args, result, dur):
    if tr.open_name() == EXMINORS:
        tr.count("represent.excluded_minors.lookups")


def _hook_exminor_miss(tr, args, result, dur):
    if tr.open_name() == EXMINORS:
        tr.count("represent.excluded_minors.misses")


def _hook_parent(tr, args, result, dur):
    records, candidates = result
    tr.count("orderly.parents")
    tr.count("orderly.candidates", candidates)
    tr.count("orderly.accepted", len(records))
    tr.count(f"orderly.level{args[0] + 1}_s", dur)
    tr.count(f"funnel.{args[0] + 1}.candidates", candidates)
    tr.count(f"funnel.{args[0] + 1}.accepted", len(records))


HOOKS = {
    "canon.element_has_minimal_signature": _hook_signature,
    "canon.first_cell_elements": _hook_first_cell,
    "canon.certificate_for": _hook_exminor_lookup,
    "props.ingleton_violating": _hook_ingleton,
    "represent.representable": _hook_exminor_miss,
    "orderly._extend_records": _hook_parent,
}


def _next_item(tr, args):
    """A fresh item id per parent matroid."""
    tr.items += 1
    return tr.items


def _span_name(name, args):
    """representable is split by field, so each GF(q) kernel gets a name."""
    if name == "represent.representable":
        q = args[1] if len(args) > 1 else None
        return f"{name}.gf{q}"
    return name


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.names = []            # span name table; spans refer to it by index
        self._code = {}
        self.stack = []            # open spans: [span id, name, child seconds]
        self.next_id = 0
        self.item = -1
        self.items = 0
        self.agg = {}              # name -> [calls, total s, self s]
        self.counters = {}
        self.inbox = []            # (parent span id, drained worker data)
        self._clear_spans()
        self._undo = []

    def _clear_spans(self):
        self.sp_id, self.sp_parent, self.sp_name, self.sp_item = (array("q") for _ in range(4))
        self.sp_start, self.sp_end = array("d"), array("d")

    # -- recording ------------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def open_name(self):
        return self.stack[-1][1] if self.stack else None

    def _begin(self, name):
        sid = self.next_id
        self.next_id += 1
        self.stack.append([sid, name, 0.0])
        return sid

    def _end(self, name, t0, t1):
        sid, _, child = self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        self.sp_id.append(sid)
        self.sp_parent.append(parent[0] if parent is not None else -1)
        self.sp_name.append(code)
        self.sp_item.append(self.item)
        self.sp_start.append(t0)
        self.sp_end.append(t1)

    def durations(self, name):
        code = self._code.get(name)
        if code is None:
            return []
        return [e - s for c, s, e in zip(self.sp_name, self.sp_start, self.sp_end) if c == code]

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name, fn, item_of=None):
        """item_of(tracer, args) gives the item id that the call's span and
        its children's carry; without it they inherit the caller's."""
        tr = self
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # each resume of the generator is one span
                it = fn(*args, **kwargs)
                while True:
                    tr._begin(name)
                    t0 = perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tr._end(name, t0, perf_counter())
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _span_name(name, args)
            saved = tr.item
            if item_of is not None:
                tr.item = item_of(tr, args)
            tr._begin(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.count(f"{name}.failed")
                raise
            finally:
                t1 = perf_counter()
                tr._end(span, t0, t1)
                tr.item = saved
            if hook is not None:
                hook(tr, args, result, t1 - t0)
            return result
        return wrapper

    def install(self):
        """Wrap every public function and method; uninstall() undoes it."""
        global _ACTIVE
        mods = {m: importlib.import_module(f"matcat.{m}") for m in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or f"{short}.{attr}" in SKIP:
                    continue
                wrapped[id(fn)] = self.wrap(f"{short}.{attr}", fn)
            for cls_name in CLASSES.get(short, ()):
                self._wrap_class(short, getattr(mod, cls_name))
        orderly, store = mods["orderly"], mods["store"]
        wrapped[id(orderly._extend_records)] = self.wrap(
            "orderly._extend_records", orderly._extend_records, item_of=_next_item
        )
        wrapped[id(store.compute_row)] = self.wrap(
            "store.compute_row", store.compute_row, item_of=lambda tr, args: args[0].id
        )
        wrapped[id(orderly._worker)] = _pool_worker(self, orderly._worker)
        # rebind in the defining module and in every module that imported by name
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                new = wrapped.get(id(value))
                if new is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, new)
        _ACTIVE = self

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            if name in SKIP:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, cached_property):
                new = cached_property(self.wrap(name, raw.func))
                new.__set_name__(cls, attr)
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        """Restore the originals and merge what the pool workers shipped."""
        global _ACTIVE
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []
        _ACTIVE = None
        while self.inbox:
            self.merge(*self.inbox.pop(0))

    # -- worker hand-off ----------------------------------------------------------

    def drain(self):
        """Everything recorded since the last drain, as plain data."""
        out = {
            "names": self.names,
            "agg": self.agg,
            "counters": self.counters,
            "spans": [
                self.sp_id.tolist(), self.sp_parent.tolist(), self.sp_name.tolist(),
                self.sp_item.tolist(), self.sp_start.tolist(), self.sp_end.tolist(),
            ],
        }
        self.agg, self.counters = {}, {}
        self._clear_spans()
        return out

    def merge(self, root, data):
        """Add a worker's drained data; its root spans hang off span root."""
        base = self.next_id
        ids, parents, names, items, starts, ends = data["spans"]
        self.next_id += (max(ids) + 1) if ids else 0
        codes = []
        for name in data["names"]:
            code = self._code.get(name)
            if code is None:
                code = self._code[name] = len(self.names)
                self.names.append(name)
            codes.append(code)
        self.sp_id.extend(base + i for i in ids)
        self.sp_parent.extend(base + p if p >= 0 else root for p in parents)
        self.sp_name.extend(codes[c] for c in names)
        self.sp_item.extend(items)
        self.sp_start.extend(starts)
        self.sp_end.extend(ends)
        for name, (calls, total, self_s) in data["agg"].items():
            a = self.agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for key, value in data["counters"].items():
            self.count(key, value)

    def write(self, path):
        """Spans as TSV: id, parent, name, item, start and duration in us."""
        t_base = min(self.sp_start) if self.sp_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\titem\tstart_us\tdur_us\n")
            for sid, par, code, item, s, e in zip(
                self.sp_id, self.sp_parent, self.sp_name, self.sp_item, self.sp_start, self.sp_end
            ):
                fh.write(
                    f"{sid}\t{par}\t{self.names[code]}\t{item}\t"
                    f"{(s - t_base) * 1e6:.1f}\t{(e - s) * 1e6:.1f}\n"
                )


def _pool_worker(tr, worker):
    """orderly._worker that, in a forked pool process, returns its result
    together with the spans recorded for it."""

    @functools.wraps(worker)
    def traced_worker(args):
        if os.getpid() == tr.pid:
            return worker(args)
        if tr.stack or tr.sp_id:  # first task in this process: drop the parent's copy
            tr.stack.clear()
            tr.drain()
            tr.items = os.getpid() * 1_000_000
        return _Shipped(worker(args), tr.drain())

    return traced_worker


class _Shipped:
    def __init__(self, result, data):
        self.result, self.data = result, data

    def __reduce__(self):
        return _unship, (self.result, self.data)


def _unship(result, data):
    """Runs in the pool's result thread: only append (atomic under the GIL)."""
    tr = _ACTIVE
    if tr is not None:
        stack = tr.stack
        tr.inbox.append((stack[-1][0] if stack else -1, data))
    return result
