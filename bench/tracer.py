"""Outside timers for the tetracolor layers.

`Tracer.install()` wraps every public module-level function of the traced
modules, plus `RotationMap.__init__` and `RotationMap.mirrored`, and
rebinds the wrapper under every name that any loaded `tetracolor` module
holds for the original.  A `from .coloring import find_tait_coloring` in
`kempe` and in `harness` makes two extra bindings of one function; a timer
placed only in `coloring` would miss their calls without any error, so
`install()` fails if an original is still reachable afterwards.

Each call records a span (name, start, end, parent span, operation id) in
compact in-memory columns.  Self time is a span's duration minus the time
its child spans cover.  Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from types import FunctionType

LAYERS = ("harness", "planar_map", "coloring", "dscc", "kempe")
PACKAGE = "tetracolor"


class IncompleteWrapping(RuntimeError):
    """An original function is still bound somewhere after install()."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # span columns
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []   # [span id, name id, ns covered by children]
        self.op = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def _enter(self, nid: int) -> None:
        stack = self._stack
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        stack.append([sid, nid, 0])
        self.span_start.append(time.perf_counter_ns())

    def _exit(self, counted: bool = True) -> None:
        t = time.perf_counter_ns()
        sid, nid, covered = self._stack.pop()
        self.span_end[sid] = t
        dur = t - self.span_start[sid]
        if counted:
            self.calls[nid] += 1
        self.self_ns[nid] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, so its time is nobody's self time."""
        self._enter(self.name_id(name))
        try:
            yield
        finally:
            self._exit()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, f, name: str, name_from_arg: bool = False):
        """Traced version of f; with name_from_arg the first argument is
        appended to the span name (check_claim's claim id)."""
        nid = self.name_id(name)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(f):
            # a call is counted when the generator is made; each resumption
            # is a span of its own
            @functools.wraps(f)
            def traced_gen(*args, **kwargs):
                self.calls[nid] += 1
                gen = f(*args, **kwargs)
                while True:
                    enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(counted=False)
                    yield item
            return traced_gen

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if name_from_arg:
                first = args[0] if args else next(iter(kwargs.values()))
                enter(self.name_id(f"{name}.{first}"))
            else:
                enter(nid)
            try:
                return f(*args, **kwargs)
            finally:
                exit_()
        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS under every binding."""
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[FunctionType, object] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[obj] = self.wrap(obj, f"{layer}.{attr}",
                                         name_from_arg=(obj.__qualname__ == "check_claim"))
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        rmap = mods["planar_map"].RotationMap
        for attr, name in (("__init__", "planar_map.RotationMap"),
                           ("mirrored", "planar_map.RotationMap.mirrored")):
            orig = rmap.__dict__[attr]
            self._restore.append((rmap, attr, orig))
            setattr(rmap, attr, self.wrap(orig, name))
        leftovers = [where for where, obj in self._reachable() if obj in wrapped]
        if leftovers:
            self.uninstall()
            raise IncompleteWrapping("still unwrapped: " + ", ".join(leftovers))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    @staticmethod
    def _package_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    @classmethod
    def _reachable(cls):
        """(where, function) for each function a package module binds by
        name, holds in a module-level container, or uses as a default."""
        for mod in cls._package_modules():
            for attr, obj in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                if isinstance(obj, dict):
                    items = list(obj.values())
                elif isinstance(obj, (list, tuple, set, frozenset)):
                    items = list(obj)
                elif isinstance(obj, FunctionType):
                    items = [obj, *(obj.__defaults__ or ()),
                             *(obj.__kwdefaults__ or {}).values()]
                else:
                    continue
                for item in items:
                    if isinstance(item, FunctionType):
                        yield where, item

    # -- results -------------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """name -> {"calls", "self_s"} for every name that has spans."""
        return {name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
                for i, name in enumerate(self.names) if self.calls[i]}

    def write_spans(self, path) -> int:
        """Write the spans as gzipped TSV; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.span_start)):
                out.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                          f"{names[self.span_name[sid]]}\t{self.span_start[sid]}\t"
                          f"{self.span_end[sid]}\n")
        return len(self.span_start)
