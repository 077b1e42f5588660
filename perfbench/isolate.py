"""Cold state for every timed operation, asserted rather than assumed.

Each timed operation runs in a child forked from a parent that never ran
one: the child starts from the parent's state and exits after the
operation, so nothing it warms survives into the next operation.  Import
time is paid once, by the parent, and never timed.

Before an operation starts, the child checks two fingerprints:

* every cache and mutable container bound at module or class level in the
  library has the size it had right after import (the parent clears the
  lru caches after building the engines it keeps);
* an engine handed to the operation has exactly the object-graph size it
  had right after it was built, so no power sum was extended on it.

A cache that a later version adds at module or class level, or a lazily
extended structure inside an engine, therefore fails the run loudly
instead of turning a cold workload warm.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import traceback
from collections import deque
from types import FunctionType, ModuleType

_MUTABLE = (dict, list, set, bytearray, deque)


class ColdStateError(RuntimeError):
    """An operation would have started from state an earlier one left."""


def library_modules(package: str = "tracezero") -> list[ModuleType]:
    return sorted(
        (m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")),
        key=lambda m: m.__name__,
    )


class ColdRegistry:
    """Caches and containers of the library; the baseline is taken with
    every cache empty, right after import in a benchmark run."""

    def __init__(self, modules: list[ModuleType]):
        self.caches = {}  # name -> lru-cache object
        self.containers = {}  # name -> mutable container
        for mod in modules:
            self._scan(mod.__name__, vars(mod), mod.__name__)
        self.clear()
        self.baseline = self.fingerprint()

    def _scan(self, prefix: str, namespace: dict, module_name: str):
        for name, obj in namespace.items():
            if name.startswith("__"):
                continue
            key = f"{prefix}.{name}"
            if callable(getattr(obj, "cache_clear", None)) and callable(
                getattr(obj, "cache_info", None)
            ):
                self.caches[key] = obj
            elif isinstance(obj, _MUTABLE):
                self.containers[key] = obj
            elif isinstance(obj, type) and obj.__module__ == module_name:
                self._scan(key, vars(obj), module_name)

    def clear(self):
        for cache in self.caches.values():
            cache.cache_clear()

    def fingerprint(self) -> dict:
        out = {k: c.cache_info().currsize for k, c in self.caches.items()}
        out.update((k, len(c)) for k, c in self.containers.items())
        return out

    def assert_cold(self):
        now = self.fingerprint()
        warm = {k: (self.baseline[k], v) for k, v in now.items() if v != self.baseline[k]}
        if warm:
            raise ColdStateError(f"library state differs from import time: {warm}")


def object_size(obj) -> int:
    """Total length of every container reachable from obj (instances, slots,
    dicts, lists, tuples, sets); a size fingerprint of lazily grown state."""
    seen = set()
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (int, float, str, bytes, bool, type(None))):
            continue
        if isinstance(o, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(o))
        if isinstance(o, dict):
            total += len(o)
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset, deque)):
            total += len(o)
            stack.extend(o)
        else:
            size = getattr(o, "size", None)  # numpy arrays
            if isinstance(size, int):
                total += size
            d = getattr(o, "__dict__", None)
            if isinstance(d, dict):
                stack.append(d)
            for cls in type(o).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(o, slot):
                        stack.append(getattr(o, slot))
    return total


def run_forked(fn, *args) -> dict:
    """Run fn(*args) in a forked child and return the dict it returned.

    The parent waits for the child before returning, so at most one
    process works at a time.  A failure in the child comes back as
    {"ok": False, "error": traceback}.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # The child's collector never walks the parent's objects (such as the
    # records of earlier operations), as in a fresh interpreter.
    gc.freeze()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        code = 1
        try:
            os.close(r)
            try:
                payload = {"ok": True, **fn(*args)}
            except Exception:
                payload = {"ok": False, "error": traceback.format_exc()}
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(payload).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"ok": False, "error": f"child exited with status {status} and no result"}
    return json.loads(data)


def prepare_parent():
    """Collect the parent's garbage once; call after set-up, before the
    measured window, so children do not inherit it."""
    gc.collect()
