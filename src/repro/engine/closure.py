"""Closure serialization for task binaries (a minimal cloudpickle).

Plain :mod:`pickle` serializes functions *by reference* (module +
qualname), which refuses lambdas, nested functions, and locally-defined
callables -- exactly the closures users write against the RDD API.  Spark
solves this with cloudpickle; this module implements the small core of
that idea with the stdlib only:

- functions that are importable by name still pickle by reference
  (cheap, and the worker picks up the *live* module object);
- anything else is serialized **by value**: the code object via
  :mod:`marshal`, plus defaults, closure-cell contents, and the referenced
  globals (captured recursively through the same pickler, so a lambda
  that calls another lambda works);
- modules pickle as an import-by-name stub.

Limits (documented, same shape as Spark's): marshal'd code objects only
load on the same interpreter version, and by-value capture copies
closed-over state -- mutating a captured list inside a worker does not
mutate the driver's list.  An identity-sensitive singleton must implement
``__reduce__`` to rebuild as the worker's own instance, since a by-value
copy is a new object.
"""

from __future__ import annotations

import builtins
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any

_CELL_EMPTY = "__repro_empty_cell__"


def _is_importable(obj: types.FunctionType) -> bool:
    """True when default by-reference pickling would find ``obj`` again."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        return False
    try:
        mod = sys.modules.get(module) or importlib.import_module(module)
        target: Any = mod
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return False
    return target is obj


def _referenced_global_names(code: types.CodeType) -> set[str]:
    """Global names a code object (and its nested code objects) can load."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_global_names(const)
    return names


def _import_module(name: str) -> types.ModuleType:
    return importlib.import_module(name)


def _make_cell(value: Any) -> types.CellType:
    if value == _CELL_EMPTY:
        return types.CellType()
    return types.CellType(value)


def _make_function(
    code_bytes: bytes,
    globals_map: dict,
    module: str,
    qualname: str,
    defaults: tuple | None,
    kwdefaults: dict | None,
    closure_values: tuple | None,
    fn_dict: dict,
) -> types.FunctionType:
    code = marshal.loads(code_bytes)
    g = {"__builtins__": builtins, "__name__": module}
    g.update(globals_map)
    closure = None
    if closure_values is not None:
        closure = tuple(_make_cell(v) for v in closure_values)
    fn = types.FunctionType(code, g, code.co_name, defaults, closure)
    fn.__qualname__ = qualname
    fn.__module__ = module
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    if fn_dict:
        fn.__dict__.update(fn_dict)
    return fn


class _ClosurePickler(pickle.Pickler):
    def reducer_override(self, obj):  # noqa: C901 - dispatch table
        if isinstance(obj, types.ModuleType):
            return (_import_module, (obj.__name__,))
        if isinstance(obj, types.FunctionType) and not _is_importable(obj):
            return self._reduce_function(obj)
        return NotImplemented

    def _reduce_function(self, fn: types.FunctionType):
        code = fn.__code__
        wanted = _referenced_global_names(code)
        globals_map = {
            name: value
            for name, value in fn.__globals__.items()
            if name in wanted
        }
        closure_values: tuple | None = None
        if fn.__closure__ is not None:
            vals = []
            for cell in fn.__closure__:
                try:
                    vals.append(cell.cell_contents)
                except ValueError:  # genuinely empty cell
                    vals.append(_CELL_EMPTY)
            closure_values = tuple(vals)
        return (
            _make_function,
            (
                marshal.dumps(code),
                globals_map,
                fn.__module__ or "",
                fn.__qualname__,
                fn.__defaults__,
                fn.__kwdefaults__,
                closure_values,
                dict(fn.__dict__),
            ),
        )


def dumps(obj: Any, protocol: int = pickle.HIGHEST_PROTOCOL) -> bytes:
    """Like ``pickle.dumps`` but with by-value closure support."""
    buf = io.BytesIO()
    _ClosurePickler(buf, protocol=protocol).dump(obj)
    return buf.getvalue()


loads = pickle.loads  # rebuilders above are plain importable callables


__all__ = ["dumps", "loads"]
