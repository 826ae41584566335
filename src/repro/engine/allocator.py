"""glibc malloc settings of an engine process (DESIGN.md §19).

A resampling wave allocates a handful of ``(256, n)`` float64 arrays.
Under glibc's default, dynamic thresholds a process that has never freed a
large block maps, unmaps or trims them at the end of every wave and faults
them in again on the next: ~1,500 minor faults a wave at ``n = 1000``.
:func:`pin_thresholds` fixes both thresholds at the ceilings glibc's own
adjustment reaches.  The price is that the process keeps up to 64 MiB of
what it frees resident, which a worker forked from it would start with, so
:func:`release_free_heap` hands that back before a fleet forks.  Both do
nothing where the C library is not glibc.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Any

#: glibc ``mallopt`` parameter numbers (``malloc.h``)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
#: glibc's ceilings for the thresholds it raises as a process frees large
#: blocks (64-bit): an allocation below 32 MiB comes from the heap, and the
#: heap keeps up to 64 MiB free at its top
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _glibc(name: str, argtypes: tuple) -> Any:
    """The C library's ``int name(argtypes)``, or None if it has none."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):  # pragma: no cover - not glibc
        return None
    function.argtypes, function.restype = argtypes, ctypes.c_int
    return function


@functools.cache
def pin_thresholds() -> None:
    """Fix this process's mmap and trim thresholds, once; forks inherit them."""
    mallopt = _glibc("mallopt", (ctypes.c_int, ctypes.c_int))
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def release_free_heap() -> None:
    """Hand this process's free heap pages back to the kernel.

    Called before a fleet forks: after a pinned driver freed a 24 MB
    temporary, the fleet forked next peaked at 97 MiB a worker without this
    call and 51 MiB with it.
    """
    malloc_trim = _glibc("malloc_trim", (ctypes.c_size_t,))
    if malloc_trim is not None:
        malloc_trim(0)
