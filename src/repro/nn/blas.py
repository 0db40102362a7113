"""Run numpy's OpenBLAS on the calling thread only.

The models multiply ``(nodes x hidden)`` by ``(hidden x hidden)``
matrices with hidden width 32, too small for BLAS helper threads to pay
off: on a 2-CPU x86 host a batched forward pass of four serve-mix
graphs took 20.8 ms single-threaded against 23.0 ms with OpenBLAS's
default two threads, at 1.00 against 1.48 cores busy.  OpenBLAS helpers
also busy-wait between calls, so in a process that runs forward passes
back to back beside solver threads they hold a core those threads need,
and throughput then follows how the host schedules the spinning
helpers.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` only when it is loaded, which
is whenever numpy is first imported, so the setting is made through the
library's own setter instead.  numpy's wheels bundle OpenBLAS under a
prefixed symbol name; the library is found among the process's mapped
files, which only Linux lists in ``/proc/self/maps``.  Anywhere else,
or with another BLAS, :func:`single_threaded` changes nothing.
"""

from __future__ import annotations

import ctypes
from typing import List

#: Thread-count setters of the OpenBLAS builds numpy links: a system
#: library, the ILP64 wheel build of numpy < 2, and the scipy-openblas
#: wheel builds (ILP64 and LP64) of numpy >= 2.
_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


def _mapped_openblas() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in fields[5].lower():
            paths.add(fields[5])
    return sorted(paths)


def single_threaded() -> bool:
    """Make every OpenBLAS numpy uses run on one thread.

    Process-wide and lasting.  Returns True when some library took the
    setting, False when none was found.
    """
    import numpy  # noqa: F401  (maps its BLAS into the process)

    took = False
    for path in _mapped_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                took = True
                break
    return took
