"""One fresh-interpreter probe, printed as one JSON line:

* ``t1``, ``t2``, ``t3``: ``time.monotonic()`` after ``import numpy``,
  after ``import ptbath.cli`` and after ``build_parser()`` returned; the
  caller subtracts its own clock at spawn to get the set-up time;
* ``env``: nproc, Python, numpy, the BLAS library and its thread count.

The probe runs in its own interpreter so that the benchmark's own process
never imports numpy and its memory does not leak into the peak RSS of the
processes it spawns (a child's ``ru_maxrss`` starts at its parent's).

    PYTHONPATH=src python3 ptbench/probe.py
"""

import time

import numpy

t1 = time.monotonic()
import ptbath.cli  # noqa: E402

t2 = time.monotonic()
ptbath.cli.build_parser()
t3 = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402


def blas_threads():
    """Ask the loaded OpenBLAS itself."""
    with open("/proc/self/maps") as fh:
        libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read()))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name, "blas_threads": blas_threads()}


print(json.dumps({"t1": t1, "t2": t2, "t3": t3, "env": environment()}))
