"""Machine block recorded with every benchmark result."""

import ctypes
import os
import platform

import numpy as np
import scipy

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads")
_CONFIG_QUERIES = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _loaded_blas():
    """Runtime thread count and config string of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for name in _THREAD_QUERIES:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                entry["threads"] = int(fn())
                break
        for name in _CONFIG_QUERIES:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                entry["config"] = fn().decode("ascii", "replace").strip()
                break
        out.append(entry)
    return out


def machine_info(blas_env):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_env": {k: os.environ.get(k) for k in blas_env},
        "blas_runtime": _loaded_blas(),
    }
