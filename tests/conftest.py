"""Pytest set-up shared by the test modules."""

import ctypes
import platform
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The OpenBLAS core chosen at run time, as the loaded library names it.

    The library is found as ``benchmarks/run.py`` finds it, in the wheel's
    ``numpy.libs``; 'not reported' where there is none or it lacks the call.
    """
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "not reported"


def pytest_report_header(config):
    """The builds the byte pins depend on: Python, numpy and its BLAS.

    Every ``witness`` pin was recorded on one numpy and OpenBLAS build, and
    an OpenBLAS built with DYNAMIC_ARCH picks its kernels per CPU, so a pin
    that fails on another host is read against these lines.  The build
    string names the build's target; the run-time core names the kernels in
    use.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return [
        f"python {platform.python_version()}, numpy {np.__version__}",
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"configuration: {blas.get('openblas configuration', 'not reported')}, "
        f"run-time core: {openblas_core()}",
    ]
