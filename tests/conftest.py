"""Pytest set-up shared by the test modules."""

import platform

import numpy as np
from hypothesis import settings

from helpers import openblas_core, openblas_threads

# Every property test is deterministic: the same examples on every run, with
# no wall-clock deadline and no example database carried between runs.  A
# test's own ``@settings`` sets only its ``max_examples``.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_report_header(config):
    """The builds the byte pins depend on: Python, numpy, its SIMD targets
    and its BLAS.

    Every ``witness`` pin was recorded on one numpy and OpenBLAS build, and
    both pick kernels per CPU: numpy dispatches its float64 loops (``tanh``
    and ``exp`` among them) to the best SIMD target the CPU has, and an
    OpenBLAS built with DYNAMIC_ARCH picks its core.  So a pin that fails on
    another host is read against these lines.  The SIMD line gives the
    build's baseline and the targets found on this CPU; the BLAS build
    string names the build's target, the run-time core the kernels in use,
    and the thread count how many threads split a product.  Each pin table
    stores the build it was recorded on, and a failing pin names that build
    and this one (``helpers.assert_pinned``).
    """
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"].get("blas", {})
    simd = build.get("SIMD Extensions", {})
    return [
        f"python {platform.python_version()}, numpy {np.__version__}",
        f"numpy SIMD baseline: {' '.join(simd.get('baseline', [])) or 'none'}, "
        f"dispatched: {' '.join(simd.get('found', [])) or 'none'}",
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"configuration: {blas.get('openblas configuration', 'not reported')}, "
        f"run-time core: {openblas_core()}, threads: {openblas_threads()}",
    ]
