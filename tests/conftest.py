"""Pytest set-up shared by the test modules."""

import platform

import numpy as np


def pytest_report_header(config):
    """The builds the byte pins depend on: Python, numpy and its BLAS.

    Every ``witness`` pin was recorded on one numpy and OpenBLAS build, and
    an OpenBLAS built with DYNAMIC_ARCH picks its kernels per CPU, so a pin
    that fails on another host is read against these lines.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return [
        f"python {platform.python_version()}, numpy {np.__version__}",
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"configuration: {blas.get('openblas configuration', 'not reported')}",
    ]
