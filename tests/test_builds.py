"""Byte pins name the build they were recorded on, and the physics holds on
other OpenBLAS cores.

numpy's OpenBLAS is built with DYNAMIC_ARCH, and ``OPENBLAS_CORETYPE``
picks its kernels for one process.  Another core changes the bits of
``eigh`` and of the 4x4 products, so the byte pins hold on one build only;
the physics must agree across cores to roundoff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_pinned, build, physics_numbers

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_pin_mismatch_names_both_builds_and_digests():
    recorded_on = "numpy 1.0, SIMD none, blas none 0, core Katmai"
    with pytest.raises(AssertionError) as failure:
        assert_pinned("ab" * 32, "cd" * 32, recorded_on, "trace digest")
    message = str(failure.value)
    for part in ("trace digest", build(), recorded_on, "ab" * 32, "cd" * 32):
        assert part in message


@pytest.fixture(scope="module")
def in_process():
    return physics_numbers()


def _has_avx2() -> bool:
    found = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    return bool({"AVX2", "X86_V3"} & set(found))


@pytest.mark.parametrize("core", [
    pytest.param("Haswell", marks=pytest.mark.skipif(
        not _has_avx2(), reason="the Haswell kernels need AVX2")),
    "Prescott",
])
def test_physics_holds_on_another_blas_core(in_process, core):
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": core,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(TESTS), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", "import json, helpers; print(json.dumps(helpers.physics_numbers()))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    there = json.loads(proc.stdout)
    where = f"core {there['core']} against {in_process['core']}"
    sweep = np.abs(np.subtract(there["sweep"], in_process["sweep"])).max()
    assert sweep <= 1e-9, where
    for key in ("points", "windows"):
        gap = np.abs(np.subtract(there[key], in_process[key])).max()
        assert gap <= 1e-10, f"{key}: {where}"
