"""Shared fixtures."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from normgrad.bench import run_suites


def openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs, as OpenBLAS names it (e.g.
    'SkylakeX'), or 'unknown' if the library or its query is missing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


@pytest.fixture(scope="session")
def kernel_note() -> str:
    """For the failure message of a golden test: np.dot and np.vecdot round
    differently under other kernels than the references were written under."""
    return ("the references in perfbench/reference were written under the SkylakeX "
            f"OpenBLAS kernel; this run uses {openblas_kernel()}")


@pytest.fixture(scope="session")
def default_check() -> list:
    """The results of all ten suites at the default check (10^4 samples,
    seed 0), run once for every test that compares them with the
    reference report."""
    return run_suites(None, 10_000, 0)
