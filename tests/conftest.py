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


def numpy_dispatch() -> str:
    """The SIMD targets numpy dispatches its loops to on this CPU: those of
    numpy's dispatch list that the CPU supports, space separated (e.g.
    'X86_V3 X86_V4'), 'none' if it supports none, or 'unknown' if numpy
    does not say."""
    try:
        from numpy._core import _multiarray_umath as umath
        found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    except (ImportError, AttributeError):
        return "unknown"
    return " ".join(found) or "none"


@pytest.fixture(scope="session")
def kernel_note() -> str:
    """For the failure message of a golden test: np.dot and np.vecdot round
    differently under other OpenBLAS kernels, and np.exp under other numpy
    dispatch targets, than the references were written under."""
    return ("the references in perfbench/reference were written under the SkylakeX "
            "OpenBLAS kernel and numpy's X86_V3 X86_V4 AVX512_ICL AVX512_SPR dispatch "
            f"targets; this run uses the {openblas_kernel()} kernel and {numpy_dispatch()}")


@pytest.fixture(scope="session")
def default_check() -> list:
    """The results of all ten suites at the default check (10^4 samples,
    seed 0), run once for every test that compares them with the
    reference report."""
    return run_suites(None, 10_000, 0)
