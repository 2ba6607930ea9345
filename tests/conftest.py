import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bhlab.arith import von_mangoldt_table
from bhlab.poly import IntPolynomial

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def lam_table_1e6():
    return von_mangoldt_table(10**6)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def bits(value):
    """The float64 bit pattern of value, for bit-for-bit comparisons."""
    return np.float64(value).view(np.uint64)


def random_polynomial(rng, d, H, positive=False):
    """Uniform draw from the degree-d height-H family.

    positive=True shifts the constant term up so every value on m >= 1
    is positive.
    """
    coeffs = list(rng.integers(-H, H + 1, size=d))
    coeffs.append(int(rng.integers(1, H + 1)))
    if positive:
        coeffs[0] = abs(coeffs[0]) + (d + 1) * H * 20**d + 1
    return IntPolynomial(tuple(int(c) for c in coeffs))


def residue_scan(coeffs, ell):
    """Reference w_P(l): P evaluated at every residue mod l (int64 Horner
    on coefficients reduced exactly), l < 2**31."""
    r = np.arange(ell, dtype=np.int64)
    acc = np.zeros(ell, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * r + c % ell) % ell
    return int(np.count_nonzero(acc == 0))


def fresh_python(code, openblas_threads=None):
    """Standard output of `code` run by a fresh interpreter that imports
    bhlab from the source tree, with OPENBLAS_NUM_THREADS unset, or set to
    openblas_threads.  This process has loaded bhlab, which set the
    variable, so the child's environment drops it first."""
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout
