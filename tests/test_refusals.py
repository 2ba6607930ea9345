"""Refusals of bad input across the library, each with its own text."""

import pytest

from bhlab import budgets
from bhlab.arith import phi_table
from bhlab.eulerprod import reference_product, totient_ratio_sums
from bhlab.moments import bv_average
from bhlab.poly import IntPolynomial
from bhlab.sieve import build_brun_weights, neutralised_bounds


def _unequal_y():
    lower = build_brun_weights(6, 50, "lower")
    upper = build_brun_weights(6, 60, "upper")
    neutralised_bounds(IntPolynomial((1, 0, 1)), 6, lower, upper)


@pytest.mark.parametrize("call,env,message", [
    (lambda: phi_table(0), None, "limit must be >= 1"),
    (lambda: budgets.check("enumeration", 1, 10), "0",
     "BHLAB_BUDGET must be positive, got 0"),
    (lambda: totient_ratio_sums(0), None, "x must be >= 1, got 0"),
    (lambda: bv_average(0, 1), None, "X and Q must be >= 1"),
    (lambda: reference_product(1), None, "cutoff must exceed 1, got 1"),
    (_unequal_y, None, r"pass \(lower, upper\) weights built with equal y"),
], ids=["phi-table-0", "budget-0", "totient-sums-0", "bv-X-0",
        "reference-product-1", "neutraliser-unequal-y"])
def test_refused_with_its_message(monkeypatch, call, env, message):
    if env is not None:
        monkeypatch.setenv("BHLAB_BUDGET", env)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
