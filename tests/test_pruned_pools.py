"""Pools of the pruned search as element masks: a bound row is built once
per (value, direction) key, and a pool of at most one element is bounded
by one ``leq`` call without a row."""

import pytest

from palgebra import qb_quasi_identity
from palgebra.decide import _quasi_pruned

from .helpers import ref_quasi_pruned
from .test_pruned_replay import ALGEBRAS, CountingLeq


@pytest.mark.parametrize("spec", ["free:2,2", "free:3,2", "free:4,2"])
def test_qb3_builds_each_row_once(spec):
    A, ref = CountingLeq(ALGEBRAS[spec]), CountingLeq(ALGEBRAS[spec])
    q = qb_quasi_identity(3)
    assert _quasi_pruned(q, A, (1, 2, 3)) == ref_quasi_pruned(q, ref, (1, 2, 3))
    assert A.calls <= 20 * A.size < ref.calls


@pytest.mark.parametrize("spec", ["free:2,2", "free:3,2", "free:4,2"])
def test_qb2_builds_no_row(spec):
    A = CountingLeq(ALGEBRAS[spec])
    v = _quasi_pruned(qb_quasi_identity(2), A, (1, 2))
    assert v == ref_quasi_pruned(qb_quasi_identity(2), ALGEBRAS[spec], (1, 2))
    assert A.calls < A.size  # a row takes |A| calls
