"""Shared test configuration: Hypothesis draws the same examples on every run,
and the Fox-minor reference for the Alexander polynomial is one fixture."""

import pytest
from hypothesis import settings

from knotlab.invariants import alexander_matrix
from knotlab.laurent import det_laurent

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def fox_minor():
    """Delta from the Fox minor of alexander_matrix without one column and one
    row: the reference the region-matrix Alexander polynomial is held to."""

    def minor(pd, column, row):
        rows = alexander_matrix(pd)
        kept = [[p for j, p in enumerate(r) if j != column] for i, r in enumerate(rows) if i != row]
        return det_laurent(kept).canonical()

    return minor
