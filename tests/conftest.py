"""Set-up shared by the tests of the blocked basis reads."""

import numpy as np
import pytest

from rkhs_invlab import (build_power_law_problem, make_source_solution,
                         spectral_model)


@pytest.fixture
def small_blocks(monkeypatch):
    """A J = 40 model and its truth, with ``_BLOCK_CELLS`` cut to 3 points
    of it: 50 points are read in 16 blocks of 3 and a ragged one of 2.
    d = 1/4 keeps every empirical spectrum below 1, as Landweber needs."""
    monkeypatch.setattr(spectral_model, "_BLOCK_CELLS", 3 * 40 + 1)
    problem = build_power_law_problem(40, 2.0, 0.25)
    return problem, make_source_solution(problem, 1.0,
                                         np.arange(1, 41.0) ** -1.0)
