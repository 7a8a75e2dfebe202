"""Hot numeric kernels: assignment, systematic resampling, RANSAC consensus.

One numpy path (`_impl.py`). Each kernel replaces a scalar loop, kept in
tests/conftest.py as its reference, and returns that loop's outputs bit
for bit (resampling differs only at u0 == 0, where the loop was wrong).
"""

from ._impl import BIG, lap_solve, ransac_best_mask, systematic_resample

__all__ = ["lap_solve", "systematic_resample", "ransac_best_mask", "BIG"]
