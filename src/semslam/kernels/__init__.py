"""Hot numeric kernels: assignment, systematic resampling, RANSAC consensus.
One numpy path; `_impl.py` says how each one relates to its scalar reference."""

from ._impl import BIG, lap_solve, ransac_best_mask, systematic_resample

__all__ = ["lap_solve", "systematic_resample", "ransac_best_mask", "BIG"]
