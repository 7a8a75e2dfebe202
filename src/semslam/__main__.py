"""`semslam` launcher (`python -m semslam`, the console script). BLAS reads
its thread count when numpy loads, and extra threads only slow the small
dense solves here, so it defaults them to one unless the caller set them."""

import os
import sys


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
