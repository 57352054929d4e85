"""Test-session setup: numpy's BLAS runs on one thread.

The suite makes many small matrix products, for which a BLAS thread pool
costs more than it saves.  The pool size is read once, when numpy loads,
so it is set here, before any test module imports numpy.  A value already
in the environment is kept.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
