"""Pin BLAS to one thread for the test session.

numpy reads these variables once, on its first import, which comes after
this file loads. The script subprocesses the tests start inherit them.
With a BLAS thread per core, ``tests/test_oracle.py`` took more than twice
as long beside one busy core; with one thread it barely slows down.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
