"""Test-session setup shared by every test module."""

import os

# One BLAS thread: unpinned OpenBLAS stalls on small matrices whenever
# another process keeps a core busy, and the acceptance tests have
# wall-clock bounds. Set before any test module imports numpy or scipy;
# the golden digests are the same pinned and unpinned.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
