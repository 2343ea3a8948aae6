"""Session setup that has to run before numpy is imported.

numpy's OpenBLAS picks its kernels by CPU at load time, and its reductions
round differently from one kernel family to another: the finite-N digests
pinned in test_exact.py and test_acceptance.py come out one way under the
SkylakeX (AVX-512) kernels and another under the Haswell kernels, which
OpenBLAS also runs on Zen.  On x86-64 the suite therefore asks OpenBLAS for
its Haswell kernels, which every AVX2 CPU runs, so that the pins hold on any
such machine.  The thread count changes the rounding too (a warm ladder
pinned in test_exact.py comes out one way on one thread and another on two
or more), so the suite runs OpenBLAS on one thread, which every runner has.
pytest loads this file before any test module, and no plugin of the test
environment imports numpy earlier.
"""

import os
import platform

os.environ["OPENBLAS_NUM_THREADS"] = "1"
if platform.machine().lower() in ("x86_64", "amd64"):
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"
