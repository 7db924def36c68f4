"""Session setup for every test under the repository root.

OpenBLAS starts one thread per core by default.  The suite makes many
small dense solves, and next to one other busy process on a 2-vCPU machine
the oversubscribed threads made the (6,6,3) full-rank test take 17.2 s
instead of 0.6 s.  The thread counts only take effect if they are set
before numpy is first imported, which is why this file checks for it.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin BLAS threads")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
