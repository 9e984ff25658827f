"""Recurrent-convolution networks with banked batch normalization.

Importing the package applies ``RCNET_THREADS``: each BLAS thread-count
variable below that is not already set takes its value, and a variable
the caller set keeps its own. The cap takes effect only if numpy is not
loaded yet, so this module imports no numpy; import submodules directly.
"""

import os

__version__ = "0.1.0"

if os.environ.get("RCNET_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["RCNET_THREADS"])
