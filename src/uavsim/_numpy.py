"""numpy as every uavsim module loads it: ``from ._numpy import np``.

numpy is imported here with ``OPENBLAS_NUM_THREADS=1`` set for that
import alone, unless the caller set a variable that OpenBLAS reads for
its thread count.  uavsim makes no BLAS call, and OpenBLAS sizes its pool
of worker threads when the library loads: starting an idle worker, which
spin-waits before it sleeps, took about 40% of ``import numpy`` on a
2-vCPU host.  Whichever uavsim module a caller imports first, numpy is
loaded this way, unless the caller imported numpy before uavsim.

``import_random`` imports ``numpy.random`` without mapping OpenSSL's
libcrypto, which uavsim never uses: ``numpy.random.bit_generator``
imports ``secrets``, which imports ``hmac``, and ``hmac`` and ``hashlib``
each import ``_hashlib``, which maps libcrypto (about 3.4 MB resident).
"""

import os
import sys

# OpenBLAS's thread-count variables, the first set one taking precedence.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")
if any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:  # child processes and os.environ see the caller's environment
        del os.environ["OPENBLAS_NUM_THREADS"]

# The modules that import ``_hashlib`` on the way to ``numpy.random``.
_HASHLIB_USERS = ("secrets", "hmac", "hashlib")


def import_random():
    """``numpy.random``, imported with ``_hashlib`` blocked, so that
    ``hmac`` and ``hashlib`` fall back to CPython's built-in hashes.

    The block lasts for this import only, and the ``secrets``, ``hmac``
    and ``hashlib`` that it loaded are then dropped from ``sys.modules``:
    a later import of any of them gets the OpenSSL-backed module.  No
    draw changes: numpy's unseeded entropy still comes from
    ``secrets.randbits``, that is ``random.SystemRandom``.  Where
    ``numpy.random`` or ``_hashlib`` is already loaded, this only returns
    ``numpy.random``.  A thread that imports ``hashlib`` during this
    import gets the fallback module.
    """
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        import numpy.random
        return numpy.random
    before = set(sys.modules)
    sys.modules["_hashlib"] = None  # ``import _hashlib`` raises ImportError
    try:
        import numpy.random
    finally:
        del sys.modules["_hashlib"]
        for name in _HASHLIB_USERS:
            if name not in before:
                sys.modules.pop(name, None)
    return numpy.random
