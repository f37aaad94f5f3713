"""Name of the arithmetic backend, recorded with benchmark results.

There is one backend: the pure-Python exact arithmetic in ``linalg``,
``tensors`` and ``finalg``.
"""

BACKEND = "pure"
