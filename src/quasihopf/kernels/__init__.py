"""Kernel selection: compiled extension when available, pure fallback.

Set ``QHF_PURE_KERNELS=1`` to force the pure-Python implementation.
"""

import os

if os.environ.get("QHF_PURE_KERNELS") == "1":
    from . import pure as impl
else:
    try:
        from . import _fast as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import pure as impl

BACKEND = impl.BACKEND
mat_mul = impl.mat_mul
mat_vec = impl.mat_vec
kron = impl.kron
bilinear = impl.bilinear

__all__ = ["BACKEND", "mat_mul", "mat_vec", "kron", "bilinear"]
