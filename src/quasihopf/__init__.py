"""Exact computational algebra for finite-dimensional quasi-Hopf algebras."""

from .fields import GF, QQ, Field

__all__ = [
    "Field", "QQ", "GF",
    "FinAlgebra", "Report", "VerificationError",
    "QuasiBialgebra", "QuasiHopfAlgebra",
]

__version__ = "0.1.0"


def __getattr__(name):
    """The algebra classes, imported on first use (the CLI may not)."""
    if name not in __all__[3:]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import finalg, quasihopf
    return getattr(finalg, name, None) or getattr(quasihopf, name)
