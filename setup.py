"""Build script for the optional compiled kernel extension.

The package works without the extension (a pure-Python fallback is
selected at import time); building it just speeds up the matrix
kernels.
"""

from setuptools import setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/quasihopf/kernels/_fast.pyx"],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    ext_modules = []

setup(ext_modules=ext_modules)
