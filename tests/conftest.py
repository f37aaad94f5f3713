import functools

import pytest

from quasihopf import corpus
from quasihopf.coactions import BicomoduleAlgebra, RightComoduleAlgebra
from quasihopf.linalg import flat_index, linmap_from_columns, unflatten
from quasihopf.tensors import TensorElt


@functools.lru_cache(maxsize=None)
def entry(name: str) -> dict:
    """Corpus entry with derived structures, built once per session."""
    return corpus.structures(name, check=False)


@pytest.fixture(scope="session")
def qz2():
    return entry("QZ2")


@pytest.fixture(scope="session")
def h2():
    return entry("H2")


@pytest.fixture(scope="session")
def sw4():
    return entry("Sweedler4")


@pytest.fixture(scope="session")
def fp52():
    return entry("FpZn(5,2)")


@pytest.fixture(scope="session")
def fp73():
    return entry("FpZn(7,3)")


def doubled_column(lm, key):
    """``lm`` with the image of the input basis tensor ``key`` doubled: a
    corrupted structure map for the witness tests.  A key that is no
    input basis tuple of ``lm`` raises ``KeyError``, and one whose image
    is zero ``ValueError``: doubling either would change nothing."""
    if not (isinstance(key, tuple) and len(key) == len(lm.in_dims)
            and all(0 <= i < d for i, d in zip(key, lm.in_dims))):
        raise KeyError(f"{key} is no input basis tuple of dims {lm.in_dims}")
    if not lm.cols[flat_index(lm.in_dims, key)]:
        raise ValueError(f"the image of {key} is zero")

    def image(f, col):
        t = TensorElt.from_num(lm.field, lm.out_dims, dict(col), lm.den)
        return (t.scale(2) if unflatten(lm.in_dims, f) == key else t).terms

    return linmap_from_columns(lm.field, lm.in_dims, lm.out_dims, {
        unflatten(lm.in_dims, f): image(f, col) for f, col in lm.cols.items()})


def sweedler_with_doubled_rho():
    """The Sweedler4 bicomodule algebra with rho(e_2) doubled."""
    Ab = entry("Sweedler4")["bicomodule"]
    right = RightComoduleAlgebra(Ab.Hq, Ab.A, doubled_column(Ab.rho, (2,)),
                                 Ab.right.PhiRho,
                                 PhiRhoInv=Ab.right.PhiRhoInv, check=False)
    return BicomoduleAlgebra(Ab.left, right, Ab.PhiLR, PhiLRInv=Ab.PhiLRInv,
                             check=False)


def corrupt_one(t):
    """``t`` with one added to its coefficient at the least index."""
    terms = dict(t.terms)
    idx = min(terms)
    terms[idx] += 1
    return TensorElt(t.field, t.dims, terms)
