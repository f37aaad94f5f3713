"""``corpus.structures``: a read-only mapping whose structures are built,
each by the module behind it, on their first read."""

import json
import os
import subprocess
import sys
from collections.abc import Mapping

import pytest

from quasihopf import corpus, ydrep
from quasihopf.actions import LeftModuleAlgebra
from quasihopf.finalg import VerificationError

from conftest import doubled_column

KEYS = ["H", "module", "bicomodule", "dual", "coalgebra"]
ADJOINT = corpus.adjoint_module_algebra


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is recorded with its first
    argument; return the list of those arguments."""
    calls, build = [], getattr(module, name)

    def counted(arg, check=True):
        calls.append(arg)
        return build(arg, check=check)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_keys_in_order_without_building(monkeypatch):
    calls = _counting(monkeypatch, corpus, "adjoint_module_algebra")
    st = corpus.structures("H2", check=False)
    assert isinstance(st, Mapping) and not isinstance(st, dict)
    assert list(st) == list(st.keys()) == KEYS and len(st) == 5
    assert all(key in st for key in KEYS) and "other" not in st
    assert calls == []
    with pytest.raises(KeyError):
        st["other"]
    with pytest.raises(TypeError):
        st["H"] = None


def test_dict_and_items_hold_all_five():
    st = corpus.structures("FpZn(5,2)", check=False)
    assert list(dict(st)) == [key for key, _ in st.items()] == KEYS
    assert all(value is st[key] for key, value in st.items())
    assert dict(st) == dict(zip(KEYS, st.values()))


def test_a_value_is_built_once_and_kept(monkeypatch):
    calls = _counting(monkeypatch, corpus, "adjoint_module_algebra")
    st = corpus.structures("QZ2", check=False)
    module = st["module"]
    assert st["module"] is module and dict(st)["module"] is module
    assert calls == [st["H"]]
    # a second mapping builds its own
    assert corpus.structures("QZ2", check=False)["module"] is not module


def test_dual_builds_the_coalgebra_once(monkeypatch):
    calls = _counting(monkeypatch, ydrep, "regular_bimodule_coalgebra")
    duals = _counting(monkeypatch, ydrep, "dual_of_bimodule_coalgebra")
    st = corpus.structures("H2", check=False)
    st["dual"]
    coalgebra = st["coalgebra"]
    assert calls == [st["H"]] and duals == [coalgebra]


@pytest.mark.parametrize("name", ["NoSuchEntry", "FpZn(7)", "FpZn(131,65)"])
def test_an_unknown_name_raises_at_the_call(name):
    with pytest.raises(ValueError):
        corpus.structures(name)


def _broken_adjoint(Hq, check=True):
    """The adjoint module algebra with the action of e_1 on e_1 doubled."""
    Am = ADJOINT(Hq, check=False)
    return LeftModuleAlgebra(Hq, Am.A, doubled_column(Am.action, (1, 1)),
                             check=check)


def test_check_verifies_a_structure_on_its_first_read(monkeypatch):
    monkeypatch.setattr(corpus, "adjoint_module_algebra", _broken_adjoint)
    st = corpus.structures("QZ2")
    assert st["bicomodule"].Hq is st["H"]
    with pytest.raises(VerificationError):
        st["module"]
    # unchecked, the same builder gives the broken structure back
    bad = corpus.structures("QZ2", check=False)["module"]
    assert not bad.verify().ok


def test_reading_two_structures_imports_only_their_modules():
    # in a fresh interpreter, H and the bicomodule of FpZn(7,3) need no
    # module-algebra, product, isomorphism or Yetter-Drinfeld code; the
    # dual does
    src = os.path.dirname(os.path.dirname(os.path.abspath(corpus.__file__)))
    unread = ["quasihopf.ydrep", "quasihopf.products", "quasihopf.actions",
              "quasihopf.isomaps"]
    script = ("import json, sys\n"
              "from quasihopf import corpus\n"
              "st = corpus.structures('FpZn(7,3)')\n"
              "st['H'], st['bicomodule']\n"
              f"before = [m for m in {unread!r} if m in sys.modules]\n"
              "st['dual']\n"
              f"after = [m for m in {unread!r} if m in sys.modules]\n"
              "print(json.dumps([before, after]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert before == []
    assert after == ["quasihopf.ydrep", "quasihopf.products",
                     "quasihopf.actions"]
