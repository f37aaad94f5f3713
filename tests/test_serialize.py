import json
import time
from operator import attrgetter

import pytest

from quasihopf import serialize
from quasihopf.actions import BimoduleAlgebra, LeftModuleAlgebra
from quasihopf.coactions import BicomoduleAlgebra
from quasihopf.fields import GF, QQ
from quasihopf.quasihopf import QuasiHopfAlgebra
from quasihopf.serialize import (KINDS, DocumentError, field_from_json,
                                 field_to_json, from_document, load_structure,
                                 map_from_json, map_to_json, save_document,
                                 tensor_from_json, tensor_to_json,
                                 to_document)

from conftest import entries, entry


def test_field_json():
    assert field_to_json(QQ) == "Q"
    assert field_to_json(GF(7)) == {"Fp": 7}
    assert field_from_json("Q") == QQ
    assert field_from_json({"Fp": 5}) == GF(5)
    with pytest.raises(DocumentError):
        field_from_json("R")
    with pytest.raises(DocumentError):
        field_from_json({"Fp": 6})


@pytest.mark.parametrize("name", entries())
def test_quasi_hopf_roundtrip_bit_exact(name):
    Hq = entry(name)["H"]
    doc = to_document(Hq)
    back = from_document(doc)
    assert isinstance(back, QuasiHopfAlgebra)
    assert back.H.mul == Hq.H.mul
    assert back.H.unit == Hq.H.unit
    assert back.Delta == Hq.Delta
    assert back.counit == Hq.counit
    assert back.Phi == Hq.Phi
    assert back.PhiInv == Hq.PhiInv
    assert back.S == Hq.S
    assert back.alpha == Hq.alpha
    assert back.beta == Hq.beta
    # the document survives a JSON text trip unchanged
    assert json.loads(json.dumps(doc)) == doc


# a fixed sample, no property of H: a trivial, a rational and a mod-p
# associator
@pytest.mark.parametrize("name", ["QZ2", "H2", "FpZn(7,3)"])
def test_dependent_structures_roundtrip(name):
    st = entry(name)
    Am, Ab, Du = st["module"], st["bicomodule"], st["dual"]
    back = from_document(to_document(Am))
    assert isinstance(back, LeftModuleAlgebra)
    assert back.action == Am.action and back.A.mul == Am.A.mul
    back = from_document(to_document(Du))
    assert isinstance(back, BimoduleAlgebra)
    assert back.left == Du.left and back.right == Du.right
    back = from_document(to_document(Ab))
    assert isinstance(back, BicomoduleAlgebra)
    assert back.lam == Ab.lam and back.rho == Ab.rho
    assert back.PhiLR == Ab.PhiLR
    assert back.left.PhiLam == Ab.left.PhiLam
    assert back.right.PhiRho == Ab.right.PhiRho


def test_one_sided_comodule_roundtrip():
    Ab = entry("H2")["bicomodule"]
    back = from_document(to_document(Ab.left))
    assert back.lam == Ab.left.lam and back.PhiLam == Ab.left.PhiLam
    back = from_document(to_document(Ab.right))
    assert back.rho == Ab.right.rho and back.PhiRho == Ab.right.PhiRho


def test_tensor_and_map_json():
    Hq = entry("Sweedler4")["H"]
    arr = tensor_to_json(Hq.Phi)
    assert tensor_from_json(QQ, (4, 4, 4), arr) == Hq.Phi
    arr = map_to_json(Hq.Delta)
    assert map_from_json(QQ, (4,), (4, 4), arr) == Hq.Delta
    arr = map_to_json(Hq.counit)
    assert map_from_json(QQ, (4,), (), arr) == Hq.counit


def test_parent_by_path(tmp_path):
    st = entry("H2")
    hpath = tmp_path / "h.json"
    save_document(to_document(st["H"]), str(hpath))
    doc = to_document(st["module"], parent="h.json")
    mpath = tmp_path / "m.json"
    save_document(doc, str(mpath))
    back = load_structure(str(mpath), check=True)
    assert back.action == st["module"].action


def test_malformed_documents():
    with pytest.raises(DocumentError):
        from_document({"kind": "nonsense"})
    with pytest.raises(DocumentError):
        from_document({"kind": "algebra", "field": "Q", "dim": 0,
                       "mul": [], "unit": []})
    Hq = entry("QZ2")["H"]
    doc = to_document(Hq)
    doc["phi"][0][0][0] = "not-a-number"
    with pytest.raises(DocumentError):
        from_document(doc)
    doc = to_document(Hq)
    del doc["coproduct"]
    with pytest.raises(DocumentError):
        from_document(doc)
    doc = to_document(Hq)
    doc["mul"][0] = doc["mul"][0][:1]
    with pytest.raises(DocumentError):
        from_document(doc)
    # a modulus or dimension that is not a JSON integer, even one that
    # would coerce to a valid one
    alg = to_document(entry("FpZn(5,2)")["H"].H)
    for field in (5.9, " 5 ", float("inf"), True, "5"):
        with pytest.raises(DocumentError, match="bad field"):
            from_document(dict(alg, field={"Fp": field}))
    for dim in (True, 2.0, "2"):
        with pytest.raises(DocumentError, match="bad dim"):
            from_document(dict(alg, dim=dim))


def test_load_errors(tmp_path):
    with pytest.raises(DocumentError):
        load_structure(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(DocumentError):
        load_structure(str(bad))
    # Latin-1 bytes in a name
    bad.write_bytes(b'{"kind": "algebra", "name": "\xe9"}')
    with pytest.raises(DocumentError, match="not UTF-8"):
        load_structure(str(bad))


def test_check_on_load_catches_bad_structure():
    Hq = entry("QZ2")["H"]
    doc = to_document(Hq)
    doc["phi"][0][0][0] = "2"
    # loads without check, fails verification with check
    from_document(doc, check=False)
    with pytest.raises(Exception):
        from_document(doc, check=True)


# -- the parse phase ---------------------------------------------------------

@pytest.mark.parametrize("text", ["1/0", "", "/3", "3/", "1.5", "1e3", "1_0"])
def test_bad_scalar_in_a_document(text):
    doc = to_document(entry("H2")["module"])
    doc["action_left"][1][0][1] = text
    with pytest.raises(DocumentError, match="bad rational scalar"):
        from_document(doc)


def test_huge_exponent_scalar_is_refused_at_once():
    doc = to_document(entry("H2")["H"])
    doc["unit"][0] = "1e10000000"
    t0 = time.perf_counter()
    with pytest.raises(DocumentError, match="bad rational scalar"):
        from_document(doc)
    assert time.perf_counter() - t0 < 1.0


def test_scalar_type_and_shape_errors_name_the_index():
    doc = to_document(entry("H2")["H"])
    doc["phi"][1][0][1] = 3
    with pytest.raises(DocumentError, match=r"scalar expected at \(1, 0, 1\), "
                       "got int"):
        from_document(doc)
    doc = to_document(entry("H2")["H"])
    doc["phi"][1][1] = ["0"]
    with pytest.raises(DocumentError, match=r"length 2 expected at \(1, 1\)"):
        from_document(doc)


def test_document_error_comes_before_a_mathematical_one():
    # a singular associator in the parent, which the quasi-Hopf
    # constructor refuses, and a bad scalar in the module's action
    doc = to_document(entry("H2")["module"])
    doc["parent"]["phi"] = [[["0", "0"], ["0", "0"]]] * 2
    with pytest.raises(ValueError, match="not invertible"):
        from_document(doc)
    doc["action_left"][0][0][0] = "x"
    with pytest.raises(DocumentError, match="bad rational scalar 'x'"):
        from_document(doc)


def _same_structure(a, b, kind):
    """``a`` and ``b`` hold equal integer forms of every array of ``kind``,
    their algebras and, for a dependent kind, their parents'."""
    _, alg, arrays = KINDS[kind]
    pick = attrgetter(alg) if alg else (lambda x: x)
    assert type(a) is type(b)
    assert pick(a) == pick(b)
    assert pick(a).name == pick(b).name
    for _, attr, _, _ in arrays:
        assert attrgetter(attr)(a) == attrgetter(attr)(b)
    if kind not in ("quasi-hopf", "algebra"):
        _same_structure(a.Hq, b.Hq, "quasi-hopf")


@pytest.mark.parametrize("what", ["H", "module", "bicomodule", "dual"])
@pytest.mark.parametrize("name", entries())
def test_export_load_export_is_byte_identical(tmp_path, name, what):
    obj = entry(name)[what]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_document(to_document(obj), str(first))
    back = load_structure(str(first))
    save_document(to_document(back), str(second))
    assert first.read_bytes() == second.read_bytes()
    _same_structure(back, obj, to_document(obj)["kind"])
