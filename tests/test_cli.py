import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from quasihopf import cli, corpus, products, serialize
from quasihopf.actions import LeftModuleAlgebra
from quasihopf.cli import main
from quasihopf.coactions import BicomoduleAlgebra
from quasihopf.tensors import TensorElt

from conftest import corrupt_one, entry, sweedler_with_doubled_rho


@pytest.fixture()
def h2_files(tmp_path):
    st = entry("H2")
    paths = {}
    for key in ("H", "module", "bicomodule", "dual"):
        path = tmp_path / f"{key}.json"
        serialize.save_document(serialize.to_document(st[key]), str(path))
        paths[key] = str(path)
    return paths


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "QZ2" in out and "H2" in out


def test_corpus_export_and_verify(tmp_path, capsys):
    out = tmp_path / "h2.json"
    assert main(["corpus", "export", "H2", "--out", str(out)]) == 0
    assert main(["verify", str(out), "--suite=all"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_corpus_export_unknown_entry(tmp_path):
    out = tmp_path / "x.json"
    assert main(["corpus", "export", "NoSuch", "--out", str(out)]) == 2


def test_verify_missing_file():
    assert main(["verify", "/nonexistent/definition.json"]) == 2


def test_verify_corrupted_associator(tmp_path, capsys):
    doc = serialize.to_document(entry("H2")["H"])
    doc["phi"][0][0][0] = "7"
    path = tmp_path / "bad.json"
    serialize.save_document(doc, str(path))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "pentagon" in out


def _verify_all_json(tmp_path, capsys, doc):
    """{check name: failure list} of ``verify --suite=all --json
    --all-failures`` on ``doc``, which must fail; every per-basis line
    reads "{tag}: basis {idx}", whichever check made it."""
    path = tmp_path / "bad.json"
    serialize.save_document(doc, str(path))
    assert main(["verify", str(path), "--suite=all", "--json",
                 "--all-failures"]) == 1
    checks = {c["name"]: c["failures"]
              for c in json.loads(capsys.readouterr().out)["checks"]}
    lines = [line for failures in checks.values() for line in failures
             if "basis" in line]
    assert lines and all(re.fullmatch(r"[a-z/-]+: basis \((\d+, )*\d+,?\)",
                                      line) for line in lines)
    return checks


def test_verify_all_failures_in_one_format(tmp_path, capsys):
    # the Sweedler4 bicomodule with one entry of phi_rho changed
    doc = serialize.to_document(entry("Sweedler4")["bicomodule"])
    doc["phi_rho"][0][0][1] = "1"
    checks = _verify_all_json(tmp_path, capsys, doc)
    assert checks["axioms"] == [
        "right/coaction-coassociative: basis (2,)",
        "right/coaction-coassociative: basis (3,)",
        "right/coaction-pentagon", "right/associator-counit: slot 1"]
    assert checks["coaction translation elements"] == [
        "p-intertwiner: basis (2,)", "p-intertwiner: basis (3,)",
        "q-intertwiner: basis (2,)", "q-intertwiner: basis (3,)",
        "qp-cancel", "pq-cancel", "p-coproduct", "q-coproduct"]
    # the same bicomodule with rho(e_2) doubled: the coaction fails to be
    # an algebra map in the same format
    doc = serialize.to_document(entry("Sweedler4")["bicomodule"])
    doc["coaction_right"][2][2][2] = "2"
    checks = _verify_all_json(tmp_path, capsys, doc)
    assert checks["axioms"] == [
        f"right/coaction/multiplicative: basis ({i}, {j})"
        for i, j in ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2))] + [
        "right/coaction-coassociative: basis (1,)",
        "right/coaction-coassociative: basis (2,)",
        "right/coaction-counit: basis (2,)",
        "coactions-quasi-commute: basis (3,)"]


def test_verify_reports_twist_identities_of_a_doubled_associator(tmp_path,
                                                                 capsys):
    # with Phi doubled the Drinfeld twist f is not counit-normalised: the
    # twist identities fail as a report, not as an exception
    doc = serialize.to_document(entry("H2")["H"])
    doc["phi"] = [[[str(2 * Fraction(c)) for c in row] for row in plane]
                  for plane in doc["phi"]]
    path = tmp_path / "bad.json"
    serialize.save_document(doc, str(path))
    assert main(["verify", str(path), "--suite=all"]) == 1
    out, err = capsys.readouterr()
    assert "verification failed:" not in out + err
    twist = out.split("FAIL  twist identities\n")[1].splitlines()
    assert [line.strip() for line in twist] == [
        "twist-inverse: f f^{-1} != 1", "twist-inverse: f^{-1} f != 1",
        "twist-counit: first slot", "twist-counit: second slot",
        "twist-gamma", "twist-delta", "antipode-anticoalgebra: basis (0,)",
        "antipode-anticoalgebra: basis (1,)", "twisted-associator"]


def test_verify_singular_antipode(tmp_path, capsys):
    doc = serialize.to_document(entry("H2")["H"])
    doc["antipode"] = [["0", "0"], ["0", "0"]]
    path = tmp_path / "bad.json"
    serialize.save_document(doc, str(path))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "verification failed: antipode is not invertible"


def test_verify_json_output(tmp_path, capsys):
    path = tmp_path / "h.json"
    serialize.save_document(serialize.to_document(entry("QZ2")["H"]),
                            str(path))
    assert main(["verify", str(path), "--suite=all", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["pass"] is True
    assert any(c["name"] == "axioms" for c in parsed["checks"])


def test_verify_dependent_kinds(h2_files, capsys):
    for key in ("module", "bicomodule", "dual"):
        assert main(["verify", h2_files[key], "--suite=all"]) == 0


def test_construct_two_sided_smash_and_reverify(h2_files, tmp_path, capsys):
    # a right module file: reuse the bimodule's forgetful right action
    st = entry("H2")
    from quasihopf.actions import RightModuleAlgebra, trivial_right_action
    Hq = st["H"]
    Bm = RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                            check=False)
    bpath = tmp_path / "b.json"
    serialize.save_document(serialize.to_document(Bm), str(bpath))
    out = tmp_path / "prod.json"
    assert main(["construct", "two-sided-smash", h2_files["module"],
                 str(bpath), "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert doc["kind"] == "algebra"
    assert doc["dim"] == 8
    assert doc["provenance"]["construction"] == "two-sided-smash"
    assert len(doc["provenance"]["inputs"]) == 2
    assert all(len(i["sha256"]) == 64 for i in doc["provenance"]["inputs"])
    assert main(["verify", str(out)]) == 0


def test_construct_diag_and_quasi_smash(h2_files, tmp_path):
    out = tmp_path / "d.json"
    assert main(["construct", "diag-bowtie", h2_files["dual"],
                 h2_files["bicomodule"], "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    out2 = tmp_path / "qs.json"
    assert main(["construct", "quasi-smash", h2_files["bicomodule"],
                 h2_files["dual"], "--out", str(out2)]) == 0
    doc = json.load(open(out2))
    assert doc["kind"] == "module-algebra-left"
    assert main(["verify", str(out2)]) == 0


def test_construct_wrong_kind_or_count(h2_files, tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["construct", "smash", h2_files["dual"], "--out", out]) == 2
    assert main(["construct", "no-such", h2_files["dual"], "--out", out]) == 2
    assert main(["construct", "diag-bowtie", h2_files["dual"],
                 "--out", out]) == 2


def _with_parent_file(tmp_path, obj, doc_name, parent_name):
    """Save ``obj`` as ``doc_name`` naming its parent by the file
    ``parent_name``, and that parent there."""
    serialize.save_document(serialize.to_document(obj.Hq),
                            str(tmp_path / parent_name))
    serialize.save_document(serialize.to_document(obj, parent=parent_name),
                            str(tmp_path / doc_name))
    return str(tmp_path / doc_name)


def test_construct_builds_a_shared_parent_once(tmp_path, monkeypatch):
    st = entry("H2")
    a = _with_parent_file(tmp_path, st["module"], "a.json", "h.json")
    b = _with_parent_file(tmp_path, st["bicomodule"], "b.json", "h.json")
    built = []
    build = serialize.build

    def counting(parsed, *args, **kwargs):
        obj = build(parsed, *args, **kwargs)
        if parsed.kind == "quasi-hopf":
            built.append(obj)
        return obj

    monkeypatch.setattr(serialize, "build", counting)
    assert main(["construct", "gen-smash", a, b,
                 "--out", str(tmp_path / "x.json")]) == 0
    assert len(built) == 1
    # separate loads still build one parent each
    built.clear()
    serialize.load_structure(a)
    serialize.load_structure(b)
    assert len(built) == 2


def test_construct_parent_files_that_differ(tmp_path, capsys):
    a = _with_parent_file(tmp_path, entry("QZ2")["module"], "a.json",
                          "pa.json")
    b = _with_parent_file(tmp_path, entry("H2")["bicomodule"], "b.json",
                          "pb.json")
    assert main(["construct", "gen-smash", a, b,
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "inputs live over different quasi-Hopf algebras" \
        in capsys.readouterr().err


def test_construct_mismatched_parents(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    serialize.save_document(serialize.to_document(entry("QZ2")["module"]),
                            str(a))
    serialize.save_document(serialize.to_document(
        entry("Sweedler4")["bicomodule"]), str(b))
    assert main(["construct", "gen-smash", str(a), str(b),
                 "--out", str(tmp_path / "x.json")]) == 2


def test_construct_refuses_a_large_result_before_building(tmp_path, monkeypatch,
                                                        capsys):
    # over Sweedler4 the quasi-smash products are 16-dimensional, so both
    # three-factor constructions below would be 16 * 4 * 16 = 1024
    st = entry("Sweedler4")
    Ab, Du = st["bicomodule"], st["dual"]
    paths = []
    for key, obj in (("qa", products.quasi_smash(Ab, Du, check=False)),
                     ("ab", Ab),
                     ("qc", products.left_quasi_smash(Du, Ab, check=False))):
        path = tmp_path / f"{key}.json"
        serialize.save_document(serialize.to_document(obj), str(path))
        paths.append(str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("product built")

    monkeypatch.setattr(products, "two_sided_gen_smash", refuse)
    monkeypatch.setattr(products, "two_sided_smash", refuse)
    out = tmp_path / "x.json"
    for argv in (["two-sided-gen-smash"] + paths,
                 ["two-sided-smash", paths[0], paths[2]]):
        assert main(["construct"] + argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: result dimension 1024 exceeds the 64-dimensional "
            "envelope\n")
    assert not out.exists()


def test_large_cyclic_entry_refused_before_building(tmp_path, monkeypatch,
                                                    capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("associator built")

    monkeypatch.setattr(corpus, "cyclic_with_cocycle", refuse)
    out = tmp_path / "x.json"
    for argv in (["corpus", "export", "FpZn(181,180)", "--out", str(out)],
                 ["theorem", "hausser-nill", "FpZn(601,600)"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "exceeds the 64-dimensional envelope" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["four-diagonal-isos", "yd-roundtrip",
                                  "quantum-double-smash", "sec8",
                                  "hausser-nill"])
def test_theorem_commands_qz2(name, capsys):
    assert main(["theorem", name, "QZ2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_hausser_nill_label_is_the_product_dim(capsys):
    # the three-factor products over FpZn(5,2) have dimension 32
    assert main(["theorem", "hausser-nill", "FpZn(5,2)"]) == 0
    out = capsys.readouterr().out
    assert "three-factor coincidence (dim 32)" in out and "PASS" in out


# the first failure line of each theorem that reads the right coaction,
# on Sweedler4 with rho(e_2) doubled
CORRUPTED_RHO_FIRST_FAILURE = {
    "hausser-nill":
        "left-nested costructure: left/coaction/multiplicative: basis (0, 52)",
    "four-diagonal-isos": "bowtie->rbowtie: multiplicative: basis (0, 2)",
    "five-corollary":
        "diag->two-sided-smash: mu-rearrangement-2: basis (0, 1)",
    "yd-roundtrip": "action-associative: basis (0, 1, 2)",
}


@pytest.mark.parametrize("name", cli.THEOREMS)
def test_theorem_reports_a_corrupted_coaction(name, monkeypatch, capsys):
    # a broken entry is a failing report on stdout, never an error line,
    # and each failure names the identity that failed
    st = dict(entry("Sweedler4"), bicomodule=sweedler_with_doubled_rho())
    monkeypatch.setattr(corpus, "structures", lambda *args, **kwargs: st)
    code = main(["theorem", name, "Sweedler4", "--json"])
    out, err = capsys.readouterr()
    assert err == ""
    failures = json.loads(out)["checks"][0]["failures"]
    if name in CORRUPTED_RHO_FIRST_FAILURE:
        assert code == 1
        assert not {line.split(": ")[0] for line in failures} & {
            "four-diagonal-isos", "five-product-chain", "two-sided-smash"}
        assert failures[0] == CORRUPTED_RHO_FIRST_FAILURE[name]


@pytest.mark.parametrize("name", ["hausser-nill", "twist-invariance",
                                  "yd-roundtrip"])
def test_theorem_checks_the_gluing_element_it_reads(name, monkeypatch,
                                                    capsys):
    # one coefficient of PhiLR off by one and PhiLRInv left as it was: the
    # products read only PhiLRInv, so only the gluing check can tell
    Ab = entry("Sweedler4")["bicomodule"]
    bad = BicomoduleAlgebra(Ab.left, Ab.right, corrupt_one(Ab.PhiLR),
                            PhiLRInv=Ab.PhiLRInv, check=False)
    st = dict(entry("Sweedler4"), bicomodule=bad)
    monkeypatch.setattr(corpus, "structures", lambda *args, **kwargs: st)
    code = main(["theorem", name, "Sweedler4", "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    failures = json.loads(out)["checks"][0]["failures"]
    assert failures[:2] == ["gluing-inverse: PhiLR PhiLRInv != 1",
                            "gluing-inverse: PhiLRInv PhiLR != 1"]


# SHA-256 of each exported corpus document, recorded when the algebras
# still kept a dense table: exports must stay byte for byte the same
EXPORT_SHA256 = {
    ("QZ2", "H"):
        "cad2aa6c1205f3e4df0a706817e5a06fe2902b4b2a78c8faf8170f72c00b9b30",
    ("QZ2", "module"):
        "9e3a8ef02035582c56c1d767a9605b0e57b981012dccd64d2202b5e5cba9d2c8",
    ("QZ2", "bicomodule"):
        "2bf6708e2eb051683166f04a288377464a794d41da9d090c44800404cbf7a7a1",
    ("QZ2", "dual"):
        "e113f1dd4ab50c3042b2023c41affdaea54333067a7505e477d3f82350446b59",
    ("H2", "H"):
        "dd4e4a962ad9b2f34a921d05863cd37547a0340ac66b7b29ece9e96a623b23d8",
    ("H2", "module"):
        "d754be6223010490a56372ed63a954a48e18f4023013f3becde3b46a800b815c",
    ("H2", "bicomodule"):
        "9778e114111a711f6d766df638f1f9427192c6f50b535b15f2d5ffd3462424c0",
    ("H2", "dual"):
        "3a799d47c53f2a6f8e005a3a07bf04903cded9719543c6912f842033b5fe6c6b",
    ("Sweedler4", "H"):
        "4cc7a7375ada54344dacb1efb41626bc16b343332c448bdbd9def1ff0fe00c3c",
    ("Sweedler4", "module"):
        "e954c52e7d80d9534af42797a90cde67a54de863bdd90de588f5c20d1d7fe40e",
    ("Sweedler4", "bicomodule"):
        "422bd552b1fb2d7592e9b37d3bc8ff14f19286718861fae11fbabf7968ae0c38",
    ("Sweedler4", "dual"):
        "4ca021f78c88969c0f3088997ca26bd517b2633ed2fbceb41a8dd93082f9c421",
    ("FpZn(7,3)", "H"):
        "b9f704334aaa2466aec0b02996b4ed85ba94eb2eba024df8f38610d7e48be5d0",
    ("FpZn(7,3)", "module"):
        "0a53d6d5e8cb3c1ecd9080b76d106e59bab2d1d0048f0a115a9806c91c3c5d75",
    ("FpZn(7,3)", "bicomodule"):
        "79e36ce1279e836abb27dae71ae9943ceb106adff62b630a52c8575cb010c79a",
    ("FpZn(7,3)", "dual"):
        "9a9cd5b5a7464e147d0e15c5bf6be3110b0853d90f965473668778f1a3181911",
    ("FpZn(5,2)", "H"):
        "a47cf7069e9ddff43b86086f55ef57ffcd9c21c536717a15d29603ecd5cd1aa0",
    ("FpZn(5,2)", "module"):
        "4ad89aa82367d9c9b2f786310a936a5fbad4ba7d172498db0b29ac5d4835ea82",
    ("FpZn(5,2)", "bicomodule"):
        "ebb01f7011399396a7f8b9e9468de90958c7494de081adb278b6b0d180b62438",
    ("FpZn(5,2)", "dual"):
        "d6fa96987be1ca178f5a8f751161f034777c823cd909801020f83e7e14e09003",
}


@pytest.mark.parametrize("entry_name,what", sorted(EXPORT_SHA256))
def test_corpus_export_bytes_are_pinned(tmp_path, entry_name, what):
    out = tmp_path / "doc.json"
    assert main(["corpus", "export", entry_name, "--what", what,
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == EXPORT_SHA256[(entry_name, what)]


# SHA-256 of ``construct`` output, recorded when linear maps were still
# dense matrices: the module-algebra result serializes its action and the
# inlined parent's coproduct, counit and antipode through map_to_json
CONSTRUCT_SHA256 = {
    ("H2", "quasi-smash"):
        "9c54ed90b500ca2c1538cfc70d36a3d3742336a51c9dca8bc56674a3b86dfcb5",
    ("H2", "diag-bowtie"):
        "6ec9508ea92178bbc39e0ef011148cef3ee507685b524ccb9e92ec4b5f8b8836",
    ("FpZn(5,2)", "quasi-smash"):
        "ed226d785e83bf94caa56d963bff8668f181701cf132760dc31566533b1b2838",
    ("FpZn(5,2)", "diag-bowtie"):
        "70b12d92e483f6fd08ab6cf92b34ea243b20c85ceb825e59e91798ec445cf3aa",
    # the largest product the command scans (dim 64), recorded before the
    # scan packed its rows and before the pair programs' last step read
    # the rows directly
    ("Sweedler4", "gen-two-sided-crossed"):
        "3dd25d9073909bf46c6343fca9d7f4b4b48f5c8070e1e61a51fec956db0d5ec3",
}

CONSTRUCT_INPUTS = {
    "quasi-smash": ["bicomodule", "dual"],
    "diag-bowtie": ["dual", "bicomodule"],
    "gen-two-sided-crossed": ["bicomodule", "dual", "bicomodule"],
}


@pytest.mark.parametrize("entry_name,kind", sorted(CONSTRUCT_SHA256))
def test_construct_bytes_are_pinned(tmp_path, monkeypatch, entry_name, kind):
    # relative paths, so that the provenance does not name tmp_path
    monkeypatch.chdir(tmp_path)
    for what in ("bicomodule", "dual"):
        assert main(["corpus", "export", entry_name, "--what", what,
                     "--out", f"{what}.json"]) == 0
    inputs = [f"{what}.json" for what in CONSTRUCT_INPUTS[kind]]
    assert main(["construct", kind, *inputs, "--out", "out.json"]) == 0
    digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
    assert digest == CONSTRUCT_SHA256[(entry_name, kind)]


def test_theorem_twist_invariance(capsys):
    assert main(["theorem", "twist-invariance", "QZ2"]) == 0


@pytest.mark.parametrize("name", ["Sweedler4", "FpZn(7,3)"])
def test_theorem_twist_invariance_twists_by_a_gauge_that_moves_phi(name,
                                                                   capsys):
    # the default gauge is not 1x1 and changes the associator, so the
    # theorem compares products over two different quasi-Hopf algebras
    Hq = entry(name)["H"]
    F = cli._default_gauge(name, Hq)
    one = Hq.unit_elt()
    assert F != one.tensor(one) and cli._gauge_ok(Hq, F)
    assert Hq.twisted(F)[1].Phi != Hq.Phi
    assert main(["theorem", "twist-invariance", name]) == 0


def test_no_diagonal_gauge_moves_the_associator_of_fpzn52():
    # so its default gauge stays 1x1
    Hq = entry("FpZn(5,2)")["H"]
    for c in range(1, 5):
        F = TensorElt(Hq.field, (2, 2), {(0, 0): 1, (0, 1): 1, (1, 0): 1,
                                         (1, 1): c})
        assert Hq.twisted(F)[1].Phi == Hq.Phi
    one = Hq.unit_elt()
    assert cli._default_gauge("FpZn(5,2)", Hq) == one.tensor(one)


def test_theorem_unknown_name_and_entry():
    assert main(["theorem", "no-such-theorem", "QZ2"]) == 2
    assert main(["theorem", "sec8", "NoSuchEntry"]) == 2


def test_theorem_non_gauge_twist(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"field": "Q",
                             "tensor": [["1", "0"], ["0", "2"]]}))
    assert main(["theorem", "twist-invariance", "QZ2",
                 "--twist", str(f)]) == 2


# -- hostile documents: each must end in exit 2 with one line --------------

def _hostile_documents(module_doc, out_dir):
    """The hostile variants of a module-algebra document: a parent that
    names the file itself, a 20-digit prime field, a declared dimension
    of one million and a structure array cut short."""
    docs = {
        "cyclic-parent": dict(module_doc, parent="hostile-cyclic-parent.json"),
        "huge-prime": dict(module_doc["parent"], field={"Fp": 10 ** 19 + 51}),
        "huge-dim": dict(module_doc["parent"], dim=1000000),
        "truncated-array": dict(module_doc["parent"],
                                mul=module_doc["parent"]["mul"][:-1]),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = out_dir / f"hostile-{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def _verify_in_child(path):
    """Run ``quasihopf verify`` on ``path`` in a child process and check
    that it ends in exit 2 with one line on stderr; return that line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "quasihopf.cli", "verify", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    return proc.stderr.strip()


@pytest.mark.parametrize("name", ["cyclic-parent", "huge-prime", "huge-dim",
                                  "truncated-array"])
def test_hostile_document_exits_2(tmp_path, name):
    module_doc = serialize.to_document(entry("H2")["module"])
    _verify_in_child(_hostile_documents(module_doc, tmp_path)[name])


@pytest.mark.parametrize("name", ["scalar", "parent"])
def test_a_huge_value_gives_a_short_error_line(tmp_path, name):
    # a 1,000,000-character scalar in the unit, or a 200,000-element
    # parent list: each used to be echoed whole on the error line
    module_doc = serialize.to_document(entry("H2")["module"])
    doc = dict(module_doc["parent"], unit=["1" * 10 ** 6, "0"]) \
        if name == "scalar" else dict(module_doc, parent=list(range(200000)))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    line = _verify_in_child(path)
    assert len(line.encode()) + 1 <= 200
    assert line.startswith("error: bad rational scalar '111" if name ==
                           "scalar" else "error: bad parent [0, 1, 2")


@pytest.mark.parametrize("text, message", [
    ('{"kind": {}, "field": "Q", "dim": 1}', "unknown kind {}"),
    ('{"kind": ["algebra"], "field": "Q", "dim": 1}',
     "unknown kind ['algebra']"),
    ('{"kind": "algebra", "field": {"Fp": ' + "7" * 5000 + '}, "dim": 1}',
     "is not valid JSON: Exceeds the limit")],
    ids=["dict-kind", "list-kind", "5000-digit-integer"])
def test_unhashable_kind_or_overlong_integer_exits_2(tmp_path, text,
                                                    message):
    # these ended in a traceback, or in exit 1
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert message in _verify_in_child(path)


@pytest.mark.parametrize("key, value", [
    ("field", {"Fp": 5.9}), ("field", {"Fp": " 5 "}),
    ("field", {"Fp": float("inf")}), ("dim", True)])
def test_non_integer_field_or_dim_exits_2(tmp_path, key, value):
    # none of them is coerced: not to GF(5), and not to dimension 1
    doc = serialize.to_document(entry("FpZn(5,2)")["H"].H)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(doc, **{key: value})))
    assert f"bad {key}" in _verify_in_child(path)


@pytest.mark.parametrize("inline", [False, True])
def test_long_parent_chain_exits_2(tmp_path, inline):
    # 600 module-algebra documents, each naming the next as its parent,
    # either as 600 files or nested in one document
    module_doc = serialize.to_document(entry("H2")["module"])
    n = 600
    if inline:
        doc = module_doc["parent"]
        for _ in range(n):
            doc = dict(module_doc, parent=doc)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
    else:
        for i in range(n):
            par = f"m{i + 1}.json" if i + 1 < n else module_doc["parent"]
            (tmp_path / f"m{i}.json").write_text(
                json.dumps(dict(module_doc, parent=par)))
        path = tmp_path / "m0.json"
    assert "parent chain" in _verify_in_child(path)


def test_parent_of_a_parent_refused(tmp_path):
    module_doc = serialize.to_document(entry("H2")["module"])
    (tmp_path / "b.json").write_text(json.dumps(module_doc))
    (tmp_path / "a.json").write_text(
        json.dumps(dict(module_doc, parent="b.json")))
    assert isinstance(serialize.load_structure(str(tmp_path / "b.json")),
                      LeftModuleAlgebra)
    with pytest.raises(serialize.DocumentError, match="parent chain"):
        serialize.load_structure(str(tmp_path / "a.json"))


def test_deeply_nested_document_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    depth = 100000
    path.write_text('{"kind": "algebra", "field": "Q", "dim": 1, '
                    '"unit": ["1"], "mul": ' + "[" * depth + "]" * depth
                    + "}")
    assert "nested too deeply" in _verify_in_child(path)


def test_parent_cycle_through_two_files(tmp_path):
    module_doc = serialize.to_document(entry("H2")["module"])
    for here, there in (("a", "b"), ("b", "a")):
        (tmp_path / f"{here}.json").write_text(
            json.dumps(dict(module_doc, parent=f"{there}.json")))
    with pytest.raises(serialize.DocumentError, match="cyclic parent"):
        serialize.load_structure(str(tmp_path / "a.json"))


_ALGEBRA_MODULES = ("tensors", "finalg", "quasihopf", "actions", "coactions",
                    "corpus", "products")


@pytest.mark.parametrize("name", ["cyclic-parent", "huge-prime", "huge-dim",
                                  "truncated-array", "exponent"])
def test_refused_document_loads_no_algebra_module(tmp_path, name):
    # cli.main in a fresh interpreter: a document refused while it is
    # parsed ends in exit 2 before any algebra module is imported
    module_doc = serialize.to_document(entry("H2")["module"])
    paths = _hostile_documents(module_doc, tmp_path)
    paths["exponent"] = tmp_path / "exponent.json"
    paths["exponent"].write_text(json.dumps(
        dict(module_doc["parent"], unit=["1e10000000", "0"])))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import json, sys\n"
              "from quasihopf import cli\n"
              f"rc = cli.main(['verify', {str(paths[name])!r}])\n"
              "print(json.dumps([rc, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    rc, modules = json.loads(proc.stdout)
    assert rc == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not [m for m in _ALGEBRA_MODULES if f"quasihopf.{m}" in modules]


def test_document_error_wins_over_a_mathematical_one(tmp_path, capsys):
    # the parent's associator is singular and the action has a bad
    # scalar: the document error is found first, so the exit code is 2
    doc = serialize.to_document(entry("H2")["module"])
    doc["parent"]["phi"] = [[["0", "0"], ["0", "0"]]] * 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert "associator is not invertible" in capsys.readouterr().err
    doc["action_left"][0][0][0] = "1.5"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad rational scalar '1.5'\n"


def test_a_long_parent_path_gives_a_short_error_line(tmp_path):
    # a 100,000-character parent path used to be echoed whole, twice:
    # once in the message and once inside the OSError's text
    module_doc = serialize.to_document(entry("H2")["module"])
    path = tmp_path / "long.json"
    path.write_text(json.dumps(dict(module_doc, parent="p" * 10 ** 5)))
    line = _verify_in_child(path)
    assert len(line.encode()) + 1 <= 200
    assert line.startswith(f"error: cannot read {tmp_path}")
    assert line.endswith("...: " + os.strerror(errno.ENAMETOOLONG))


def test_parser_is_built_once_and_still_refuses_bad_usage(tmp_path, capsys):
    assert main(["corpus", "list"]) == 0
    built = cli.build_parser.cache_info()
    assert main(["theorem"]) == 2
    assert "usage: quasihopf theorem" in capsys.readouterr().err
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    assert main(["corpus", "list"]) == 0
    again = cli.build_parser.cache_info()
    assert (again.misses, again.currsize) == (built.misses, 1)
    assert again.hits == built.hits + 3
