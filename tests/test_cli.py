import json
import os
import subprocess
import sys

import pytest

from quasihopf import cli, serialize
from quasihopf.actions import LeftModuleAlgebra
from quasihopf.cli import main

from conftest import entry


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


def test_construct_mismatched_parents(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    serialize.save_document(serialize.to_document(entry("QZ2")["module"]),
                            str(a))
    serialize.save_document(serialize.to_document(
        entry("Sweedler4")["bicomodule"]), str(b))
    assert main(["construct", "gen-smash", str(a), str(b),
                 "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("name", ["four-diagonal-isos", "yd-roundtrip",
                                  "quantum-double-smash", "sec8",
                                  "hausser-nill"])
def test_theorem_commands_qz2(name, capsys):
    assert main(["theorem", name, "QZ2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_theorem_twist_invariance(capsys):
    assert main(["theorem", "twist-invariance", "QZ2"]) == 0


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
