"""A golden transcript of the command line.

``transcript`` runs a fixed list of commands through ``cli.main`` in
one process, in a temporary directory: every corpus export and its
``verify --suite=all``, the constructions and theorems of the
benchmark's cli-session workload, four hostile documents and a few
usage errors.  Each record holds the command, its exit code, its
stdout and stderr with timings masked, and the SHA-256 of every
document it wrote.  The expected records in ``cli_transcript.json``
were taken before any of the code they cover was pruned; a refactor
must leave them unchanged.

To re-record (only when the command line is meant to change):
``PYTHONPATH=src python tests/test_cli_transcript.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys

from quasihopf import cli, corpus

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_transcript.json")

WHATS = ("H", "module", "bicomodule", "dual")
CONSTRUCTS = (("smash", ("module",)),
              ("gen-smash", ("module", "bicomodule")),
              ("diag-bowtie", ("dual", "bicomodule")),
              ("quasi-smash", ("bicomodule", "dual")),
              ("gen-two-sided-crossed", ("bicomodule", "dual", "bicomodule")))
_SECONDS = [(re.compile(r"\(\d+\.\d+s\)"), "(<s>)"),
            (re.compile(r"seconds: \d+(\.\d+)?"), "seconds: <s>"),
            (re.compile(r'"seconds": \d+(\.\d+)?'), '"seconds": <s>')]


def _mask(text: str) -> str:
    for pattern, repl in _SECONDS:
        text = pattern.sub(repl, text)
    return text


def _run(argv) -> dict:
    """One record: the command, its exit code, its masked output and the
    SHA-256 of the document named by ``--out``, when it was written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    written = {}
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                written[path] = hashlib.sha256(fh.read()).hexdigest()
    return {"argv": list(argv), "exit": rc, "stdout": _mask(out.getvalue()),
            "stderr": _mask(err.getvalue()), "written": written}


def _write_inputs():
    """The twist, hostile and singular documents, built from the H2
    exports as plain JSON."""
    with open("H2_module.json") as fh:
        module_doc = json.load(fh)
    parent = module_doc["parent"]
    docs = {
        "hostile-cyclic-parent.json":
            dict(module_doc, parent="hostile-cyclic-parent.json"),
        "hostile-huge-prime.json": dict(parent, field={"Fp": 10 ** 19 + 51}),
        "hostile-huge-dim.json": dict(parent, dim=1000000),
        "hostile-truncated-array.json": dict(parent, mul=parent["mul"][:-1]),
        "singular-phi.json":
            dict(module_doc, parent=dict(parent, phi=[[["0", "0"],
                                                       ["0", "0"]]] * 2)),
        "twist.json": {"field": "Q",
                       "tensor": [["4/3", "-1/3"], ["-1/3", "1/3"]]},
        "not-a-gauge.json": {"field": "Q",
                             "tensor": [["1", "0"], ["0", "2"]]},
    }
    with open("H2_H.json") as fh:
        bad_phi = json.load(fh)
    bad_phi["phi"][0][0][0] = "7"
    docs["bad-phi.json"] = bad_phi
    for name, doc in docs.items():
        with open(name, "w") as fh:
            json.dump(doc, fh)


def transcript(where: str) -> list:
    """The transcript of the fixed command list, run in ``where``."""
    cwd = os.getcwd()
    os.chdir(where)
    try:
        return _commands()
    finally:
        os.chdir(cwd)


def _commands() -> list:
    records = [_run(["corpus", "list"])]
    for entry in corpus.names():
        for what in WHATS:
            records.append(_run(["corpus", "export", entry, "--what", what,
                                 "--out", f"{entry}_{what}.json"]))
    for entry in corpus.names():
        for what in WHATS:
            records.append(_run(["verify", f"{entry}_{what}.json",
                                 "--suite=all"]))
    for entry in ("H2", "FpZn(5,2)", "Sweedler4"):
        for kind, whats in CONSTRUCTS:
            if (entry, kind) == ("Sweedler4", "gen-two-sided-crossed"):
                continue
            out = f"{entry}_{kind}.json"
            records.append(_run(["construct", kind]
                                + [f"{entry}_{w}.json" for w in whats]
                                + ["--out", out]))
            records.append(_run(["verify", out]))
    _write_inputs()
    for argv in (["hausser-nill", "FpZn(5,2)"],
                 ["four-diagonal-isos", "FpZn(7,3)"],
                 ["twist-invariance", "H2", "--twist", "twist.json"],
                 ["twist-invariance", "H2"],
                 ["twist-invariance", "Sweedler4"],
                 ["yd-roundtrip", "H2"],
                 ["sec8", "H2", "--json"],
                 ["quantum-double-smash", "H2"],
                 ["five-corollary", "QZ2"]):
        records.append(_run(["theorem"] + argv))
    for name in ("cyclic-parent", "huge-prime", "huge-dim",
                 "truncated-array"):
        records.append(_run(["verify", f"hostile-{name}.json"]))
    for argv in (["verify", "singular-phi.json"],
                 ["verify", "bad-phi.json", "--suite=all", "--json"],
                 ["verify", "missing.json"],
                 ["corpus", "export", "NoSuch", "--out", "none.json"],
                 ["construct", "no-such", "H2_H.json", "--out", "none.json"],
                 ["construct", "smash", "H2_module.json", "H2_dual.json",
                  "--out", "none.json"],
                 ["construct", "smash", "H2_dual.json", "--out", "none.json"],
                 ["theorem", "no-such-theorem", "QZ2"],
                 ["theorem", "sec8", "NoSuchEntry"],
                 ["theorem", "twist-invariance", "H2", "--twist",
                  "not-a-gauge.json"]):
        records.append(_run(argv))
    return records


def test_cli_transcript_is_unchanged(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    records = transcript(str(tmp_path))
    assert [r["argv"] for r in records] == [r["argv"] for r in golden]
    for got, want in zip(records, golden):
        assert got == want, got["argv"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        records = transcript(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(records)} commands", file=sys.stderr)
