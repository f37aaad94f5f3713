"""The README's examples run as written.

The Python session is executed as one script, then every ``quasihopf``
line of the CLI examples goes through ``cli.main`` in order, in a fresh
directory, and must exit 0.  A signature or command-line change that
breaks the README fails here.
"""

import os
import re
import shlex

from quasihopf.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks():
    """(language, body) of each fenced block of the README."""
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```(\w*)\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_python_session():
    sessions = [body for lang, body in _blocks() if lang == "python"]
    assert sessions
    for body in sessions:
        exec(compile(body, README, "exec"), {})


def test_readme_cli_lines(tmp_path, monkeypatch):
    lines = [line for _, body in _blocks() for line in body.splitlines()
             if line.startswith("quasihopf ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
