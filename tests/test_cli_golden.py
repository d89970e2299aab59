"""Golden CLI outputs: stdout, stderr and exit code of fixed invocations.

``tests/data/cli_golden.json`` holds one record per invocation: every
subcommand's ``--help``, each data command in text, json and csv, the
numeric commands, and exits 1, 2 and 3.  After an intended output change,
rewrite the recorded outputs from the current tree with
``PYTHONPATH=src python tests/test_cli_golden.py``; a record may be added
as ``{"argv": [...]}`` and gets its outputs on that run.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from mzvkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def invoke(argv: list[str]) -> dict:
    """Run ``mzvkit <argv>`` in-process at an 80-column terminal width."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_golden(record):
    assert invoke(record["argv"]) == record


if __name__ == "__main__":
    records = [invoke(r["argv"]) for r in RECORDS]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
