"""Reports are byte-identical to the committed golden outputs.

The byte-identical-rerun test only shows that the program is deterministic;
these files pin what it printed before the count-vector, sieve and source-kind
code was merged, so a refactor that changes a single byte fails here. Change a
golden file only together with a deliberate change to a report.

Morphism paths are passed relative to the repository root, so the report's
``sequence`` field does not depend on where the checkout lives. The column
certificate has one checkpoint per N_k = k + 1 up to 2^20 (55 MB of JSON), so
only its SHA-256 is committed.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from morphcert.cli import main

from conftest import REPO_ROOT

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
SAMPLES = ("chain", "column", "doubling", "fibonacci", "thue_morse")

CASES = [
    ("certify_s2.json", ["certify", "--source", "s2", "-N", "1048576"]),
    ("certify_s2nz.json", ["certify", "--source", "s2nz", "-N", "1048576"]),
]
for _stem in SAMPLES:
    _rel = f"morphisms/{_stem}.morph"
    CASES.append((f"certify_{_stem}.json", ["certify", "--source", f"morphic:{_rel}"]))
    CASES.append((f"analyze_{_stem}.json", ["morphism", "analyze", _rel]))


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    out = buf.getvalue().encode("utf-8")
    golden = GOLDEN_DIR / name
    if golden.is_file():
        assert out == golden.read_bytes()
    else:
        digest = (GOLDEN_DIR / f"{name}.sha256").read_text(encoding="utf-8").split()[0]
        assert hashlib.sha256(out).hexdigest() == digest
