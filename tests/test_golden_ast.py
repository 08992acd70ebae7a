"""Byte-identical AST dumps of the corpus.

For every corpus program, ``golden/ast_dumps.json`` pins the sha256 of what
``luagc dump-ast`` prints for it, as parsed and with ``--desugar``.  The
digest covers the CLI's own text, so a change of a node's kind, its keys,
their order or its sub-terms shows here, for every node kind the corpus
holds and not only for the one program ``arith_core_ast.json`` pins.

A refactor of the term classes, the parser or the desugarer must leave
every digest unchanged.  Only a deliberate change of the dump may rewrite
the golden file, by running from the repository root::

    PYTHONPATH=src:tests python -c "import json, test_golden_ast as g; \
print(json.dumps(g.all_digests(), indent=1, sort_keys=True))" \
> tests/golden/ast_dumps.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from luagc.cli import main

from conftest import CORPUS

GOLDEN = Path(__file__).parent / "golden" / "ast_dumps.json"


def corpus_programs():
    return sorted(CORPUS.glob("*/*.lua"))


def program_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


def dump_digest(path: Path, *flags: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["dump-ast", str(path), *flags]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def program_digests(path: Path) -> dict:
    return {"parsed": dump_digest(path),
            "desugared": dump_digest(path, "--desugar")}


def all_digests() -> dict:
    return {program_id(p): program_digests(p) for p in corpus_programs()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert len(golden) == 45
    assert sorted(golden) == [program_id(p) for p in corpus_programs()]


@pytest.mark.parametrize("path", corpus_programs(), ids=program_id)
def test_corpus_dumps_match_golden(path, golden):
    assert program_digests(path) == golden[program_id(path)]
