import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_python_3_10():
    """Every .py file under src/, tests/ and benchmarks/ parses with the
    Python 3.10 grammar, the oldest that pyproject.toml allows.

    Best-effort, and syntax only: ast.parse's feature_version refuses some
    newer grammar (except*, for one) but not all of it, and a library name
    added after 3.10, such as hashlib.file_digest, parses fine.
    """
    paths = sorted(p for d in ("src", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []
