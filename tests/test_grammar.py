"""The sources parse with the oldest supported Python's grammar."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_with_python_3_10_grammar():
    """Grammar only: ``feature_version`` rejects syntax newer than 3.10
    (``except*``, for one), but not names or library calls that 3.10
    lacks, so this does not stand in for running the tests on 3.10."""
    sources = sorted(
        path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
    )
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
