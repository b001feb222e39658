"""Every shipped data file is packaged.

Tests run from the source tree, where every file under src/fatiguekit/data
is importable whether pyproject.toml packages it or not. An installed
package only holds the files its package-data globs match, and the package
cannot import without data/ontology.json, so a file those globs miss must
fail here.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fatiguekit"


def test_every_data_file_matches_a_package_data_glob():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["fatiguekit"]
    packaged = {p for pattern in globs for p in PACKAGE.glob(pattern)}
    shipped = {p for p in (PACKAGE / "data").rglob("*")
               if p.is_file() and "__pycache__" not in p.parts}
    assert (PACKAGE / "data" / "ontology.json") in shipped
    assert sorted(shipped - packaged) == []
