"""The top-level namespace: what `from gnnbound import ...` offers."""

from __future__ import annotations

import re
from pathlib import Path

import gnnbound

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_are_exported_and_exports_resolve():
    block = re.search(r"from gnnbound import \(([^)]*)\)", README.read_text()).group(1)
    documented = {name.strip() for name in block.split(",") if name.strip()}
    assert documented and documented <= set(gnnbound.__all__)
    for name in gnnbound.__all__:
        assert getattr(gnnbound, name) is not None, name
