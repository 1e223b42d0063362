"""The package's only runtime dependency beyond the standard library is numpy."""
import ast
import sys
from pathlib import Path

import alarmsift

ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_every_import_is_stdlib_numpy_or_package_relative():
    outside = []
    for path in sorted(Path(alarmsift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert outside == []
