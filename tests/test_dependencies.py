"""The package's only runtime dependency beyond the standard library is numpy,
and only the pipeline and the CLI log: the stages return what they dropped."""
import ast
import sys
from pathlib import Path

import alarmsift

ALLOWED = sys.stdlib_module_names | {"numpy"}
LOGGING_MODULES = {"pipeline.py", "cli.py"}
MODULES = sorted(Path(alarmsift.__file__).parent.glob("*.py"))


def _imported(path: Path) -> list[str]:
    """The modules that path imports by absolute name."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def _logging_importers(paths) -> set[str]:
    return {p.name for p in paths if any(n.split(".")[0] == "logging" for n in _imported(p))}


def test_every_import_is_stdlib_numpy_or_package_relative():
    outside = [f"{path.name}: {n}" for path in MODULES for n in _imported(path)
               if n.split(".")[0] not in ALLOWED]
    assert outside == []


def test_only_the_pipeline_and_the_cli_import_logging(tmp_path):
    sources = {
        "plain.py": "import logging\n",
        "dotted.py": "import os, logging.handlers as handlers\n",
        "from.py": "from logging import getLogger\n",
        "nested.py": "def f():\n    import logging\n",
        "quiet.py": "import os\nfrom . import logging\nlogging = None\n",
    }
    for name, source in sources.items():
        (tmp_path / name).write_text(source)
    assert _logging_importers(sorted(tmp_path.glob("*.py"))) == set(sources) - {"quiet.py"}
    assert _logging_importers(MODULES) - LOGGING_MODULES == set()
