import ast
import subprocess
import sys
from pathlib import Path

import diskrod


def test_every_export_resolves_once():
    names = diskrod.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(diskrod, n)] == []


def test_import_loads_no_scipy_module():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskrod; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"
    # and no import in the package names scipy, however deeply or lazily
    imported = set()
    for path in Path(diskrod.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "scipy"}
