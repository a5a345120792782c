import ast
import subprocess
import sys
from pathlib import Path

import diskrod


def test_every_export_resolves_once():
    names = diskrod.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(diskrod, n)] == []


def test_import_leaves_out_scipy_interpolate_and_spatial():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskrod; print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
    # scipy.optimize loads scipy.spatial itself, so that one is checked at the source
    imported = set()
    for path in Path(diskrod.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not {name for name in imported
                if name.startswith(("scipy.interpolate", "scipy.spatial"))}
