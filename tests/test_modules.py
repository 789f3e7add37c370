"""The oracles in ``swldpc.reference`` stay off the path that simulate and decode run."""

import ast
from pathlib import Path

import swldpc

PACKAGE = Path(swldpc.__file__).parent
HOT_PATH = ["cli.py", "sim.py", "decoder.py", "ldpc.py", "correlation.py"]


def _imported_modules(path):
    """Absolute names of the swldpc modules that a module imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "swldpc" + ("." + base if base else "")
            names.add(base)
            # ``from swldpc import reference`` names the module as an alias
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_hot_path_does_not_import_the_oracles():
    # the package itself does, which shows the detector sees such an import
    assert "swldpc.reference" in _imported_modules(PACKAGE / "__init__.py")
    importers = [m for m in HOT_PATH if "swldpc.reference" in _imported_modules(PACKAGE / m)]
    assert importers == []
