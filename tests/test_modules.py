"""The package ships no test oracle: the oracles live under ``tests/`` and
no module of ``swldpc`` imports one."""

import ast
from pathlib import Path

import swldpc

PACKAGE = Path(swldpc.__file__).parent
# the oracle modules under tests/, and an oracle module inside the package
ORACLES = {path.stem for path in Path(__file__).parent.glob("_*_reference.py")}
ORACLES.add("swldpc.reference")


def _imported_modules(source):
    """Absolute names of the modules that a module of the package imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
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
    # the detector sees each form of such an import
    synthetic = "from . import reference\nimport _exact_reference\nfrom _decoder_reference import x"
    seen = _imported_modules(synthetic)
    assert {"swldpc.reference", "_exact_reference", "_decoder_reference"} <= seen
    assert {"_exact_reference", "_decoder_reference", "_layout_reference"} <= ORACLES
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert modules == ["__init__.py", "__main__.py", "cli.py", "correlation.py", "decoder.py",
                       "ldpc.py", "sim.py"]
    importers = [m for m in modules if _imported_modules((PACKAGE / m).read_text()) & ORACLES]
    assert importers == []
