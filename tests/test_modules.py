"""The package's boundaries: it ships no test oracle (the oracles live
under ``tests/`` and no module of ``swldpc`` imports one), and its public
entry points refuse an argument of the wrong type where it is passed."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import swldpc
from swldpc import (
    CorrelationModel,
    SimConfig,
    configs_over_p,
    format_csv,
    identity_matrix,
    load_alist,
    run_trials,
    save_alist,
    sw_region_check,
    sweep,
    syndrome,
)

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


@pytest.mark.parametrize(
    "call, name, cls",
    [
        (lambda: syndrome(np.eye(3, dtype=np.uint8), [0, 1, 0]), "h", "SparseParityMatrix"),
        (lambda: syndrome(None, [0]), "h", "SparseParityMatrix"),
        (lambda: save_alist(None), "h", "SparseParityMatrix"),
        (lambda: load_alist(b"1 1\n1 1\n1\n1\n1\n1\n"), "text", "str"),
        (lambda: sw_region_check(CorrelationModel(0.9), (1.0, 0.5)), "rates", "RatePair"),
        (lambda: run_trials(None), "config", "SimConfig"),
        (lambda: sweep([None]), "config", "SimConfig"),
        (lambda: format_csv([(1, 2)]), "result", "SimRecord"),
        (lambda: configs_over_p(None, [0.9]), "config", "SimConfig"),
    ],
    ids=["syndrome-dense", "syndrome-none", "save_alist", "load_alist-bytes", "sw_region_check",
         "run_trials", "sweep", "format_csv", "configs_over_p"],
)
def test_entry_points_name_a_wrong_argument(call, name, cls):
    with pytest.raises(ValueError, match=f"^{name} must be a {cls}, got "):
        call()


def test_configs_over_p_takes_no_text():
    # as CorrelationModel("0.5") does: a probability is a number, not text
    config = SimConfig(CorrelationModel(0.9), identity_matrix(8), trials=1, master_seed=1)
    for make in (CorrelationModel, lambda p: configs_over_p(config, [p])):
        with pytest.raises(ValueError, match=re.escape("must be a finite number, got '0.5'")):
            make("0.5")
