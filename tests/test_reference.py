"""The scalar references in ``tests/reference.py`` do not call the code they check.

The kernel tests hold each array kernel in ``src/`` to a reference by raw
IEEE bits.  A reference that called a kernel, or a one-point wrapper over
one, would compare that kernel with itself, so the reference module may take
from modstab only the parameter types it reads fields or points from.  The
exact-solution oracle, ``tests/oracle.py``, keeps the same rule.
"""

import ast
import pathlib

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.py"
PARAMETER_TYPES = {"EquationParams", "ModularSpec", "ControlFunction", "Mode", "Grid"}


def _refused(source: str) -> list:
    """``(module, name)`` of every import from modstab but a parameter type.

    ``name`` is None for a bare ``import modstab...``, which reaches everything.
    """
    refused = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            refused += [(a.name, None) for a in node.names if a.name.split(".")[0] == "modstab"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "modstab":
                refused += [(node.module, a.name) for a in node.names
                            if node.module != "modstab" or a.name not in PARAMETER_TYPES]
    return refused


def test_reference_imports_only_parameter_types_from_modstab():
    source = REFERENCE.read_text(encoding="utf-8")
    assert "from modstab import" in source  # it reads at least one parameter type
    assert _refused(source) == []


def test_oracle_imports_only_parameter_types_from_modstab():
    assert _refused(REFERENCE.with_name("oracle.py").read_text(encoding="utf-8")) == []


def test_the_import_check_refuses_kernels_and_bare_imports():
    source = """
import modstab
import modstab.functions as f
from modstab import Mode, rho_eval
from modstab.direct import Mode as M
"""
    assert _refused(source) == [("modstab", None), ("modstab.functions", None),
                                ("modstab", "rho_eval"), ("modstab.direct", "Mode")]
