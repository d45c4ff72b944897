"""No BLAS call in the library.

OpenBLAS worker threads busy-wait after each call, which takes the CPUs
``bench`` runs its rows on; the library's sums of products use ``einsum``
or integer products and sums.
This parses every module and fails on the ``@`` operator and on ``dot``,
``matmul``, ``inner``, ``vdot`` and ``tensordot``, as a numpy attribute,
an array method or a name imported from numpy.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wavemark").glob("*.py"))
BLAS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            uses += [(node.lineno, a.name) for a in node.names if a.name in BLAS]
    return sorted(uses)


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"cli.py", "metrics.py", "wavelet.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_makes_no_blas_call(path):
    assert _blas_uses(ast.parse(path.read_text(), str(path))) == []


def test_every_form_is_caught():
    source = """
from numpy import vdot
from numpy import inner as i2
a @ b
a @= b
np.dot(a, b)
a.dot(b)
numpy.matmul(a, b)
np.tensordot(a, b)
np.einsum("i,i", a, b)  # allowed
"""
    assert _blas_uses(ast.parse(source)) == [
        (2, "vdot"), (3, "inner"), (4, "@"), (5, "@"), (6, "dot"), (7, "dot"), (8, "matmul"),
        (9, "tensordot"),
    ]
