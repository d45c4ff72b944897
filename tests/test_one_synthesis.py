"""One synthesis path in the library.

``wavelet._thresholded_inverse`` runs every synthesis, ``dwt2_ll_inverse``'s
included, so it alone calls ``_inverse_level``.  A second level loop would
be a second synthesis path.  This parses every module and lists each use of
``_inverse_level`` with the function that holds it.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wavemark").glob("*.py"))
OWNER, OWNED = "_thresholded_inverse", "_inverse_level"


def _uses(tree: ast.AST, owner: str = "<module>") -> list[tuple[str, int]]:
    """(innermost enclosing function, line) for each read or import of
    ``OWNED``; defining it is not a use."""
    uses = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and node.id == OWNED and isinstance(node.ctx, ast.Load):
            uses.append((owner, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == OWNED:
            uses.append((owner, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses += [(owner, node.lineno) for a in node.names if a.name == OWNED]
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        uses += _uses(node, inner)
    return sorted(uses)


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"bench.py", "watermark.py", "wavelet.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_owner_synthesises_levels(path):
    assert [use for use in _uses(_parse(path)) if use[0] != OWNER] == []


def test_the_owner_synthesises_levels():
    wavelet = next(p for p in SOURCES if p.name == "wavelet.py")
    assert OWNER in {owner for owner, _ in _uses(_parse(wavelet))}


def test_every_form_is_caught():
    source = """
from .wavelet import _inverse_level
def _inverse_level(ll, bands):  # allowed: the definition
    return ll
def dwt2_ll_inverse(ll):
    return wavelet._inverse_level(ll, None)
def _thresholded_inverse(pyr, t):
    def level(ll):
        return _inverse_level(ll, None)
    return _inverse_level(pyr.ll, None)
"""
    assert _uses(ast.parse(source)) == [
        ("<module>", 2),
        ("_thresholded_inverse", 10),
        ("dwt2_ll_inverse", 6),
        ("level", 9),
    ]
