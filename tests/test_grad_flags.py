"""Only the tensor module writes a grad flag: the model forwards and the
trainers read frozen parameters as constants and never set, clear or
restore `requires_grad`."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mrpdiff"


def _flag_writes(source: str) -> list[int]:
    """The lines that assign, delete or `setattr` a `requires_grad` attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "requires_grad"
                and not isinstance(node.ctx, ast.Load)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "requires_grad"):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_flag_walker_finds_every_kind_of_write():
    source = ("t.requires_grad = False\n"
              "for _, p.requires_grad in pairs: pass\n"
              "a.b.requires_grad |= True\n"
              "setattr(t, 'requires_grad', True)\n"
              "flag = t.requires_grad\n")
    assert _flag_writes(source) == [1, 2, 3, 4]


def test_no_module_but_the_tensor_module_writes_a_grad_flag():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    writes = {path.relative_to(SRC).as_posix(): _flag_writes(path.read_text(encoding="utf-8"))
              for path in modules}
    # the Tensor constructor sets the flag: the walker sees a real write
    assert writes.pop("numerics/tensor.py")
    assert {module: lines for module, lines in writes.items() if lines} == {}
