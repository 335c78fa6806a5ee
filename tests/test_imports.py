import ast
from pathlib import Path

import certquad

_MODULES = sorted(p for p in Path(certquad.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")  # the package re-exports what it imports


def test_every_imported_name_is_read():
    assert len(_MODULES) > 10
    unread = []
    for path in _MODULES:
        tree = ast.parse(path.read_text(), str(path))
        bound = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in read]
    assert not unread
