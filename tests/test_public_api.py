import ast
from pathlib import Path

import sqfn


def test_all_lists_exactly_the_imported_names():
    """Every name in sqfn.__all__ resolves, and __all__ is exactly the set
    of names the package __init__ imports from its modules."""
    tree = ast.parse(Path(sqfn.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert all(hasattr(sqfn, name) for name in sqfn.__all__)
    assert len(sqfn.__all__) == len(set(sqfn.__all__))
    assert sorted(sqfn.__all__) == sorted(imported)
