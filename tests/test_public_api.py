import ast
import os
import re
import subprocess
import sys
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


def test_every_constant_is_read_outside_its_module():
    """Each name sqfn/constants.py assigns appears in another module of
    src/sqfn, so no tolerance is declared and then left unread."""
    package = Path(sqfn.__file__).parent
    tree = ast.parse((package / "constants.py").read_text())
    names = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets]
    others = "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                       if path.name != "constants.py")
    assert names
    assert [name for name in names if not re.search(rf"\b{name}\b", others)] == []


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    """A fresh interpreter that imports sqfn and sqfn.verify, and then
    sqfn.cli, has loaded no scipy module at all: numpy is sqfn's only
    runtime dependency (scipy.ndimage and scipy.special alone would cost
    about a third of a second of every run's start-up time)."""
    scipy_modules = "sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')"
    code = (f"import sys, sqfn, sqfn.verify; print({scipy_modules}); "
            f"import sqfn.cli; print({scipy_modules})")
    path = [str(Path(sqfn.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "[]"]
