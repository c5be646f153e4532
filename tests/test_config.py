import ast
import re
import tokenize
from pathlib import Path

import ncergo

PACKAGE = Path(ncergo.__file__).parent
EXPONENT = re.compile(r"^(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)[eE][+-]?\d")
GUARD = "1e-300"  # divide-by-zero guard, not a threshold


def test_no_threshold_literal_outside_config():
    """Every exponent-notation number outside config.py is a threshold
    that belongs in config.py; comments and docstrings are not tokens."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if (tok.type == tokenize.NUMBER and tok.string != GUARD
                        and EXPONENT.match(tok.string)):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, "\n".join(found)


def test_no_unused_module_level_import():
    """Every module-level import of a package module is read as a name in
    it (a name only in a quoted annotation counts as unused);
    ``__init__.py`` re-exports and ``from __future__`` are exempt."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in bound if name not in used]
    assert not found, "\n".join(found)


def test_no_config_constant_as_a_parameter_default():
    """A verdict rests on its inputs and config.py alone: no function takes
    a constant imported from ``.config`` as a default it lets callers
    override.  ``besicovitch_average``'s ``quad_tol`` is the one exception,
    because its callers use two different tolerances."""
    allowed = {("ergodic.py", "besicovitch_average", "quad_tol")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {a.asname or a.name for node in tree.body
                     if isinstance(node, ast.ImportFrom) and node.module == "config"
                     for a in node.names}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults)) + list(zip(args.kwonlyargs, args.kw_defaults))
            found += [f"{path.name}:{fn.lineno}: {fn.name}({arg.arg}={default.id})"
                      for arg, default in pairs
                      if isinstance(default, ast.Name) and default.id in constants
                      and (path.name, fn.name, arg.arg) not in allowed]
    assert not found, "\n".join(found)


def test_no_default_tolerance_comparison():
    """No module calls ``allclose`` or ``isclose``: their default rtol and
    atol are thresholds outside config.py."""
    names = {"allclose", "isclose"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, "\n".join(found)
