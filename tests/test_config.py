import ast
import re
import tokenize
import types
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


def _bound_names(node) -> list:
    """The names an import statement binds; none for ``from __future__``."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def _read_names(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_unused_module_level_import():
    """Every module-level import of a package module is read as a name in
    it (a name only in a quoted annotation counts as unused);
    ``__init__.py`` re-exports and ``from __future__`` are exempt."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _read_names(tree)
        found += [f"{path.name}:{node.lineno}: {name}" for node in tree.body
                  for name in _bound_names(node) if name not in used]
    assert not found, "\n".join(found)


def test_no_unused_import_inside_a_function():
    """Every import inside a function of a package module is read as a
    name in that function, so no scope of ``src/ncergo`` keeps a dead
    import."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used = _read_names(fn)
                found += [f"{path.name}:{node.lineno}: {name}"
                          for node in ast.walk(fn)
                          for name in _bound_names(node) if name not in used]
    assert not found, "\n".join(found)


def test_every_config_constant_is_read_elsewhere():
    """Every constant config.py defines is imported from it and read as a
    name by some other package module, so no threshold outlives its use."""
    config = ast.parse((PACKAGE / "config.py").read_text())
    defined = {t.id for node in config.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)}
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        used = _read_names(tree)
        read |= {a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "config"
                 for a in node.names if (a.asname or a.name) in used}
    missing = sorted(defined - read)
    assert defined and not missing, missing


def test_no_config_constant_as_a_parameter_default():
    """A verdict rests on its inputs and config.py alone: no function takes
    a constant imported from ``.config`` as a default it lets callers
    override."""
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
                      if isinstance(default, ast.Name) and default.id in constants]
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


def test_object_setattr_writes_only_self():
    """Every ``object.__setattr__`` call passes ``self`` first: an
    immutable object's slots, its caches included, are written only by
    its own class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "object"
                    and not (node.args and isinstance(node.args[0], ast.Name)
                             and node.args[0].id == "self")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "\n".join(found)


def test_random_draws_only_in_the_sampled_routes():
    """The package functions that call ``random_element`` are exactly the
    sampled routes: the positivity of a Hermitian map that is not CP, the
    commutator sample above the dense limit and a config's random input.
    The semigroup law, idempotency, selfadjointness preservation and the
    contraction bounds are decided without a draw."""
    callers = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "random_element"):
            callers.add(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert callers == {"superops.check_positivity", "ergodic.validate_family",
                       "serialize.average_from_dict"}


def test_layout_conversions_only_in_algebra():
    """Only ``algebra.py`` converts between blocks, group stacks and the vec
    order: no other module names ``_blocks_of``, ``_vec_stacks``,
    ``_group_stacks`` or ``block_diag``."""
    names = {"_blocks_of", "_vec_stacks", "_group_stacks", "block_diag"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name.split(".")[-1] if isinstance(node, ast.alias)
                    else None)
            if name in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert not found, "\n".join(sorted(found))


def test_per_block_views_only_in_algebra_and_serialize():
    """An element's one record is its group stacks: outside ``algebra.py``,
    which converts between the layouts, and ``serialize.py``, which writes
    the JSON block order, no module reads ``.data`` or calls
    ``.singular_values()`` or ``.block_svds()``."""
    views = {"data", "singular_values", "block_svds"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("algebra.py", "serialize.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in views:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not found, "\n".join(sorted(found))


def test_only_the_spectrum_rule_factorizes():
    """Every norm reads one spectrum: in the package only
    ``algebra.stacked_singular_values`` and ``Element.stack_svds`` call
    ``np.linalg.svd``."""
    callers = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "svd"
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg"):
            callers.add(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert callers == {"algebra.stacked_singular_values", "algebra.stack_svds"}


def test_flags_are_checked_only_where_a_claim_enters():
    """One trust rule for element flags: ``_verify_flags`` runs only in the
    public ``Element`` constructor and in ``Element._checked``, the one
    re-tagging helper; every other construction carries its flags."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr == "_verify_flags":
            callers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert callers == {"algebra.Element.__init__", "algebra.Element._checked"}


# names of ``ncergo.__all__`` that no user path names, with the reason
# each is public
EXPORTED_UNUSED = {
    "WitnessCertificate": "returned by the certificate searches",
    "AverageTrace": "returned by net_average_trace",
    "DSCertificate": "returned by verify_ds",
    "PostconditionError": "raised by the witness searches",
    "sector_check": "the rule of SectorNet",
    "preserves_fava": "the Fava-ball check the transfer-theorem certificate needs",
}


def test_public_names_are_pinned_to_their_users():
    """``ncergo.__all__`` is every public name the package binds, and each
    is found in the CLI, the acceptance tests or the benchmark, or is on
    ``EXPORTED_UNUSED`` with its reason."""
    bound = {name for name, value in vars(ncergo).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(ncergo.__all__) == len(bound) and set(ncergo.__all__) == bound
    root = PACKAGE.parent.parent
    text = "\n".join(p.read_text() for p in [
        PACKAGE / "cli.py", root / "tests" / "test_acceptance.py",
        *sorted((root / "perfbench").glob("*.py"))])
    unused = {name for name in ncergo.__all__
              if not re.search(rf"\b{name}\b", text)}
    assert unused == set(EXPORTED_UNUSED), sorted(unused)
