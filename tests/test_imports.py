"""The core package imports nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import iknap\n"
    "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
)


def test_import_iknap_loads_only_stdlib_modules():
    # Diff sys.modules around the import: interpreter start-up may already
    # load third-party modules from .pth files.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = out.split()
    assert "iknap" in added
    foreign = [
        name
        for name in added
        if name.partition(".")[0] not in sys.stdlib_module_names | {"iknap"}
    ]
    assert foreign == []


def test_oracle_bulk_calls_are_plain_functions():
    import iknap

    assert not hasattr(iknap, "Grower") and not hasattr(iknap, "grower_for")
    assert callable(iknap.singleton_gains) and callable(iknap.greedy_kept)
    assert callable(iknap.chain_gammas)


def test_the_pipeline_does_not_import_the_basis_helpers():
    # modularize keeps greedy_kept()'s answer itself; iknap.independence holds
    # min_weight_basis and the other helpers that tests and demos call.
    import iknap

    for name in ("instances", "oracles", "modularize", "solvers"):
        tree = ast.parse((SRC / "iknap" / f"{name}.py").read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "independence" not in imported, name
    assert not hasattr(iknap, "ClassBasis")


def test_only_the_oracles_module_names_the_modular_table():
    # serialize hands oracle_from_descriptor (id, profit) pairs and modularize
    # calls _modular_over: neither builds nor reads an id -> profit table.
    private = {"_ItemTable", "_ModularOracle", "_modular", "_table"}
    paths = sorted((SRC / "iknap").glob("*.py"))
    assert "modularize.py" in {path.name for path in paths}
    for path in paths:
        if path.name == "oracles.py":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        assert named.isdisjoint(private), (path.name, sorted(named & private))
