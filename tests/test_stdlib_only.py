"""The package imports the standard library only, declares no dependency
and loads each of its modules on first use."""
import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_absolute_import_is_stdlib():
    sources = sorted((ROOT / "src" / "toricap").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.M)


LOADER_PROBE = """
import json, sys
import toricap.moment_domain
loaded = sorted(name for name in sys.modules if name.startswith("toricap"))
import toricap
modules = [getattr(toricap, name).__name__ for name in ("moment_domain", "capacities", "rounding_reeb", "sft_ledger")]
try:
    toricap.support
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([loaded, modules, missing]))
"""


def test_package_loads_each_module_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", LOADER_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, modules, missing = json.loads(done.stdout)
    assert loaded == ["toricap", "toricap.moment_domain"]
    assert modules == ["toricap.moment_domain", "toricap.capacities", "toricap.rounding_reeb", "toricap.sft_ledger"]
    assert missing == "module 'toricap' has no attribute 'support'"


# the stdlib modules that only declared value types, at about 20 ms a process
DECLARATIVE = ("dataclasses", "inspect", "typing")


@pytest.mark.parametrize("module", ["moment_domain", "capacities", "rounding_reeb"])
def test_the_exact_and_float_layers_load_no_declarative_modules(module):
    probe = f"import sys, toricap.{module}; print(sorted(set(sys.modules) & {set(DECLARATIVE)!r}))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


COMMAND_PROBE = f"""
import json, sys
from toricap.cli import main
code = main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.startswith("toricap"))
print(json.dumps([code, loaded, sorted(set(sys.modules) & {set(DECLARATIVE)!r})]))
"""
TRIANGLE = '{"type":"polygon","vertices":[["0","1"],["1","0"]]}'


# each command line, and the modules besides cli and moment_domain that it loads
COMMANDS = {
    "diag": (["diag", "--ellipsoid", "3,6"], []),
    "support": (["support", "--polygon", TRIANGLE, "--direction", "1,2"], []),
    "enclose": (["enclose", "--polygon", TRIANGLE], []),
    "gh": (["gh", "--ellipsoid", "1,2", "--k", "1..3"], ["capacities"]),
    "lagcap": (["lagcap", "--shape", "ball", "--n", "2"], ["capacities"]),
    "round": (["round", "--polygon", TRIANGLE], ["rounding_reeb"]),
    "ledger": (["ledger", "--forced-morse", "--n", "3"], ["sft_ledger"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_its_modules(command):
    argv, loads = COMMANDS[command]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", COMMAND_PROBE, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded, declarative = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(["toricap", "toricap.cli", "toricap.moment_domain"] + [f"toricap.{name}" for name in loads])
    # only the ledger's node types are still dataclasses, which need dataclasses.replace
    assert declarative == (["dataclasses", "inspect"] if "sft_ledger" in loads else [])
