"""The runtime is standard-library only: importing every symtorus
module, with no site-packages on the path, loads no other module."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import symtorus
names = sorted(m.name for m in pkgutil.iter_modules(symtorus.__path__,
                                                     "symtorus."))
for name in names:
    importlib.import_module(name)
loaded = sorted(set(sys.modules) - before)
print(json.dumps({"modules": names, "loaded": loaded}))
"""


def test_every_module_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    report = json.loads(proc.stdout)
    assert "symtorus.monodromy" in report["modules"]
    outside = [name for name in report["loaded"]
               if name.split(".")[0] != "symtorus"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


ORBIT_PATH = """
import json, sys
import symtorus.orbitleast
print(json.dumps(sorted(sys.modules)))
"""


def test_the_orbit_path_loads_no_integer_matrices():
    """``orbitleast`` and ``orbitcount`` under it read K's coordinates
    from the Smith reduction modulo N, with no ``intmat``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", ORBIT_PATH],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    loaded = json.loads(proc.stdout)
    assert "symtorus.orbitcount" in loaded
    assert "symtorus.intmat" not in loaded
