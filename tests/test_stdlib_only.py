"""maghom runs on the standard library alone.

A fresh interpreter imports maghom and every submodule; every top-level
module the import adds must be maghom itself or in
sys.stdlib_module_names. The snapshot of sys.modules is taken after
startup, so whatever site would load on the host (setuptools'
_distutils_hack, certifi, ...) is left out; the interpreter runs with -S,
so site-packages is not on the path either and a module that site loaded
cannot hide an import of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import maghom

PROBE = """
import sys
before = set(sys.modules)
import importlib, json, pkgutil
import maghom
for info in pkgutil.iter_modules(maghom.__path__, "maghom."):
    importlib.import_module(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""


def test_maghom_imports_only_the_standard_library():
    src = str(Path(maghom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    added = set(json.loads(out.stdout))
    assert "maghom" in added
    assert sorted(added - {"maghom"} - set(sys.stdlib_module_names)) == []
