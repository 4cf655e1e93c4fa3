"""
What each way into laminate loads, each checked in a fresh interpreter
(this test process has long since loaded every module): the package
serves its public names lazily (PEP 562), and the CLI imports only the
modules its command runs.
"""

import json
import subprocess
import sys

import pytest

from tests.conftest import ROOT, child_env

ENGINE = {"laminate." + name for name in (
    "branched", "bruteforce", "cones", "finiteness", "linalg", "normal",
    "surfaces", "traintracks", "triangulation")}
LIST_LOADED = ("\nimport json, sys\nprint(json.dumps(sorted("
               "m for m in sys.modules if m.startswith('laminate'))))")


def fresh(script):
    """The last line that script prints in a fresh python, as JSON."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          cwd=ROOT, env=child_env(), text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(script):
    """The laminate modules loaded once script has run in a fresh python."""
    return set(fresh(script + LIST_LOADED))


def test_import_loads_only_errors():
    assert loaded("import laminate") == {"laminate", "laminate.errors"}


def test_errors_and_version_load_no_engine():
    assert loaded("import laminate\n"
                  "laminate.__version__, laminate.errors.InputError") == {
        "laminate", "laminate.errors"}


def test_star_import_binds_every_public_name():
    assert fresh("from laminate import *\n"
                 "import json, laminate\n"
                 "print(json.dumps([n for n in laminate.__all__"
                 " if globals().get(n) is not getattr(laminate, n)]))") == []


def test_dir_lists_every_public_name():
    assert fresh("import json, laminate\n"
                 "print(json.dumps(sorted(set(laminate.__all__)"
                 " - set(dir(laminate)))))") == []


def test_unknown_attribute_raises_attribute_error():
    # The package and the CLI serve names through one loader.
    for module in ("laminate", "laminate.cli"):
        assert fresh("import json, %s\n"
                     "try:\n"
                     "    %s.no_such_name\n"
                     "except AttributeError as exc:\n"
                     "    print(json.dumps(str(exc)))" % (module, module)) == \
            "module %r has no attribute 'no_such_name'" % module


@pytest.mark.parametrize("argv, unloaded", [
    (["--version"], ENGINE),
    (["tri", "info", "--input", "fixtures/two_tet.tri"],
     {"laminate.surfaces", "laminate.branched", "laminate.bruteforce",
      "laminate.finiteness", "laminate.traintracks"}),
    (["split", "traintrack", "--file", "fixtures/figure_sp1.json",
      "--branch", "b"],
     {"laminate.triangulation", "laminate.normal", "laminate.surfaces"}),
    # The brute-force oracles load only under --bound.
    (["ns", "fundamental", "--input", "fixtures/two_tet.tri"],
     {"laminate.bruteforce"}),
    (["heegaard", "enumerate", "--input", "fixtures/three_tet.tri",
      "--support", "2,4,11,13,15,20,21,22,23,29", "-g", "2"],
     {"laminate.bruteforce"}),
], ids=["version", "tri-info", "split-traintrack", "ns-fundamental",
        "heegaard-enumerate"])
def test_cli_loads_only_its_command_modules(argv, unloaded):
    modules = loaded("import laminate.cli\n"
                     "try:\n"
                     "    laminate.cli.main(%r)\n"
                     "except SystemExit:\n"
                     "    pass" % argv)
    assert "laminate.cli" in modules
    assert not modules & unloaded
