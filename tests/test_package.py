import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_import_loads_only_the_standard_library():
    # a fresh interpreter, so that nothing the test run imported counts
    code = (
        "import sys; before = set(sys.modules); import localix; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'localix'}))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
