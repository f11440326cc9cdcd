import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_import_loads_only_the_standard_library():
    # a fresh interpreter, so that nothing the test run imported counts;
    # dataclasses and the introspection modules it pulls in are left out
    code = (
        "import sys; before = set(sys.modules); import localix; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'localix'})); "
        "print(sorted(new & {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["[]", "[]"]


def test_readme_python_example_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```python\n") + len("```python\n")
    code = text[start : text.index("```", start)]
    exec(compile(code, "README.md", "exec"), {})
