"""The names ``regencost`` exports, and README's library quick start run as written."""

import re
from pathlib import Path

import regencost

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(regencost.__all__) == len(set(regencost.__all__))
    for name in regencost.__all__:
        assert hasattr(regencost, name), name


def test_readme_quick_start_runs_and_its_values_hold():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    # a line "expression  # Fraction(p, q)" states the value the expression has
    stated = re.findall(r"^(.+?)\s+#\s*(Fraction\(.*\))\s*$", block, re.M)
    assert [value for _, value in stated] == ["Fraction(1, 5)", "Fraction(11, 35)"]
    for expr, value in stated:
        assert eval(expr, namespace) == eval(value, namespace), expr
