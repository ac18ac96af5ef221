"""The names ``regencost`` exports, and README's library quick start and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

import regencost
from regencost.cli import main

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
    assert [value for _, value in stated] == ["Fraction(1, 5)", "Fraction(11, 35)", "Fraction(7, 25)"]
    for expr, value in stated:
        assert eval(expr, namespace) == eval(value, namespace), expr


# each fenced block that starts with "$ regencost": the command line, then what it prints
CLI_EXAMPLES = re.findall(r"^```\n\$ (regencost [^\n]*)\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_one_cli_example_per_documented_command():
    assert [command.split()[1] for command, _ in CLI_EXAMPLES] == [
        "point", "curve", "ratio", "threshold", "verify", "simulate"
    ]


@pytest.mark.parametrize("command, printed", CLI_EXAMPLES, ids=[command.split()[1] for command, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(command, printed, capsys, monkeypatch):
    monkeypatch.delenv("REGEN_SEED", raising=False)  # simulate's seed is then 0, as in the example
    assert main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out.replace("\r\n", "\n") == printed
    assert captured.err == ""
