"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    gap, two_abs_wh, formula = map(float, capsys.readouterr().out.split())
    assert 0.7 <= two_abs_wh / gap <= 1.3
    assert formula > 0
