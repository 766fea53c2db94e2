"""README's library example runs as written, so it cannot drift from the API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the first python block; a warning it raised would fail here (filterwarnings = error)
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # two states, G, f(k)
    assert lines[-1] == "(-0.5+0.5j)"
