"""README's library example runs as written and prints a bound chain that holds."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["kt", "ogd_const"]
    for line in lines:
        _, measured, le1, gm, le2, am = line.split()
        assert le1 == le2 == "<="
        assert 0.0 <= float(measured) <= float(gm) <= float(am)
