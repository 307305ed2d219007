"""README's python quick tour must run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_tour"})
    est_error, history = capsys.readouterr().out.split("\n", 1)
    assert float(est_error) >= 0.0
    assert history.startswith("[MisclusterReport(")
