"""README's python quick tour must run against the current API, and its
example grid config must build."""

import json
import re
from pathlib import Path

from byzfed.cli import _check_keys, _parse, _snapshot

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_tour"})
    est_error, history = capsys.readouterr().out.split("\n", 1)
    assert float(est_error) >= 0.0
    assert history.startswith("[MisclusterReport(")


def test_readme_example_grid_config_builds():
    text = README.read_text(encoding="utf-8")
    data = json.loads(re.search(r"```json\n(.*?)```", text, re.DOTALL).group(1))
    _check_keys(data)  # a misspelled key fails here
    config, clusterers, optimizers, trials = _parse(data)
    grid = data["grid"]
    assert [name for name, _ in clusterers] == [c["name"] for c in grid["clusterers"]]
    assert [name for name, _ in optimizers] == [o["name"] for o in grid["optimizers"]]
    assert trials == grid["trials"]
    # its snapshot, as manifest.json records it, parses back to itself
    config_dict, grid_dict = _snapshot(config, clusterers, optimizers, trials)
    again = json.loads(json.dumps({**config_dict, "grid": grid_dict}))
    _check_keys(again)
    assert _snapshot(*_parse(again)) == (config_dict, grid_dict)
