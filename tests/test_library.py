"""The README's "Library use" section is the package's documented surface."""

import re
from pathlib import Path

import selqa
from selqa.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs_and_lists_the_exports(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.S)
    documented = [
        name
        for line in re.findall(r"^- \*\*\w+:\*\*.*(?:\n  .*)*", section, re.M)
        for name in re.findall(r"`(\w+)`", line)
    ]
    assert sorted(selqa.__all__) == sorted(documented)
    assert len(documented) == len(set(documented)) == 22

    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "demo", "--n", "200"]) == 0
    capsys.readouterr()
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("acc ") and lines[0].endswith("/200 answered)")
    assert [line.split(" | ")[0] for line in lines[4:6]] == ["| likelihood", "| avg-bleu"]
