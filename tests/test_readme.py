"""The README's Python examples run as written."""

import json
import pathlib
import re
import shlex

from disksampling import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_cli_examples_run_as_written(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "signal.json").write_text(
        json.dumps({"twice_s": 2, "coefficients": [[1, 0], [0.5, -0.25], [0, 0.125]]})
    )
    (tmp_path / "query.csv").write_text("re,im\n0,0\n0.3,-0.2\n-0.5,0.6\n")
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "disksampling"
        assert cli.main(argv[1:]) == 0, command
        stdout = capsys.readouterr().out
        if "--output" in argv:
            assert (tmp_path / argv[argv.index("--output") + 1]).stat().st_size > 0, command
        else:
            assert stdout, command
