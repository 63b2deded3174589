"""The README's examples run as written.

The library quick start is executed and must print what its closing comment
says; every INI example must load through ``cli.load_config`` for the
command whose section it holds.
"""

import contextlib
import io
import pathlib
import re

from smoothmusic import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_examples_run(tmp_path):
    (quick_start,) = _blocks("python")
    (promised,) = re.findall(r"# prints (.*)$", quick_start, flags=re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start, "README.md", "exec"), {})
    assert out.getvalue() == promised + "\n"

    configs = _blocks("ini")
    loaded = set()
    for i, text in enumerate(configs):
        (command,) = set(re.findall(r"^\[(\w+)\]", text, flags=re.M)) & set(cli.SCHEMAS)
        path = tmp_path / f"{i}-{command}.ini"
        path.write_text(text, encoding="utf-8")
        cli.load_config(str(path), command)
        loaded.add(command)
    assert loaded == set(cli.SCHEMAS), "one README example per command"
