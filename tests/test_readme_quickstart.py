"""The README quickstart snippet must stay executable as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_snippet_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README lost its quickstart code block"
    snippet = blocks[0]
    assert "measure_output_pulse" in snippet
    exec(compile(snippet, str(README), "exec"), {})  # noqa: S102


def test_readme_mentions_every_package():
    text = README.read_text()
    import repro
    for name in repro.__all__:
        if name == "__version__":
            continue
        assert "repro.{}".format(name) in text, name


def test_documented_cli_commands_exist():
    """Every documented ``pulsetest <verb>`` line names a real verb, and
    every ``--flag`` on it is an option of that verb."""
    from repro.cli import build_parser
    parser = build_parser()
    sub = next(a for a in parser._actions
               if hasattr(a, "choices") and a.choices)
    documented = re.findall(r"^pulsetest (\w+)(.*)$",
                            README.read_text(), flags=re.MULTILINE)
    assert documented, "README lost its pulsetest command lines"
    for command, rest in documented:
        assert command in sub.choices, command
        options = sub.choices[command]._option_string_actions
        for flag in re.findall(r"--[\w-]+", rest.split("#")[0]):
            assert flag in options, (command, flag)
