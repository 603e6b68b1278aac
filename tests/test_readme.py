"""The README's examples run and print what the README shows: the library
quick start, whose print lines carry their output as comments, and the
`$ clustermut ...` examples of the command-line section, each followed by
its stdout."""

import contextlib
import io
import shlex
from pathlib import Path

from clustermut import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PROMPT = "$ clustermut "


def fenced_block(after: str) -> str:
    """The body of the first fenced block after the line ``after``,
    without its language tag."""
    body = README.split(f"\n{after}\n", 1)[1].split("```", 2)[1]
    return body.split("\n", 1)[1]


def cli_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of each example; a quoted argument may span lines,
    so a command ends at the first line where its quotes are closed."""
    examples = []
    for chunk in fenced_block("Examples:").strip().split("\n\n"):
        lines = chunk.splitlines()
        assert lines[0].startswith(PROMPT), chunk
        for end in range(1, len(lines) + 1):
            try:
                argv = shlex.split("\n".join(lines[:end])[len(PROMPT):])
            except ValueError:  # no closing quotation yet
                continue
            examples.append((argv, "\n".join(lines[end:]) + "\n"))
            break
    return examples


def test_library_quick_start_prints_what_the_readme_shows():
    code = fenced_block("## Library quick start")
    shown = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert shown == ["x1^-1*x2 + x1^-1", "5 5 True", "1", "confirmed"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == shown


def test_command_line_examples_print_what_the_readme_shows(capsys):
    examples = cli_examples()
    assert [argv[:1] for argv, _ in examples] == [["enumerate"], ["verify"]]
    assert examples[0][1] == "5 vertices, 5 edges, complete\n"
    assert len(examples[1][1].splitlines()) == 6
    for argv, shown in examples:
        assert cli.main(argv) == cli.EXIT_OK, argv
        assert capsys.readouterr().out == shown, argv
