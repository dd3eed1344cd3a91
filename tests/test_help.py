"""Every ``--help`` page, pinned byte for byte.

``help_pages.txt`` holds ``ringcav --help`` and the help of each command as
a terminal 80 columns wide shows them. A change to an option's name, type,
default or help text fails here; rewrite the file from ``help_pages()`` only
where that change is intended.
"""
from pathlib import Path

from click.testing import CliRunner

from ringcav.cli import main

PINNED = Path(__file__).with_name("help_pages.txt")


def help_pages() -> str:
    runner = CliRunner()
    pages = []
    for args in [["--help"], *([name, "--help"] for name in sorted(main.commands))]:
        result = runner.invoke(main, args, prog_name="ringcav", terminal_width=80)
        assert result.exit_code == 0, result.output
        pages.append(f"$ ringcav {' '.join(args)}\n{result.output}")
    return "\n".join(pages)


def test_every_help_page_is_pinned():
    assert help_pages() == PINNED.read_text(encoding="utf-8")
