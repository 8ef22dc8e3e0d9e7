"""Markdown checks for README and docs/.

Every relative link target must exist in the repository; external
(``http``/``https``/``mailto``) links and intra-page anchors are
skipped.  Fenced code blocks are stripped first so shell snippets like
``[0, 5]`` never register as links.

Every ``repro <command>`` (or ``python -m repro.cli <command>``) inside
a fenced code block must name a subcommand the CLI parser accepts, so
the docs cannot keep advertising a deleted command.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

CHECKED = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md")),
    key=lambda p: p.name,
)

LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
COMMAND = re.compile(
    r"(?<![\w./-])(?<!from )(?<!import )repro(?:\.cli)?[ \t]+([a-z][\w-]*)"
)
FENCE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)
INLINE_CODE = re.compile(r"`[^`]*`")


def links_of(path):
    text = INLINE_CODE.sub("", FENCE.sub("", path.read_text(encoding="utf-8")))
    return LINK.findall(text)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    broken = []
    for target in links_of(path):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken relative links {broken}"


def test_readme_and_docs_are_checked():
    names = {p.name for p in CHECKED}
    assert "README.md" in names
    for doc in ("MODEL.md", "ARCHITECTURE.md", "PERFORMANCE.md",
                "OBSERVABILITY.md", "ROBUSTNESS.md", "PROTOCOL.md"):
        assert doc in names, f"docs/{doc} missing from the link sweep"


def commands_of(path):
    """``(line, subcommand)`` for every CLI invocation in a fenced block."""
    found = []
    for block in FENCE.finditer(path.read_text(encoding="utf-8")):
        for line in block.group(0).splitlines():
            found += [(line.strip(), name) for name in COMMAND.findall(line)]
    return found


def cli_subcommands():
    import argparse

    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("the repro parser has no subcommands")


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_code_blocks_name_real_commands(path):
    known = cli_subcommands()
    unknown = [line for line, name in commands_of(path) if name not in known]
    assert not unknown, (
        f"{path.name}: fenced code names unknown repro subcommands "
        f"(known: {sorted(known)}): {unknown}"
    )


def test_command_pattern_finds_invocations():
    line = "PYTHONPATH=src python -m repro.cli run E4 --fast && repro serve"
    assert COMMAND.findall(line) == ["run", "serve"]
    for not_a_command in ("from repro.theory import compare",
                          "python -m repro.experiments.scale --nodes 500",
                          "from repro import build_simulation",
                          "import repro as r", "src/repro/cli.py"):
        assert COMMAND.findall(not_a_command) == []
