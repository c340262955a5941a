"""The docs stay honest: links resolve and walkthrough commands run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([ROOT / "README.md", *(ROOT / "docs").glob("*.md")])

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE_RE = re.compile(r"```bash\n(.*?)```", re.DOTALL)
ANY_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
CODE_SPAN_RE = re.compile(r"`[^`]*`")


def github_slug(heading):
    text = heading.strip().lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path):
    return {github_slug(h) for h in HEADING_RE.findall(path.read_text())}


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(doc):
    assert DOC_FILES, "doc set is empty"
    prose = CODE_SPAN_RE.sub("", ANY_FENCE_RE.sub("", doc.read_text()))
    for target in LINK_RE.findall(prose):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = (
            (doc.parent / path_part).resolve() if path_part else doc
        )
        assert resolved.exists(), f"{doc.name}: broken link {target}"
        if fragment and resolved.suffix == ".md":
            assert fragment in anchors_of(resolved), (
                f"{doc.name}: missing anchor {target}"
            )


def walkthrough_commands():
    text = (ROOT / "docs" / "plugin-authoring.md").read_text()
    commands = []
    for block in FENCE_RE.findall(text):
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("python"):
                commands.append(line)
    return commands


def test_walkthrough_has_commands():
    commands = walkthrough_commands()
    assert any("systems" in c for c in commands)
    assert any("--system raft" in c for c in commands)


@pytest.mark.parametrize(
    "command", walkthrough_commands(), ids=lambda c: c[:60]
)
def test_walkthrough_commands_run_as_written(command):
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    result = subprocess.run(
        [sys.executable, *command.split()[1:]],
        capture_output=True,
        text=True,
        timeout=420,
        cwd=ROOT,
        env=env,
    )
    assert result.returncode == 0, (
        f"{command!r} failed:\n{result.stdout}\n{result.stderr}"
    )


FLAG_TABLE_RE = re.compile(
    r"^\| `(\w+)` [\w ]*flag \|[^\n]*\n\|[ |-]+\n((?:\|[^\n]*\n)+)", re.MULTILINE
)


def readme_flag_tables():
    """(subcommand, flags) per README table headed ``| `<subcommand>` ...
    flag |``: every ``--flag`` named in a row's first cell."""
    tables = []
    for command, rows in FLAG_TABLE_RE.findall((ROOT / "README.md").read_text()):
        cells = [row.split("|")[1] for row in rows.splitlines()]
        flags = [flag for cell in cells for flag in re.findall(r"--[a-z][a-z-]*", cell)]
        tables.append((command, flags))
    return tables


def test_readme_flag_tables_name_real_flags():
    from repro.cli import build_parser

    (subcommands,) = build_parser()._subparsers._group_actions
    tables = readme_flag_tables()
    assert {command for command, _ in tables} == {"check", "campaign"}
    for command, flags in tables:
        accepted = subcommands.choices[command]._option_string_actions
        assert flags, f"README `{command}` flag table is empty"
        unknown = [flag for flag in flags if flag not in accepted]
        assert not unknown, f"README documents `{command}` flags it rejects: {unknown}"
