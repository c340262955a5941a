"""The docs stay honest: links resolve and walkthrough commands run."""

import ast
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


def cache_ledger_rows():
    """(first cell, verdict, measurement) of every row of the
    architecture doc's cache ledger."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    start = text.index("### Cache ledger")
    section = text[start : text.index("\n## ", start)]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]
    return [tuple(cell.strip() for cell in row.split("|")[1:4]) for row in rows]


EMPTY_CONTAINER_CALLS = {"dict", "list", "set", "WeakValueDictionary"}


def is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in EMPTY_CONTAINER_CALLS
    return False


def import_time_containers():
    """Every module-level (or class-level) name in ``src/repro`` bound to
    an empty mutable container at import: what a cache looks like."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [("", tree.body)] + [
            (f"{node.name}.", node.body) for node in tree.body if isinstance(node, ast.ClassDef)
        ]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if is_empty_container(value):
                    found += [prefix + t.id for t in targets if isinstance(t, ast.Name)]
    return found


def spec_attributes_the_checker_sets():
    """Attributes ``repro.checker`` assigns on a ``Specification``."""
    names = set()
    for path in (ROOT / "src" / "repro" / "checker").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                names.update(
                    t.attr
                    for t in node.targets
                    if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "spec"
                )
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setattr"
                and getattr(node.args[0], "id", None) == "spec"
            ):
                names.add(ast.literal_eval(node.args[1]))
    return names


def test_every_cache_has_a_ledger_row():
    # The standing rule: a cache enters or stays only with a row that
    # gives its verdict and the number behind it.
    rows = cache_ledger_rows()
    named = {
        name
        for cell, _, _ in rows
        for span in CODE_SPAN_RE.findall(cell)
        for name in re.findall(r"[\w.]+", span)
    }

    def has_row(name):
        return any(token == name or token.endswith("." + name) for token in named)

    caches = import_time_containers() + sorted(spec_attributes_the_checker_sets())
    assert {"_SPECS", "Schema._interned", "_compiled_core"} <= set(caches)
    missing = [name for name in caches if not has_row(name)]
    assert not missing, f"caches without a #cache-ledger row: {missing}"
    for cell, verdict, measured in rows:
        assert verdict, f"ledger row {cell} has no verdict"
        assert "not a cache" in verdict or re.search(r"\d", measured), (
            f"ledger row {cell} has no number behind its verdict"
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


REPRO_LINE_RE = re.compile(r"^\s*python -m repro\b(.*)$", re.MULTILINE)
#: Where the shell takes over from argparse: a pipe, a redirection
#: (``>``, ``2>``), a background ``&`` or a comment.
SHELL_CUT_RE = re.compile(r"\s(?:\d?>|[|&#])")


def documented_repro_commands(doc):
    """argv of every ``python -m repro ...`` line in a fenced block of
    ``doc``, continuation lines joined, cut where the shell takes over."""
    commands = []
    for fence in ANY_FENCE_RE.findall(doc.read_text()):
        for match in REPRO_LINE_RE.finditer(fence.replace("\\\n", " ")):
            commands.append(SHELL_CUT_RE.split(" " + match.group(1))[0].split())
    return commands


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_documented_commands_parse(doc):
    # A deleted subcommand or flag must not survive in the docs.
    from repro.cli import build_parser

    for argv in documented_repro_commands(doc):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc.name}: `python -m repro {' '.join(argv)}` does not parse")
