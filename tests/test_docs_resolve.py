"""Every file path and CLI flag the documentation cites exists.

Words in backticks (inline spans and fenced blocks) of README.md,
DESIGN.md, EXPERIMENTS.md, ``docs/*.md`` and the verify skill that look
like paths — a known extension, a trailing ``/``, or a first component
that is a top-level entry — must exist from the repository root or be
the trailing part of exactly one path in the tree (``run.py``,
``relalg/compiled.py``).  In a fenced directory listing, a line starting
with ``dir/`` puts its words and those of deeper-indented lines under
``dir/``.  A glob with a directory must match.  Skipped: absolute and
``./`` paths, bare extensions, placeholders (``<ref>``, ``$VAR``), what
follows a ``:`` (``file.py:name``, ``git show rev:path``) and what
``.gitignore`` lists.  A filesystem walk, not ``git``.

Every ``--flag`` of a ``python -m repro <subcommand>`` command in those
backticks must also be a visible option of that subcommand in
``build_argument_parser()``; a flag hidden from ``--help`` counts as
undocumented.  A ``python -m repro.experiments <figure>`` command must
name a ``FIGURES`` key or ``all`` (placeholders are skipped, as above),
and its flags must be visible options of that CLI's parser.
"""

from __future__ import annotations

import fnmatch
import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    *(ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")),
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

pytestmark = pytest.mark.skipif(
    not (ROOT / "DESIGN.md").is_file(), reason="needs the repository's docs"
)

FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
SPAN = re.compile(r"(`+)([^`]+?)\1")
EXTENSION = re.compile(r"\.(py|md|json|toml|ya?ml|dl|txt|csv|tsv|cfg|ini|sh)$")
SKIP = re.compile(r"^(/|\./|\.\w+$)|[<>${}~…]")
GITIGNORE = ROOT / ".gitignore"
IGNORED = [
    line.strip("/")
    for line in (GITIGNORE.read_text().splitlines() if GITIGNORE.is_file() else [])
    if line and not line.startswith("#")
]


def is_ignored(name: str) -> bool:
    return any(fnmatch.fnmatch(name, pattern) for pattern in IGNORED)


def tree_paths() -> set[str]:
    """Every file and directory under the root, relative, ``/``-separated."""
    paths: set[str] = set()
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d != ".git" and not is_ignored(d)]
        base = Path(directory).relative_to(ROOT).as_posix()
        prefix = "" if base == "." else base + "/"
        paths.update(prefix + name for name in subdirs + files)
    return paths


def doc_words(text: str):
    """``(directory, word)`` for every word in backticks; ``directory`` is
    empty outside directory listings."""
    for block in FENCE.findall(text):
        stack: list[tuple[int, str]] = []
        for line in block.splitlines():
            words = line.split()
            indent = len(line) - len(line.lstrip())
            while stack and stack[-1][0] >= indent:
                stack.pop()
            directory = stack[-1][1] if stack else ""
            if words and re.fullmatch(r"(?:[\w-][\w.-]*/)+", words[0]):
                yield directory, words[0]
                directory += words.pop(0)
                stack.append((indent, directory))
            for word in words:
                yield directory, word
    for _, body in SPAN.findall(FENCE.sub("", text)):
        for word in body.split():
            yield "", word


def path_token(word: str, top_level: set[str]) -> str | None:
    """The path ``word`` cites, or ``None`` when it cites none."""
    word = word.lstrip("(\"'").rstrip(".,;:)\"'").rsplit("=", 1)[-1].split(":")[0]
    first = word.split("/")[0]
    if not re.search(r"[A-Za-z]", word) or SKIP.search(word) or is_ignored(first):
        return None
    nested = first != word and first in top_level
    return word if EXTENSION.search(word) or word.endswith("/") or nested else None


def resolves(token: str, paths: set[str]) -> bool:
    if any(char in token for char in "*?["):
        return "/" not in token or any(ROOT.glob(token))
    token = token.rstrip("/")
    return token in paths or sum(path.endswith("/" + token) for path in paths) == 1


def cited_paths(doc: Path, top_level: set[str]) -> list[str]:
    words = doc_words(doc.read_text(encoding="utf-8"))
    tokens = ((directory, path_token(word, top_level)) for directory, word in words)
    return [directory + token for directory, token in tokens if token]


@pytest.fixture(scope="module")
def tree():
    paths = tree_paths()
    return paths, {path for path in paths if "/" not in path}


@pytest.mark.parametrize(
    "doc", [doc for doc in DOCS if doc.is_file()], ids=lambda doc: doc.name
)
def test_cited_paths_resolve(doc, tree):
    paths, top_level = tree
    missing = sorted({t for t in cited_paths(doc, top_level) if not resolves(t, paths)})
    assert not missing, f"{doc.name} cites paths that do not resolve: {missing}"


def test_the_scan_sees_citations_and_rejects_what_is_gone(tree):
    paths, top_level = tree
    cited = {t for doc in DOCS if doc.is_file() for t in cited_paths(doc, top_level)}
    assert {"benchmarks/layers/run.py", "BENCHMARK.json"} <= cited
    assert resolves("relalg/compiled.py", paths)
    assert resolves("tests/experiments/test_*.py", paths)
    assert not resolves("benchmarks/bench_deleted_driver.py", paths)
    assert not resolves("__init__.py", paths)  # names many files
    assert path_token("9fd2e7d:deleted.json", top_level) is None


# ----------------------------------------------------------------------
# Documented CLI flags exist
# ----------------------------------------------------------------------
#: ``python -m repro <subcommand>`` (``run|program`` names two) or
#: ``python -m repro.experiments <figure>``, then the rest of the command
#: up to a shell operator or comment.
COMMAND = re.compile(
    r"\bpython3? -m repro(?:\s+([a-z]+(?:\|[a-z]+)*)|\.experiments\s+([^\s-]\S*))"
    r"(.*?)(?=\s[|;&>#]|$)",
    re.S,
)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def documented_commands(text: str):
    """``(subcommand, flags)`` for every ``python -m repro`` command in a
    fenced block line (``\\``-continued lines joined) or backticked span;
    a ``python -m repro.experiments`` command's subcommand is
    ``experiments <figure>``."""
    bodies = [
        line
        for block in FENCE.findall(text)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    bodies += [body for _, body in SPAN.findall(FENCE.sub("", text))]
    for body in bodies:
        for match in COMMAND.finditer(body):
            flags = FLAG.findall(match.group(3))
            if match.group(2):
                yield f"experiments {match.group(2)}", flags
                continue
            for subcommand in match.group(1).split("|"):
                yield subcommand, flags


def _visible(parser) -> set[str]:
    """A parser's option strings; a flag whose help is suppressed is hidden."""
    import argparse

    return {
        flag
        for action in parser._actions
        if action.help is not argparse.SUPPRESS
        for flag in action.option_strings
    }


def visible_flags() -> dict[str, set[str]]:
    """``{subcommand: flags}``, with ``experiments <figure>`` for every
    figure ``python -m repro.experiments`` accepts."""
    import argparse

    from repro.__main__ import build_argument_parser
    from repro.experiments.__main__ import (
        build_argument_parser as build_experiments_parser,
    )
    from repro.experiments.figures import FIGURES

    (commands,) = (
        action
        for action in build_argument_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {name: _visible(parser) for name, parser in commands.choices.items()}
    experiments = _visible(build_experiments_parser())
    for figure in [*FIGURES, "all"]:
        flags[f"experiments {figure}"] = experiments
    return flags


def unknown_commands(text: str) -> list[str]:
    """Documented subcommands, figures and flags that do not exist."""
    flags = visible_flags()
    experiments = flags["experiments all"]
    unknown = []
    for subcommand, used in documented_commands(text):
        known = flags.get(subcommand)
        if known is None and SKIP.search(subcommand):
            known = experiments  # a placeholder figure such as <figure>
        if known is None:
            unknown.append(subcommand)
            continue
        unknown += [f"{subcommand} {flag}" for flag in used if flag not in known]
    return sorted(unknown)


@pytest.mark.parametrize(
    "doc", [doc for doc in DOCS if doc.is_file()], ids=lambda doc: doc.name
)
def test_documented_cli_flags_exist(doc):
    unknown = unknown_commands(doc.read_text(encoding="utf-8"))
    assert not unknown, f"{doc.name} documents CLI commands that do not exist: {unknown}"


def test_the_flag_scan_sees_commands_and_rejects_hidden_flags():
    text = (
        "```bash\npython -m repro serve --port 0 \\\n    --workers 2  # a note --x\n```\n"
        "Or `python -m repro run|program ... --engine compiled` and\n"
        "`python -m repro plan \"q(X) :- e(X).\" --dot | dot -Tpng --y`.\n"
    )
    assert list(documented_commands(text)) == [
        ("serve", ["--port", "--workers"]),
        ("run", ["--engine"]),
        ("program", ["--engine"]),
        ("plan", ["--dot"]),
    ]
    flags = visible_flags()
    assert {"--help", "--workers"} <= flags["serve"]
    assert "--dot" in flags["plan"] and "--dot" not in flags["serve"]


def test_the_scan_checks_experiment_figures_and_flags():
    text = (
        "```bash\npython -m repro.experiments fig6 --seeds 2  # --x\n"
        "python -m repro.experiments fig10 --summary\n```\n"
        "Run `python -m repro.experiments <figure> --summary --colour`,\n"
        "`python -m repro.experiments all --port 1` or the `python -m\n"
        "repro.experiments` package.\n"
    )
    assert list(documented_commands(text)) == [
        ("experiments fig6", ["--seeds"]),
        ("experiments fig10", ["--summary"]),
        ("experiments <figure>", ["--summary", "--colour"]),
        ("experiments all", ["--port"]),
    ]
    assert unknown_commands(text) == [
        "experiments <figure> --colour",
        "experiments all --port",
        "experiments fig10",
    ]
