#!/usr/bin/env python
"""Documentation checker: link integrity + executable code blocks.

Run from the repo root (CI does)::

    PYTHONPATH=src python tools/check_docs.py

Checks, over ``README.md`` and every ``docs/*.md``:

* **links** — every relative markdown link ``[text](target)`` must
  resolve to an existing file (anchors are stripped; ``http(s)``/
  ``mailto`` targets are skipped — CI stays hermetic).
* **doctests** — fenced ```python blocks containing ``>>>`` prompts
  run under :mod:`doctest` with a fresh namespace per block; expected
  output must match exactly, so the docs cannot drift from the code.
* **syntax** — remaining ```python blocks (no prompts) must at least
  compile, catching renamed-API rot in illustrative snippets.
* **bench cells** — in a "Performance" section, every table with a
  "BENCH keys" column: each number in a row's other cells (after the
  label) must equal, at its printed precision, the
  ``BENCH_codec.json`` value of the key the row names in the same
  position (``{a,b}`` expands left to right).
* **wire routes** — the `` `METHOD /path` `` table rows of
  ``docs/distributed.md`` and ``docs/observability.md`` together name
  exactly the queue server's routes (``net._ROUTES``), no more and no
  fewer; a query string in a row is ignored.

Exit status is the number of failing files (0 = everything holds).
"""

from __future__ import annotations

import doctest
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — target captured up to the first ')' or whitespace.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: fenced code blocks with their info string.
_FENCE = re.compile(r"^```(\w*)\s*$([\s\S]*?)^```\s*$", re.MULTILINE)
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")
#: a "## Performance" section, up to the next level-2 heading.
_PERFORMANCE = re.compile(r"^## Performance$(.*?)(?=^## |\Z)", re.MULTILINE | re.DOTALL)
_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_BRACES = re.compile(r"\{([^}]*)\}")
_BENCH_COLUMN = "BENCH keys"
#: a table row opening with `` `GET /path?query` ``.
_ROUTE_ROW = re.compile(r"^\|\s*`(GET|POST) (/[^`?\s]*)", re.MULTILINE)
#: the guides whose tables document the queue server's endpoints.
_WIRE_DOCS = ("distributed.md", "observability.md")


def check_links(path: pathlib.Path, text: str) -> list[str]:
    errors = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_SKIP_SCHEMES):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path}: broken link -> {target}")
    return errors


def check_code_blocks(path: pathlib.Path, text: str) -> list[str]:
    errors = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    parser = doctest.DocTestParser()
    for index, match in enumerate(_FENCE.finditer(text)):
        language, body = match.group(1), match.group(2)
        if language != "python":
            continue
        name = f"{path.name}[block {index}]"
        if ">>>" in body:
            test = parser.get_doctest(body, {}, name, str(path), 0)
            result = runner.run(test, clear_globs=True)
            if result.failed:
                errors.append(
                    f"{path}: {result.failed} doctest failure(s) in "
                    f"code block {index}"
                )
        else:
            try:
                compile(body, name, "exec")
            except SyntaxError as exc:
                errors.append(
                    f"{path}: code block {index} does not compile ({exc})"
                )
    return errors


def _expand(pattern: str) -> list[str]:
    """``a.{b,c}.{d,e}`` -> ``a.b.d, a.b.e, a.c.d, a.c.e``."""
    match = _BRACES.search(pattern)
    if match is None:
        return [pattern]
    head, tail = pattern[: match.start()], pattern[match.end() :]
    return [
        key for option in match.group(1).split(",")
        for key in _expand(head + option + tail)
    ]


def _bench_value(bench: dict, key: str):
    value = bench
    for part in key.split("."):
        value = value[part]
    return value


def check_bench_cells(path: pathlib.Path, text: str, bench: dict) -> list[str]:
    errors = []
    for section in _PERFORMANCE.finditer(text):
        header = None
        for line in section.group(1).splitlines():
            if not line.startswith("|"):
                header = None
                continue
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if header is None:
                header = cells
                continue
            if _BENCH_COLUMN not in header or set(line) <= set("|-: "):
                continue
            column = header.index(_BENCH_COLUMN)
            keys = [
                key for pattern in re.findall(r"`([^`]+)`", cells[column])
                for key in _expand(pattern)
            ]
            printed = [n for cell in cells[1:column] for n in _NUMBER.findall(cell)]
            if len(printed) != len(keys):
                errors.append(
                    f"{path}: row {cells[0]!r} prints {len(printed)} "
                    f"number(s) for {len(keys)} BENCH key(s)"
                )
                continue
            for number, key in zip(printed, keys):
                try:
                    value = _bench_value(bench, key)
                except (KeyError, TypeError):
                    errors.append(f"{path}: no BENCH key {key}")
                    continue
                decimals = len(number.partition(".")[2])
                if f"{value:.{decimals}f}" != number:
                    errors.append(
                        f"{path}: {key} is {value:.{decimals}f} in BENCH, "
                        f"{number} in the table"
                    )
    return errors


def check_wire_routes() -> list[str]:
    from repro.pipeline.dist.net import _ROUTES

    documented = {
        match.groups()
        for name in _WIRE_DOCS
        for match in _ROUTE_ROW.finditer(
            (REPO / "docs" / name).read_text(encoding="utf-8")
        )
    }
    return [
        f"docs/{'|'.join(_WIRE_DOCS)}: {method} {path} {problem}"
        for routes, problem in (
            (set(_ROUTES) - documented, "is served but not documented"),
            (documented - set(_ROUTES), "is documented but not served"),
        )
        for method, path in sorted(routes)
    ]


def main() -> int:
    files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    bench = json.loads((REPO / "BENCH_codec.json").read_text(encoding="utf-8"))
    failing_files = 0
    checked_blocks = 0
    for path in files:
        if not path.exists():
            print(f"MISSING {path}")
            failing_files += 1
            continue
        text = path.read_text(encoding="utf-8")
        errors = (
            check_links(path, text)
            + check_code_blocks(path, text)
            + check_bench_cells(path, text, bench)
        )
        checked_blocks += sum(
            1 for m in _FENCE.finditer(text) if m.group(1) == "python"
        )
        if errors:
            failing_files += 1
            for error in errors:
                print(f"FAIL {error}")
        else:
            print(f"ok   {path.relative_to(REPO)}")
    wire_errors = check_wire_routes()
    for error in wire_errors:
        print(f"FAIL {error}")
    if wire_errors:
        failing_files += 1
    else:
        print(f"ok   wire routes in docs/{{{','.join(_WIRE_DOCS)}}}")
    print(
        f"{len(files)} file(s), {checked_blocks} python block(s), "
        f"{failing_files} failing"
    )
    return failing_files


if __name__ == "__main__":
    sys.exit(main())
