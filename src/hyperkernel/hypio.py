"""Table documents and canonical report serialization.

The text format is line oriented:

    # comment
    name: h9
    elements: e a b c
    row e: {e} {a} {b} {c}
    ...

Cells are brace-delimited, comma-separated label sets; every element
needs exactly one row line.  Files ending in .json carry the same data
as {"name": ..., "elements": [...], "table": [[["e"], ...], ...]}.

A table repeats few distinct cells many times, so the parser splits
each row line on '}', checks each distinct cell text once, and maps
each distinct label tuple to its mask once.  Errors still come in the
order a cell-by-cell parse meets them: by line and column within the
text, then unknown labels by row in the order of the elements line.

Reports serialize to canonical JSON: keys sorted, label sets sorted
lexicographically, byte-identical for identical inputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from hyperkernel import errors
from hyperkernel.core import ElementSet, HyperTable, Partition, is_label


def _check_label(lab: str, line: int | None) -> str:
    if not is_label(lab):
        raise errors.ParseError(f"bad label {lab!r}", line)
    return lab


def _cell(part: str, column: int, line: int) -> tuple[str, ...]:
    """Labels of one cell text, the text before a '}' starting at `column`."""
    body = part.lstrip()
    if not body or body[0] != "{":
        raise errors.ParseError(
            f"expected '{{' at column {column + len(part) - len(body) + 1}", line
        )
    inner = body[1:].strip()
    if not inner:
        raise errors.EmptyCell("empty cell", line)
    return tuple(_check_label(tok.strip(), line) for tok in inner.split(","))


def _parse_cells(body: str, line: int, labels_of: dict[str, tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Cells of one row line; `labels_of` maps each cell text already
    checked to its labels, so each distinct text is checked once per parse."""
    parts = body.split("}")
    tail = parts.pop()
    try:
        cells = list(map(labels_of.__getitem__, parts))
    except KeyError:
        cells = []
        column = 0
        for part in parts:
            cell = labels_of.get(part)
            if cell is None:
                cell = labels_of[part] = _cell(part, column, line)
            cells.append(cell)
            column += len(part) + 1
    rest = tail.lstrip()
    if rest:
        if rest[0] == "{":
            raise errors.ParseError("unterminated cell", line)
        column = len(body) - len(rest)
        raise errors.ParseError(f"expected '{{' at column {column + 1}", line)
    return cells


def parse_hyp(text: str) -> HyperTable:
    """Parse the line-oriented table format."""
    name: str | None = None
    labels: list[str] | None = None
    rows: dict[str, list[tuple[str, ...]]] = {}
    row_lines: dict[str, int] = {}
    cell_labels: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise errors.ParseError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "name":
            name = value.strip() or None
        elif key == "elements":
            if labels is not None:
                raise errors.ParseError("duplicate elements line", lineno)
            labels = [_check_label(tok, lineno) for tok in value.split()]
            if not labels:
                raise errors.ParseError("elements line is empty", lineno)
            seen = set()
            for lab in labels:
                if lab in seen:
                    raise errors.DuplicateLabel(f"duplicate element {lab!r}", lineno)
                seen.add(lab)
        elif key.startswith("row ") or key == "row":
            lab = key[3:].strip()
            if not lab:
                raise errors.ParseError("row line without a label", lineno)
            if lab in rows:
                raise errors.DuplicateLabel(f"duplicate row {lab!r}", lineno)
            rows[lab] = _parse_cells(value, lineno, cell_labels)
            row_lines[lab] = lineno
        else:
            raise errors.ParseError(f"unknown directive {key!r}", lineno)
    if labels is None:
        raise errors.ParseError("missing elements line", None)
    return _build(labels, rows, row_lines, name)


def _build(
    labels: Sequence[str],
    rows: dict[str, list[tuple[str, ...]]],
    row_lines: dict[str, int],
    name: str | None,
) -> HyperTable:
    index = {lab: i for i, lab in enumerate(labels)}
    for lab in rows:
        if lab not in index:
            raise errors.UnknownLabel(f"row for unknown element {lab!r}", row_lines.get(lab))
    masks: dict[tuple[str, ...], int] = {}
    grid = []
    for lab in labels:
        if lab not in rows:
            raise errors.ParseError(f"missing row for {lab!r}", None)
        cells = rows[lab]
        line = row_lines.get(lab)
        if len(cells) != len(labels):
            raise errors.ParseError(
                f"row {lab!r} has {len(cells)} cells, expected {len(labels)}", line
            )
        try:
            row = list(map(masks.__getitem__, cells))
        except KeyError:
            for cell in cells:
                if cell not in masks:
                    masks[cell] = _mask(cell, index, line)
            row = list(map(masks.__getitem__, cells))
        grid.append(row)
    return HyperTable(labels, grid, name=name)


def _mask(cell: tuple[str, ...], index: dict[str, int], line: int | None) -> int:
    mask = 0
    for tok in cell:
        if tok not in index:
            raise errors.UnknownLabel(f"unknown element {tok!r}", line)
        mask |= 1 << index[tok]
    return mask


def _array(value, what: str) -> list:
    """value when it is a JSON array; a string is never read as one."""
    if not isinstance(value, list):
        raise errors.ParseError(f"{what} is not an array", None)
    return value


def parse_hyp_json(text: str) -> HyperTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(f"invalid JSON: {exc}", exc.lineno) from None
    if not isinstance(doc, dict) or "elements" not in doc or "table" not in doc:
        raise errors.ParseError("document needs 'elements' and 'table'", None)
    labels = [str(lab) for lab in _array(doc["elements"], "'elements'")]
    seen = set()
    for lab in labels:
        _check_label(lab, None)
        if lab in seen:
            raise errors.DuplicateLabel(f"duplicate element {lab!r}", None)
        seen.add(lab)
    table = _array(doc["table"], "'table'")
    if len(table) != len(labels):
        raise errors.ParseError("table height differs from elements", None)
    rows = {}
    for lab, row in zip(labels, table):
        cells = []
        for cell in _array(row, f"row {lab!r}"):
            if not cell:
                raise errors.EmptyCell(f"empty cell in row {lab!r}", None)
            tokens = _array(cell, f"a cell in row {lab!r}")
            cells.append(tuple(str(tok) for tok in tokens))
        rows[lab] = cells
    return _build(labels, rows, {}, doc.get("name"))


def load_table(path: str | Path) -> HyperTable:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return parse_hyp_json(text)
    return parse_hyp(text)


def format_hyp(H: HyperTable) -> str:
    """Render a table in the text format; parses back to an equal table."""
    lines = []
    if H.name:
        lines.append(f"name: {H.name}")
    lines.append("elements: " + " ".join(H.names))
    for a in range(H.n):
        cells = " ".join(
            "{" + ",".join(H.names[i] for i in H.cell(a, b)) + "}" for b in range(H.n)
        )
        lines.append(f"row {H.names[a]}: {cells}")
    return "\n".join(lines) + "\n"


def set_labels(names: Sequence[str], S: ElementSet) -> list[str]:
    """Members as lexicographically sorted labels (report canonical form)."""
    return sorted(names[i] for i in S)


def partition_labels(names: Sequence[str], P: Partition) -> list[list[str]]:
    return sorted(set_labels(names, block) for block in P.classes)


def table_doc(H: HyperTable) -> dict:
    """JSON-ready document for a table, cell sets label sorted."""
    return {
        "elements": list(H.names),
        "table": [
            [set_labels(H.names, H.cell(a, b)) for b in range(H.n)]
            for a in range(H.n)
        ],
        **({"name": H.name} if H.name else {}),
    }


def emit_report(doc: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
