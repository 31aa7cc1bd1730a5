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
lexicographically, byte-identical for identical inputs.  The text is
what json.dumps(sort_keys=True, indent=2, ensure_ascii=False) writes,
but a small recursive writer produces it, since json.dumps falls back
to its pure-Python encoder whenever it indents.  A table has few
distinct cells, so table_doc builds one label list per distinct cell
and shares it among the cells that hold it; those lists are read-only.
The writer renders a list of scalars met again at the same depth once.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from pathlib import Path
from typing import Sequence

from hyperkernel import errors
from hyperkernel.core import ElementSet, HyperTable, Partition, bits, is_label


def _check_label(lab: str, line: int | None) -> str:
    if not is_label(lab):
        raise errors.ParseError(f"bad label {lab!r}", line)
    return lab


def _cell(parts: list[str], i: int, line: int) -> tuple[str, ...]:
    """Labels of the cell text parts[i], the text before the i-th '}' of a row."""
    part = parts[i]
    body = part.lstrip()
    if not body or body[0] != "{":
        column = sum(map(len, parts[:i])) + i + len(part) - len(body)
        raise errors.ParseError(f"expected '{{' at column {column + 1}", line)
    inner = body[1:].strip()
    if not inner:
        raise errors.EmptyCell("empty cell", line)
    return tuple(_check_label(tok.strip(), line) for tok in inner.split(","))


def _parse_cells(body: str, line: int, labels_of: dict[str, tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Cells of one row line; `labels_of` maps each cell text already
    checked to its labels, so each distinct text is checked once per parse.

    A row with a new text is walked in column order and each new text is
    checked at its first occurrence, so the first error is the one a
    cell-by-cell parse meets; _cell works out its column only for an
    error message.
    """
    parts = body.split("}")
    tail = parts.pop()
    try:
        cells = list(map(labels_of.__getitem__, parts))
    except KeyError:
        for i, part in enumerate(parts):
            if part not in labels_of:
                labels_of[part] = _cell(parts, i, line)
        cells = list(map(labels_of.__getitem__, parts))
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
    except (RecursionError, ValueError) as exc:  # also too deep, or an integer too long
        raise errors.ParseError(f"invalid JSON: {exc}", getattr(exc, "lineno", None)) from None
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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", None) from None
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
    """JSON-ready document for a table, cell sets label sorted.

    All cells with one mask share one label list: read them, never change
    them in place.
    """
    names = H.names
    masks = {cell for row in H.rows for cell in row}
    labels = {m: sorted(map(names.__getitem__, bits(m))) for m in masks}
    return {
        "elements": list(names),
        "table": [list(map(labels.__getitem__, row)) for row in H.rows],
        **({"name": H.name} if H.name else {}),
    }


def emit_report(doc: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    The text is json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False) for dicts with str keys, lists, tuples, str, int,
    bool and None; any other key or value raises TypeError.
    """
    return _encode(doc, "\n", {}) + "\n"


_CONTAINERS = (dict, list, tuple)


def _encode(value, nl: str, seen: dict) -> str:
    """value as JSON text whose lines after the first start with `nl`.

    `seen` maps an indent to the texts of the lists and tuples of scalars
    written at that depth, by id.  Every object written lives in the
    report for the whole call, so an item met again at the same depth,
    such as a shared table_doc cell, is written once.
    """
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        memo = seen.setdefault(inner, {})
        items = [memo.get(id(item)) or _encode(item, inner, seen) for item in value]
        text = "[" + inner + ("," + inner).join(items) + nl + "]"
        if not any(isinstance(item, _CONTAINERS) for item in value):
            seen.setdefault(nl, {})[id(value)] = text
        return text
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        items = [encode_basestring(k) + ": " + _encode(value[k], inner, seen) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
