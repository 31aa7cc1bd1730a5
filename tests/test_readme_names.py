"""The code names of the README's library layout must resolve in the library.

Each layout row names its module in the first column.  In the second,
a backticked bare identifier resolves as an attribute of that module,
`module.name` as an attribute of hyperkernel.module, and `Class.name`
as an attribute of a class of that module.  The Records
paragraph below the table names records of several modules, so a bare
identifier there resolves in any of them or in the package itself.  A
standard-library module, bare or as `module.name`, resolves too.
Backticked text that is not an identifier (`H/beta`, `len(w)`,
`tests/oracles.py`) is not a name and is skipped.  A rename, or a move
out of `src/`, fails here instead of misleading a reader.

Every budget limit `src/` defines is stated in the README with its
value, so the budget prose cannot drift from the code.

Every public name `src/` defines is either read by `src/` or named in
the README, so code that only the tests call does not settle in the
library.
"""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import hyperkernel

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(hyperkernel.__file__).resolve().parent
MODULES = tuple(m.name for m in pkgutil.iter_modules(hyperkernel.__path__))
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
ROW = re.compile(r"^\| `hyperkernel\.(\w+)` \| (.*) \|$")

# Backticked words that are no name of the module they sit by: a value
# and a command in the core row, a module named from the groups row, and
# the kernels row's mention of relations.join.
NOT_NAMES = {
    ("core", "None"),
    ("core", "check"),
    ("groups", "relations"),
    ("kernels", "join"),
}


def _module(name: str):
    """The hyperkernel module, the package or the standard-library module
    called name, or None."""
    if name in MODULES:
        return importlib.import_module(f"hyperkernel.{name}")
    if name == "hyperkernel" or name in sys.stdlib_module_names:
        return importlib.import_module(name)
    return None


def _resolves(token: str, context: list) -> bool:
    head, _, attr = token.rpartition(".")
    if head:
        module = _module(head.removeprefix("hyperkernel."))
        owners = [module] if module is not None else [getattr(m, head, None) for m in context]
        return any(o is not None and hasattr(o, attr) for o in owners)
    return token in sys.stdlib_module_names or any(hasattr(m, token) for m in context)


def readme_names() -> list[tuple[str, str]]:
    """(section, token) for each distinct backticked identifier: a
    section is a layout row's module name, or "Records"."""
    text = README.read_text(encoding="utf-8")
    layout = text[text.index("## Library layout"):]
    out = []
    for line in layout.splitlines():
        m = ROW.match(line)
        if m:
            out += [(m.group(1), t) for t in re.findall(r"`([^`]+)`", m.group(2))]
    records = layout[layout.index("Records:"):].split("\n\n", 1)[0]
    out += [("Records", t) for t in re.findall(r"`([^`]+)`", records)]
    return list(dict.fromkeys((s, t) for s, t in out if IDENTIFIER.fullmatch(t)))


@pytest.mark.parametrize(
    "section, token", [n for n in readme_names() if n not in NOT_NAMES]
)
def test_readme_name_resolves(section, token):
    if section == "Records":
        context = [hyperkernel, *map(_module, MODULES)]
    else:
        context = [_module(section)]
    assert _resolves(token, context), f"{section}: {token}"


def test_skipped_words_are_still_in_the_readme():
    names = readme_names()
    assert len(names) > 80
    assert NOT_NAMES <= set(names)


def test_memo_paragraph_names_every_per_table_function():
    # Each function src/ decorates with @per_table is named in the
    # README's per-table memo paragraph, bare or as `module.name`.
    decorated = re.compile(r"^@per_table\b.*\n(?:@.*\n)*def (\w+)", re.M)
    found = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in decorated.findall(path.read_text(encoding="utf-8"))
    }
    text = README.read_text(encoding="utf-8")
    memo = text[text.index("Per-table memo:"):].split("\n\n", 1)[0]
    named = set(re.findall(r"`([^`]+)`", memo))
    assert len(found) > 15
    missing = [f"{m}.{n}" for m, n in sorted(found) if n not in named and f"{m}.{n}" not in named]
    assert missing == []


def _spellings(value: int) -> set[str]:
    """How the README writes a limit: 4,000,000, or 2^20 for a power of two."""
    out = {f"{value:,}"}
    if value & (value - 1) == 0:
        out.add(f"2^{value.bit_length() - 1}")
    return out


def test_readme_states_every_budget_limit():
    # A paragraph that names the constant, bare or as `module.NAME`,
    # also gives its value.
    limits = {
        name: getattr(importlib.import_module(f"hyperkernel.{path.stem}"), name)
        for path in SRC.glob("*.py")
        for name in re.findall(r"^(\w*BUDGET) = ", path.read_text(encoding="utf-8"), re.M)
    }
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    assert len(limits) >= 4
    for name, value in limits.items():
        named = [p for p in paragraphs if re.search(rf"`(\w+\.)?{name}`", p)]
        assert named, name
        assert any(s in p for p in named for s in _spellings(value)), name


def _public_defs():
    """(module, class or None, def node) for each public module-level
    function or class of src/, and each public method of such a class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, None, node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, node.name, item


def _loaded_names():
    """(module, line, identifier) for each name or attribute src/ reads."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield path.stem, node.lineno, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield path.stem, node.lineno, node.attr


def test_every_public_name_is_run_or_documented():
    """Each public function, class and method of src/ is read by code in
    src/ outside its own definition, or named in its module's layout row
    or in the Records paragraph (bare, as `Class.name` or as
    `module.name`).

    A guard against regrowth, not a proof: a read is matched by
    identifier alone, so a method is counted as run when any attribute
    of that name is read, and a name read only on a path that no
    command takes still passes.
    """
    loaded = list(_loaded_names())
    documented = set(readme_names())
    unused = []
    for module, owner, node in _public_defs():
        name = node.name
        if any(
            ident == name and not (mod == module and node.lineno <= line <= node.end_lineno)
            for mod, line, ident in loaded
        ):
            continue
        spellings = {name, f"{owner}.{name}", f"{module}.{name}"}
        if not any((s, t) in documented for s in (module, "Records") for t in spellings):
            unused.append(f"{module}.{owner}.{name}" if owner else f"{module}.{name}")
    assert not unused, f"neither run by src/ nor named in the README: {unused}"
