"""Every module-level function and class in src/mrlrc has a caller in
the product, src/mrlrc or the benchmark in perfbench/.

Uses are read from the syntax trees, so a mention in a docstring or a
comment does not count: an `ast.Name` or `ast.Attribute` with the
definition's name, or an import alias in `mrlrc/__init__.py` (the
package's public names) or in perfbench/.  A use inside a definition
that itself has no caller does not count either, so code reached only
from test-only code is found as well.  Test-only code belongs in
tests/oracles.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definitions that stay in src although the product never calls them
ALLOWED = {
    "pattern_at": "mr: the index oracle of the strided pattern walk",
    "enumerate_patterns": "mr: the pattern-by-pattern oracle of the block walk",
    "erase_decode_dense": "mr: the dense decoder the codec is checked against",
    "to_block_code": "sdss: systems to block codes, one half of the paper's equivalence",
    "from_block_code": "sdss: block codes to systems, the other half",
    "parse_matrix": "fileio: the public reader of the block format every .mr file embeds",
}


def _uses(tree, aliases: bool) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif aliases and isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _definitions():
    """[(module, name, names its body uses)] for the top-level definitions
    of src/mrlrc, and the names that every other statement uses."""
    defs, outside = [], set()
    for path in sorted((ROOT / "src" / "mrlrc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name, _uses(node, False) - {node.name}))
            else:
                outside |= _uses(node, path.name == "__init__.py")
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _uses(ast.parse(path.read_text()), True)
    return defs, outside


def _uncalled() -> set[tuple[str, str]]:
    """The definitions with no use outside definitions that have none;
    the uses inside an allowed definition count."""
    defs, outside = _definitions()
    found: set[tuple[str, str]] = set()
    while True:
        used = outside.union(*(uses for mod, name, uses in defs
                               if (mod, name) not in found or name in ALLOWED))
        now = {(mod, name) for mod, name, _ in defs if name not in used}
        if now == found:
            return found
        found = now


def test_every_src_definition_has_a_caller_in_the_product():
    uncalled = _uncalled()
    stray = sorted(f"{mod}.{name}" for mod, name in uncalled if name not in ALLOWED)
    assert not stray, f"no caller in src/mrlrc or perfbench/: {', '.join(stray)}"
    # an allowed name that is gone or now has a caller leaves the list
    assert {name for _, name in uncalled} >= set(ALLOWED)
