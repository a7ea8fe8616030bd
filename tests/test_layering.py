"""Each module owns its decisions: the packed-word layout stays in `_bitops`,
`sampling` never reaches for a concrete family type, families are built as
packed rows, the CLI and the harness call the library's own certification
loop and size formulas, and the library holds no code that only the tests
call."""

import ast
from pathlib import Path

import relapprox

SOURCES = sorted(Path(relapprox.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# the library, its scripts and its benchmark: what may call a public definition
CALLERS = SOURCES + [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
LAYOUT_NAMES = {"bitwise_count", "_BLOCK_BYTES"}


def names_used(tree: ast.AST) -> set[str]:
    """Every bare name and attribute name that the module mentions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def modules_imported(tree: ast.AST) -> set[str]:
    """The relapprox modules a module imports from, by bare name, wherever
    the import stands (a TYPE_CHECKING block included)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.rsplit(".", 1)[-1])
            if node.module in (None, "relapprox"):  # from . import set_system
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return found


def test_sources_are_found():
    assert {"_bitops", "sampling", "set_system", "packing"} <= {p.stem for p in SOURCES}


def test_only_bitops_popcounts_packed_words_or_sizes_its_blocks():
    offenders = {
        path.stem: sorted(LAYOUT_NAMES & names_used(ast.parse(path.read_text())))
        for path in SOURCES
        if path.stem != "_bitops"
    }
    assert {k: v for k, v in offenders.items() if v} == {}


def test_only_set_system_packs_python_int_masks():
    # every generator builds packed rows; from_masks is the tests' constructor
    int_masks = {"from_masks", "pack_masks"}
    offenders = {
        path.stem: sorted(int_masks & names_used(ast.parse(path.read_text())))
        for path in SOURCES
        if path.stem != "set_system"
    }
    assert {k: v for k, v in offenders.items() if v} == {}


def test_sampling_does_not_import_set_system():
    tree = ast.parse(Path(relapprox.__file__).with_name("sampling.py").read_text())
    assert "set_system" not in modules_imported(tree)


def test_cli_runs_no_construction_loop_or_size_formula_of_its_own():
    tree = ast.parse(Path(relapprox.__file__).with_name("cli.py").read_text())
    copied = {"iterated_halving", "seed_sequence", "formula_sample_size"}
    assert copied & names_used(tree) == set()


def test_harness_sizes_every_sample_through_formula_size():
    tree = ast.parse(Path(relapprox.__file__).with_name("harness.py").read_text())
    formulas = {"main_sample_size", "halving_sample_size", "chaining_sample_size"}
    assert formulas & names_used(tree) == set()


def test_every_public_definition_is_exported_or_called_outside_the_tests():
    # a name counts as called when a statement other than its own definition
    # names it, in the library, a script or the benchmark
    statements = [
        (path, node, names_used(node))
        for path in CALLERS
        for node in ast.parse(path.read_text()).body
    ]
    uncalled = [
        f"{path.stem}.{node.name}"
        for path, node, _ in statements
        if path in SOURCES
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in relapprox.__all__
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert uncalled == []


def test_one_las_vegas_loop():
    # certified halving and stage 2 of the combined construction retry
    # through one loop over max_retries
    loops = [
        path.stem
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.For) and "max_retries" in names_used(node.iter)
    ]
    assert loops == ["halving"]
