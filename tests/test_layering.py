"""Each module owns its decisions: the packed-word layout stays in `_bitops`,
`sampling` never reaches for a concrete family type, families are built as
packed rows, the CLI and the harness call the library's own certification
loop and size formulas, and the library holds no code that only the tests
call and no calibrated constant that nothing reads: every exported name and
every public method has a caller outside the tests, or is a stated entry
point."""

import ast
from pathlib import Path

import relapprox

SOURCES = sorted(Path(relapprox.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# the library, its scripts and its benchmark: what may call a public definition
CALLERS = SOURCES + [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
LAYOUT_NAMES = {"bitwise_count", "_BLOCK_BYTES"}


def names_used(tree: ast.AST, skip_bound: bool = False) -> set[str]:
    """Every bare name and attribute name that the module mentions; with
    `skip_bound`, less the bare names that the code binds itself (a local
    variable that shares a definition's name does not call it)."""
    bound = set()
    if skip_bound:
        stores = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
        bound = {n.id for n in stores if isinstance(n.ctx, ast.Store)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in bound:
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
    # every generator builds packed rows; from_masks serves callers that hold
    # Python-int masks (the tests' oracles), and the benchmark's tracer wraps it
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
    copied = {
        "iterated_halving", "seed_sequence",
        "basic_sample_size", "main_sample_size", "halving_sample_size", "chaining_sample_size",
    }
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


# Entry points of the product that nothing in the library, its scripts or its
# benchmark calls by name, each with the reason it stays; a method is named
# "Class.method".
ENTRY_POINTS = {
    "SetSystem.from_masks": "the constructor from Python-int masks; the tracer wraps it by string",
}


def _units() -> list[tuple[str | None, set[str], str | None]]:
    """(key, names used, key of the enclosing class) for every statement
    outside the package's `__init__`: a library definition is keyed
    "module.name", a public method of a public class "module.Class.method"
    (its class's unit then holds the rest of the class), and any other
    statement, a script's or the benchmark's included, has no key."""
    units = []
    for path in CALLERS:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            defined = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path in SOURCES
            if not defined:
                units.append((None, names_used(node, True), None))
                continue
            key = f"{path.stem}.{node.name}"
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                units.append((key, names_used(node, True), None))
                continue
            methods = [
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
            rest = [s for s in node.body if s not in methods] + node.bases + node.decorator_list
            units.append((key, set().union(*(names_used(r, True) for r in rest)), None))
            units += [(f"{key}.{m.name}", names_used(m, True), key) for m in methods]
    return units


def test_every_export_and_public_method_has_a_caller_outside_the_tests():
    # a definition is called when a statement other than itself names it and
    # that statement is not itself uncalled (a method that only an uncalled
    # function calls is uncalled too); the tests and __init__ do not count
    units = _units()
    uncalled: set[str] = set()

    def called(key: str) -> bool:
        name = key.rsplit(".", 1)[1]
        return any(
            name in names
            for other, names, parent in units
            if key not in (other, parent) and not {other, parent} & uncalled
        )

    while found := {
        key
        for key, _, _ in units
        if key and key not in uncalled and key.split(".", 1)[1] not in ENTRY_POINTS
        and not called(key)
    }:
        uncalled |= found
    exported = {
        f"{getattr(relapprox, name).__module__.rsplit('.', 1)[1]}.{name}"
        for name in relapprox.__all__
    }
    methods = {key for key, _, parent in units if parent}
    assert sorted(uncalled & (exported | methods)) == []


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


def test_every_constant_has_a_reader():
    # a reader reads the field as an attribute outside the constants' own I/O
    sampling = ast.parse(Path(relapprox.__file__).with_name("sampling.py").read_text())
    (cls,) = [n for n in sampling.body if isinstance(n, ast.ClassDef) and n.name == "Constants"]
    fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    own_io = {"Constants", "load_constants", "write_constants_json", "_cmd_calibrate"}
    read = {
        node.attr
        for path in CALLERS
        for top in ast.parse(path.read_text()).body
        if getattr(top, "name", None) not in own_io
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(fields - read) == []
