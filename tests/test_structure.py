"""Import discipline of the package, read from its source with ``ast``.

A module uses other modules only through their public names, and imports
them at module level, where the dependency is visible at a glance.
"""
import ast
from pathlib import Path

import pytest

import singulant

PACKAGE_DIR = Path(singulant.__file__).parent


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "singulant"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "singulant" for a in node.names)
    return False


def import_violations(source: str):
    """(line, reason) for each private or function-level package import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if _is_package_import(inner):
                    found.append((inner.lineno, f"import inside {node.name}()"))
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"private name {alias.name}"))
    return sorted(set(found))


def test_checker_flags_both_kinds_of_import():
    source = (
        "from .poly import Polynomial\n"
        "from .resolve import _column_degree\n"
        "from singulant.groebner import _reduce\n"
        "def f():\n"
        "    from .poly import Monomial\n"
        "    import singulant.poly\n"
        "    from fractions import Fraction\n"
    )
    assert import_violations(source) == [
        (2, "private name _column_degree"),
        (3, "private name _reduce"),
        (5, "import inside f()"),
        (6, "import inside f()"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_are_public_and_module_level(path):
    assert import_violations(path.read_text(encoding="utf-8")) == []


# perfbench's tracer rebinds and checks every alias of these functions, so
# homalg keeps importing them unused (resolve's check_exactness calls its
# buchberger); __init__ only re-exports
TRACER_ALIASES = {"homalg": {"buchberger", "trim_generators"}}


def unused_imports(source: str):
    """Names a module imports at module level and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_import_check_reads_names_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .poly import Polynomial, Monomial as M\n"
        "def f(p: Polynomial):\n"
        "    return os\n"
    )
    assert unused_imports(source) == {"M"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE_DIR.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == TRACER_ALIASES.get(
        path.stem, set())


# the one kernel routine, and the reference check that re-derives kernels on
# purpose, are the only callers of the syzygy engine
SYZYGY_CALLERS = {"ideal_ops.RingPresentation.kernel_into", "resolve.check_exactness"}

# a corpus member's one resolution is the only source of its syzygy chain in
# the report; the golden ledger's Betti and Ext^2 checks resolve their own
# modules, once each
REPORT_RESOLUTION_CALLERS = {"report.RingContext.resolution",
                             "report.verify_paper_examples.betti_residue_family",
                             "report.verify_paper_examples.ext2_kill_family"}
GROW_CALLERS = {"resolve.free_resolution", "report.RingContext.resolution"}
# a corpus member is presented once, in the scope of its first resolution;
# only the Ext^2 check presents its own targets
REPORT_PRESENTATION_CALLERS = {"report.verify_paper_examples.ext2_kill_family"}

# one ring context per ring and command: the report and the bound command
# make one each, and the golden ledger one per golden ring, which every entry
# that reads that ring's facts or sweeps its corpus shares
CONTEXT_CONSTRUCTORS = {"report.build_report", "report.verify_paper_examples", "cli._bound"}
# the report tests its corpus through its contexts, never through homalg's own
# corpus sweep or stable test, which resolve or present afresh
REPORT_UNUSED_HOMALG = {"ca_witness", "stable_annihilation_test"}
# one stable test: the span is built for one module by homalg's test, and once
# per link by the sweep; the report builds no Ext group of its corpus, so the
# golden ledger's Ext^2-kill check is its one reader of a resolution's Ext
STABLE_SPAN_BUILDERS = {"homalg.stable_annihilation_test", "report.RingContext.certify"}
REPORT_EXT_CALLERS = {"report.verify_paper_examples.ext2_kill_family"}
# socle generators are certified by the syzygy argument, with no corpus work;
# the golden ledger's ca^3 claim is the report's one ca_witness sweep
CA_WITNESS_CALLERS = {"report.verify_paper_examples.ca3_y_evidence"}

# each resolution step, each presentation of a subquotient, and the one
# builder that lays out Hom(F, N) and K(f; M) take a minimal kernel; a second
# block layout would be a fourth caller
MINIMAL_KERNEL_CALLERS = {"resolve.FreeResolution.grow", "homalg.Subquotient.to_module",
                          "homalg._cohomology"}

# every membership test in a submodule over R = P/I runs on one span seeded
# with I * R^rank: the trim, the zero test of a presentation with a constant
# term left, the stable test, an Ext or Koszul group's boundaries and the
# k-dimension count; none builds a GroebnerBasis for it
SEEDED_LOOP_CALLERS = {"resolve.trim_generators", "resolve.minimal_presentation",
                       "homalg.StableSpan.__init__", "homalg.Subquotient.is_boundary",
                       "homalg.module_k_dimension"}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(node):
    """The nodes of node's body, not entering nested functions or classes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def callers(source: str, module: str, callee: str):
    """Qualified names of the functions in source that call ``callee``,
    by plain name or as an attribute; a call inside a nested function
    counts for the innermost one, a call inside a lambda for its function."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, ast.Call) and (
                            getattr(n.func, "id", None) == callee
                            or getattr(n.func, "attr", None) == callee)
                        for n in _own_nodes(child)):
                    found.add(name)
                visit(child, name)

    visit(ast.parse(source), module)
    return found


def package_callers(callee: str):
    found = set()
    for path in PACKAGE_DIR.glob("*.py"):
        found |= callers(path.read_text(encoding="utf-8"), path.stem, callee)
    return found


def test_syzygy_caller_check_sees_functions_and_methods():
    source = (
        "def f(x):\n"
        "    return syzygies(x)\n"
        "class A:\n"
        "    def g(self):\n"
        "        return groebner.syzygies([])\n"
        "    def h(self):\n"
        "        return self.g()\n"
        "def outer():\n"
        "    def inner():\n"
        "        return (lambda: syzygies([]))()\n"
        "    return inner\n"
    )
    assert callers(source, "m", "syzygies") == {"m.f", "m.A.g", "m.outer.inner"}
    assert callers(source, "m", "g") == {"m.A.h"}


def test_only_the_kernel_routine_calls_syzygies():
    assert package_callers("syzygies") == SYZYGY_CALLERS


def test_the_report_resolves_each_member_on_one_path():
    source = (PACKAGE_DIR / "report.py").read_text(encoding="utf-8")
    assert callers(source, "report", "free_resolution") == REPORT_RESOLUTION_CALLERS
    assert package_callers("grow") == GROW_CALLERS
    assert callers(source, "report", "minimal_presentation") == REPORT_PRESENTATION_CALLERS


def test_one_builder_lays_out_every_cohomology():
    assert package_callers("minimal_kernel") == MINIMAL_KERNEL_CALLERS


def imported_names(source: str):
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_one_corpus_context_per_ring():
    source = (PACKAGE_DIR / "report.py").read_text(encoding="utf-8")
    assert package_callers("RingContext") == CONTEXT_CONSTRUCTORS
    assert not imported_names(source) & REPORT_UNUSED_HOMALG
    assert callers(source, "report", "ca_witness_from_resolutions") == CA_WITNESS_CALLERS


def test_one_stable_test():
    source = (PACKAGE_DIR / "report.py").read_text(encoding="utf-8")
    assert package_callers("StableSpan") == STABLE_SPAN_BUILDERS
    assert callers(source, "report", "ext_from_resolution") == REPORT_EXT_CALLERS


def test_one_seeded_span_per_membership_job():
    assert package_callers("seeded_loop") == SEEDED_LOOP_CALLERS
    assert not hasattr(singulant.ideal_ops.RingPresentation, "module_basis")


# a module's relations and a resolution's differentials are stored as
# columns; their row-major views are read only where they are built
# (resolve), printed (cli) and matched against the golden Koszul entry
# (report.verify_paper_examples).  Only a module that imports resolve holds
# those objects; a class reading its own attributes through self, as the
# Koszul complex its own differential, reads no view.
ROW_VIEWS = {"rows", "differentials", "differential"}
ROW_VIEW_READERS = {"resolve", "cli", "report.verify_paper_examples"}


def attribute_readers(source: str, module: str, attrs):
    """Qualified names of the scopes in source that read one of ``attrs``
    from anything but ``self``; a module-level read counts for the module."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr in attrs
                    and getattr(child.value, "id", None) != "self"):
                found.add(prefix)
            visit(child, f"{prefix}.{child.name}" if isinstance(child, _SCOPES) else prefix)

    visit(ast.parse(source), module)
    return found


def test_attribute_reader_check_sees_scopes_and_skips_self():
    source = (
        "top = m.rows\n"
        "def f(res):\n"
        "    return res.differential(1)\n"
        "class A:\n"
        "    def g(self):\n"
        "        return self.rows, self.differential(2)\n"
        "def outer(mod):\n"
        "    def inner():\n"
        "        return mod.differentials\n"
        "    return inner\n"
    )
    assert attribute_readers(source, "m", ROW_VIEWS) == {"m", "m.f", "m.outer.inner"}


def test_the_matrix_format_lives_in_resolve():
    readers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        if path.stem == "resolve" or "resolve" in {
                node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.level == 1}:
            readers |= attribute_readers(source, path.stem, ROW_VIEWS)
    assert readers and all(
        any(r == a or r.startswith(a + ".") for a in ROW_VIEW_READERS) for r in readers), readers
