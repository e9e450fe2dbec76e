"""Static checks on the source: every file of the package, the tests, the
scripts and the bench parses with Python 3.10's grammar, the oldest version
CI runs; in the package, the tests and the scripts every imported name is
used and every import is at module level; in the package and the scripts
every module-level name but a dunder, and every public method, is read by
the package, a script or the bench; the package imports nothing outside the
standard library, and the error codes it raises are the ones README's table
lists; every mutant of scripts/mutants.py names tests that exist.  Operators
read no names, so the unread-name check cannot see an unused dunder such as
__add__: OPERATORS pins the operator dunders of every class of the package
instead."""

import ast
import os
import re
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "scripts"))
from mutants import MUTANTS, unmatched  # noqa: E402

SRC = os.path.join(ROOT, "src", "fano212")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
# the path of each module whose imports are checked: the package's by file
# name, the tests' and scripts' by folder and file name.  perfbench is left
# out, as its workers import the package inside functions.
CHECKED = {module: os.path.join(SRC, module) for module in MODULES}
CHECKED.update(
    ("%s/%s" % (top, name), os.path.join(ROOT, top, name))
    for top in ("tests", "scripts")
    for name in sorted(os.listdir(os.path.join(ROOT, top))) if name.endswith(".py")
)


def unused_imports(source: str):
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_imports(module):
    with open(CHECKED[module], encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def newer_syntax(source: str):
    """The message of the SyntaxError that parsing with Python 3.10's grammar
    raises, the oldest version CI runs; None when the source parses."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return exc.msg
    return None


def test_checker_flags_syntax_newer_than_3_10():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert newer_syntax(source) is not None
    assert newer_syntax(source.replace("except*", "except")) is None


PARSED = sorted(
    os.path.join(folder, name)
    for top in ("src", "scripts", "tests", "perfbench")
    for folder, _, files in os.walk(os.path.join(ROOT, top))
    for name in files if name.endswith(".py")
)


@pytest.mark.parametrize("path", PARSED, ids=lambda path: os.path.relpath(path, ROOT))
def test_parses_as_python_3_10(path):
    with open(path, encoding="utf-8") as handle:
        assert newer_syntax(handle.read()) is None


def foreign_imports(source: str):
    """Top-level modules named by any import, nested ones included, that are
    neither in the standard library nor the package itself."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append((node.lineno, node.module))
    return [
        (line, name) for line, name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {"fano212"}
    ]


def test_checker_flags_a_foreign_import():
    source = "import os.path\nfrom . import cli\ndef f():\n    import numpy.linalg\n"
    assert foreign_imports(source) == [(4, "numpy.linalg")]


@pytest.mark.parametrize("module", MODULES)
def test_standard_library_only(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as handle:
        assert foreign_imports(handle.read()) == []


def function_level_imports(source: str):
    """(line, function name) of each import inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                (inner.lineno, node.name) for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return sorted(found)


def test_checker_flags_a_function_level_import():
    source = (
        "import os\nclass A:\n    def m(self):\n        from . import cli\n"
        "def f():\n    def g():\n        import heapq\n"
    )
    assert function_level_imports(source) == [(4, "m"), (7, "f"), (7, "g")]


@pytest.mark.parametrize("module", CHECKED)
def test_imports_at_module_level(module):
    with open(CHECKED[module], encoding="utf-8") as handle:
        assert function_level_imports(handle.read()) == []


def names_read(source: str, own: bool = True):
    """Names a source reads: loaded names, attributes and from-imports.  With
    own False a loaded name that the source defines at module level is left
    out: there the source reads its own definition, not another module's."""
    tree = ast.parse(source)
    mine = set() if own else {name for _, name in definitions(tree, methods=False)}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in mine:
                read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def definitions(tree, methods: bool = True):
    """(line, name) of each module-level function, class or assigned name of
    a parsed source and, with methods, of each public method or property of a
    module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            defined.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef) and methods:
            defined += [(f.lineno, f.name) for f in node.body
                        if isinstance(f, functions) and not f.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return defined


def unread_names(source: str, read):
    """(line, name) of each definition of the source (definitions) that is
    not a dunder, private ones included, and is not in the set of names
    read."""
    return [(line, name) for line, name in definitions(ast.parse(source))
            if not (name.startswith("__") and name.endswith("__")) and name not in read]


def test_checker_flags_an_unread_public_name():
    # a private module-level name counts (_C, _u); a dunder and a private
    # method do not; a reader's own g, defined and called there, reads its
    # own definition, not the source's g, which stays unread
    source = (
        "import os\nA = 1\nB: int = 2\n_C = 3\ndef f():\n    return A\n"
        "class K:\n    def dead(self):\n        pass\n    @property\n"
        "    def p(self):\n        pass\n    def __len__(self):\n        return 0\n"
        "    def _h(self):\n        pass\n    def r(self):\n        pass\n"
        "def g():\n    pass\n__all__ = []\n_D = 4\ndef _u():\n    return _D\n"
    )
    reader = "from m import f\nimport m\nm.K().r()\ndef g():\n    return 1\ng()\n"
    read = names_read(source) | names_read(reader, own=False)
    assert "g" in names_read(reader)
    assert unread_names(source, read) == [
        (3, "B"), (4, "_C"), (8, "dead"), (11, "p"), (19, "g"), (23, "_u")
    ]


def reader_sources():
    """The sources that count as readers: the package, the scripts and the
    bench.  The tests do not count, so a name that only a test reads fails."""
    for top in ("src", "scripts", "perfbench"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), encoding="utf-8") as handle:
                        yield handle.read()


@pytest.fixture(scope="module")
def project_reads():
    """The names the readers read, less each reader's reads of its own
    module-level definitions."""
    read = set()
    for source in reader_sources():
        read |= names_read(source, own=False)
    return read


@pytest.mark.parametrize("module", [m for m in CHECKED if not m.startswith("tests/")])
def test_public_names_are_read(module, project_reads):
    # a module's reads of its own definitions count for that module alone
    with open(CHECKED[module], encoding="utf-8") as handle:
        source = handle.read()
    assert unread_names(source, project_reads | names_read(source)) == []


# the operator dunders that each module-level class of the package defines,
# each one read by the package or the bench; a class not named defines none
OPERATORS = {
    "Cyclotomic": {"__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "__pow__"},
    "DivisorClass": {"__add__", "__neg__"},
    "MultiPoly": set(),
}
OPERATOR_DUNDERS = {"__%s%s__" % (side, op)
                    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod",
                               "divmod", "pow", "lshift", "rshift", "and", "xor", "or")
                    for side in ("", "r", "i")} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def operators_defined(source: str):
    """{class name: the operator dunders its body defines or assigns} for
    each module-level class of a source."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            found[node.name] = names & OPERATOR_DUNDERS
    return found


def test_checker_finds_operators():
    source = (
        "class A:\n    def __add__(self, o):\n        pass\n    __radd__ = __add__\n"
        "    def __eq__(self, o):\n        pass\n    def __init__(self):\n        pass\n"
        "class B:\n    x = 1\n"
        "def f():\n    class C:\n        def __neg__(self):\n            pass\n"
    )
    assert operators_defined(source) == {"A": {"__add__", "__radd__"}, "B": set()}


def test_operators_are_the_pinned_ones():
    found = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as handle:
            found.update(operators_defined(handle.read()))
    assert {name: ops for name, ops in found.items() if ops or name in OPERATORS} == OPERATORS


def error_codes(source: str):
    """The codes a source gives InputError or ParseError: every string
    literal in the code argument of a call (the first argument of InputError,
    the third or `code=` of ParseError) and the default of a parameter named
    code."""
    position = {"InputError": 0, "ParseError": 2}
    codes = set()
    for node in ast.walk(ast.parse(source)):
        arguments = []
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in position:
            arguments = node.args[position[node.func.id]:][:1]
            arguments += [k.value for k in node.keywords if k.arg == "code"]
        elif isinstance(node, ast.FunctionDef) and node.args.defaults:
            params = node.args.args[-len(node.args.defaults):]
            arguments = [d for p, d in zip(params, node.args.defaults) if p.arg == "code"]
        codes |= {c.value for a in arguments for c in ast.walk(a)
                  if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return codes


def test_checker_finds_error_codes():
    source = (
        "class ParseError(InputError):\n"
        "    def __init__(self, line, message, code='syntax'):\n        pass\n"
        "def f(key, exc):\n    InputError('a' if key else 'b', 'message %s' % key)\n"
        "    ParseError(1, 'message', code='c')\n    ParseError(1, 'm', 'd')\n"
        "    ParseError(1, str(exc), exc.code)\n    ValueError('e')\n"
    )
    assert error_codes(source) == {"syntax", "a", "b", "c", "d"}


def readme_error_codes():
    """The codes in the first column of the README's error-code table."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("### Error codes\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `([a-z0-9-]+)` \|", section, re.MULTILINE))


def test_error_codes_match_the_readme_table():
    raised = set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as handle:
            raised |= error_codes(handle.read())
    assert raised and raised == readme_error_codes()


def test_every_mutant_edits_one_place():
    # scripts/mutants.py breaks what each entry says it breaks: its old text
    # occurs exactly once and the new text differs; no subprocess is started
    assert MUTANTS and unmatched(MUTANTS) == []
    assert all(old != new for _, old, new, _ in MUTANTS)


def missing_nodes(nodes):
    """The pytest node ids, relative to the root of the checkout, whose file
    does not exist or does not define each named class and function, a
    [...] parametrize id stripped; read from the parsed sources, with no
    test collected."""
    missing = []
    for node in nodes:
        path, *names = node.split("[", 1)[0].split("::")
        body = None
        if os.path.isfile(os.path.join(ROOT, path)):
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                body = ast.parse(handle.read()).body
        for name in names:
            body = next((d.body for d in body or () if getattr(d, "name", None) == name), None)
        if body is None:
            missing.append(node)
    return missing


def test_checker_flags_a_missing_node():
    nodes = ["tests/test_hygiene.py::test_checker_flags_a_missing_node[id]",
             "tests/test_model.py::TestCurveQuarticMaps::test_side_symmetry",
             "tests/test_hygiene.py::test_gone", "tests/test_gone.py::test_a",
             "tests/test_model.py::TestCurveQuarticMaps::test_gone",
             "tests/test_model.py::TestGone::test_side_symmetry"]
    assert missing_nodes(nodes) == nodes[2:]


def test_every_mutant_names_tests_that_exist():
    # a deleted or renamed killing test fails here, not only in the
    # mutation run
    assert missing_nodes([node for *_, nodes in MUTANTS for node in nodes]) == []
