"""Checks that span the package: its import hygiene and the README."""

import ast
import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epsclass"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_uses(source):
    """(line, name) for each private name of another package module that
    source imports, or reads as an attribute of an imported module."""
    tree = ast.parse(source)
    imported_modules = set()
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and node.module != "epsclass" and \
                not (node.module or "").startswith("epsclass."):
            continue
        for alias in node.names:
            if node.module in (None, "epsclass") and alias.name in MODULES:
                imported_modules.add(alias.asname or alias.name)
            elif _is_private(alias.name):
                uses.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in imported_modules:
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


def test_no_module_uses_another_modules_private_names():
    found = {p.name: _private_uses(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_private_use_detector():
    src = ("from . import zlin\nfrom .arith import _mr_round, vp\n"
           "from epsclass.quadclass import _euler_table\n"
           "from __future__ import annotations\n"
           "x = zlin._col_bezout\ny = zlin.xgcd\n")
    assert _private_uses(src) == [(2, "_mr_round"), (3, "_euler_table"),
                                  (5, "zlin._col_bezout")]


def test_readme_examples():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _unused_imports(source):
    """(line, name) for each module-level import that source never uses:
    a name it binds that no expression, string annotation or `__all__`
    entry reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    exprs = [tree]
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            notes = getattr(node.value, "elts", [])
        exprs += [ast.parse(n.value, mode="eval") for n in notes
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    used = {n.id for e in exprs for n in ast.walk(e) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_no_unused_imports():
    found = {p.name: _unused_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_unused_import_detector():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nimport os.path\n"
           "from fractions import Fraction\n"
           "from math import gcd, prod\nfrom .quadforms import QuadElt\n"
           "__all__ = ['Fraction']\n"
           "def f(x: 'list[np.ndarray]') -> int:\n"
           "    \"gcd of a QuadElt\"\n"
           "    return prod(x) + os.sep\n")
    assert _unused_imports(src) == [(5, "gcd"), (6, "QuadElt")]


def test_no_module_imports_fractions():
    # pram's units and relation generators are images mod p^n; the exact
    # Fraction carrier is the tests' reference (tests/oracles.py)
    found = []
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "fractions" in names:
                found.append((p.name, node.lineno))
    assert found == []


_IMAGINARY_BUILDERS = {"imaginary_presentation", "genus_presentation",
                       "class_number_bsgs"}


def _builder_calls(source, builders=_IMAGINARY_BUILDERS):
    """(line, name) for each call of one of builders (by default the
    imaginary class-group builders), bare or as an attribute, in source."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else \
            getattr(f, "id", None)
        if name in builders:
            calls.append((node.lineno, name))
    return calls


def test_only_quadclass_chooses_enumeration_or_bsgs():
    # quadclass alone holds the one threshold, ENUM_CAP, that chooses how
    # h is found; every other module goes through its public builders
    found = {p.name: _builder_calls(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.stem != "quadclass"}
    assert {k: v for k, v in found.items() if v} == {}


def test_only_the_staircase_builds_a_presentation():
    # every presented group (the imaginary and narrow groups over prime
    # forms, the top layer of (O/p^n)^x) starts in one way, from
    # ClassGroupPresentation.staircase, whose cls(...) is not a call by name
    found = {p.name: _builder_calls(p.read_text(), {"ClassGroupPresentation"})
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def _attribute_reads(source, attr):
    """Lines of source that read `attr` as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == attr]


def test_only_quadclass_reads_dlog_table():
    # a presentation's callers take dlogs through dlog(), whose canon
    # names a form's class as the table does (its reduction, or a real
    # class's least cycle form)
    found = {p.name: _attribute_reads(p.read_text(), "dlog_table")
             for p in sorted(PACKAGE.glob("*.py")) if p.stem != "quadclass"}
    assert {k: v for k, v in found.items() if v} == {}
    assert _attribute_reads("v = pres.dlog_table[f]\nw = pres.dlog(f)\n",
                            "dlog_table") == [1]


def test_builder_call_detector():
    src = ("from .quadclass import imaginary_presentation\n"
           "pres = imaginary_presentation(D)\n"
           "h = quadclass.class_number_bsgs(D)[0]\n"
           "g = quadclass.full_imaginary_presentation(D)\n")
    assert _builder_calls(src) == [(2, "imaginary_presentation"),
                                   (3, "class_number_bsgs")]


def _shift_assignments(source):
    """(line, function) for each `>>=` in source, function the name of the
    innermost def around it (None at module level)."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.AugAssign) and \
                    isinstance(child.op, ast.RShift):
                found.append((child.lineno, fn))
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_one_square_and_multiply():
    # binary powering is written once, as abgroup.power; every group (the
    # class groups, (O/p^n)^x, tracked ideals, sigma) passes its product
    found = {(p.name, fn) for p in sorted(PACKAGE.glob("*.py"))
             for _, fn in _shift_assignments(p.read_text())}
    assert found == {("abgroup.py", "power")}


def test_shift_assignment_detector():
    src = ("def power(x, e, op):\n    e >>= 1\n"
           "class R:\n    def pow(self, u, e):\n"
           "        while e:\n            e >>= 1\n"
           "k = 8\nk >>= 2\nk = k >> 1\nk <<= 1\n")
    assert _shift_assignments(src) == [(2, "power"), (6, "pow"), (8, None)]


def _transposes(source):
    """Lines of source that transpose a list of lists: zip(*rows), or a
    comprehension [[x[i] for x in xs] for i in ...] (also with x = M[j],
    as [[M[j][i] for j in ...] for i in ...])."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "zip" and \
                any(isinstance(a, ast.Starred) for a in node.args):
            found.append(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)) and \
                isinstance(node.elt, (ast.ListComp, ast.GeneratorExp)):
            outer = {getattr(g.target, "id", None) for g in node.generators}
            inner = {getattr(g.target, "id", None)
                     for g in node.elt.generators}
            e = node.elt.elt
            if isinstance(e, ast.Subscript) and \
                    getattr(e.slice, "id", None) in outer:
                v = e.value
                if isinstance(v, ast.Subscript):
                    v = v.slice
                if getattr(v, "id", None) in inner:
                    found.append(node.lineno)
    return sorted(found)


def test_only_zlin_transposes():
    # a lattice is a list of vectors in and out of zlin, so no caller
    # knows a matrix layout of its own
    found = {p.name: _transposes(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.stem != "zlin"}
    assert {k: v for k, v in found.items() if v} == {}


def test_transpose_detector():
    src = ("rows = [list(r) for r in zip(*cols)]\n"
           "t = [[c[i] for c in cols] for i in range(g)]\n"
           "u = [[M[j][i] for j in range(n)] for i in range(g)]\n"
           "pairs = list(zip(a, b))\n"
           "copy = [[M[i][j] for j in range(n)] for i in range(g)]\n"
           "v = [[x[i] for x in xs] for j in range(g)]\n"
           "w = [[x + i for x in xs] for i in range(g)]\n"
           "z = list(zip(*A))\n")
    assert _transposes(src) == [1, 2, 3, 8]


def _uncalled(sources):
    """module.name for each public top-level function or class of sources
    (module name -> source) that no other top-level statement reads: bare
    in its own module or as imported by name, or as module.name."""
    trees = {m: ast.parse(s) for m, s in sources.items()}
    defined = {(m, node.name): node for m, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    read = set()
    for m, tree in trees.items():
        names, modules = {}, {}     # local name -> (module, name), module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        names[local] = (node.module, alias.name)
                    else:
                        modules[local] = alias.name
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    key = names.get(node.id, (m, node.id))
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id in modules:
                    key = (modules[node.value.id], node.attr)
                else:
                    continue
                if defined.get(key) is not stmt:
                    read.add(key)
    return sorted(f"{m}.{n}" for m, n in defined if (m, n) not in read)


# public names with no caller in src/, each with the caller that keeps it
_CALLED_OUTSIDE_SRC = {
    # paper quantities that only the tests compute
    "epsanalysis.envelope_report": "the implied constants log C of a scan",
    "epsanalysis.h_eps_threshold": "the threshold (sqrt|D|)^eps / p^(N-1)",
    "epsanalysis.log_sqrt_disc": "log sqrt(D) of a cyclic degree-p field",
    "epsanalysis.stirling_log_factorial": "log N! with its error bound",
    "filtration.pr_ranks": "the p^r-ranks of a t-sequence",
    "filtration.rank_from_t": "Gras's lemma: p-rank and delta from t",
    "pram.ktilde_index": "the index K~ of the acceptance tests",
    "quadclass.genus_delta": "the genus statistic of the acceptance tests",
    "quadclass.ordinary_class_group_real": "the ordinary group of real D",
    "quadclass.prime_disc_report": "the prime-discriminant maxima check",
    # names that perfbench calls or traces
    "pram.rank_inequalities": "torsion-small calls it per field",
    "quadclass.class_number_bsgs": "perfbench checks and traces it",
    "quadclass.scan_local_maxima": "classgroups calls it, layertrace traces",
    "quadforms.reduced_forms_imaginary": "layertrace traces it",
}


def test_every_public_name_has_a_caller():
    # a helper only the tests call belongs in the tests (tests/oracles.py);
    # the list names every exception and goes stale in neither direction
    found = _uncalled({p.stem: p.read_text()
                       for p in sorted(PACKAGE.glob("*.py"))})
    assert found == sorted(_CALLED_OUTSIDE_SRC)


def test_uncalled_detector():
    src = {"a": ("from .b import g\nfrom . import c as cc\n"
                 "def f():\n    return f()\ndef h():\n    return g()\n"
                 "class K:\n    pass\nh()\nx = cc.k\n"),
           "b": "from . import a\ndef g():\n    return a.K\ndef _p():\n"
                "    pass\n",
           "c": "def g():\n    pass\ndef k():\n    pass\n"}
    assert _uncalled(src) == ["a.f", "c.g"]
