"""Source guards: a run's inputs are its config and flags, so no module reads
the environment, nor lets the locale pick a text encoding; every `np.unique`
takes numpy's sort path; nothing sorts
a permutation where a value sort of packed keys does; `stability` scans
windows in one place; only `core` names the window scan's helpers; only a
diam series' readers read its offsets; the
package API is the library modules' `__all__`; every public method is one
the program calls; and every library function that declares a range kind
refuses a bad value with the config's rule text."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import numpy as np

import shiftlab
from shiftlab import cli, core, generate, recurrence, stability

SRC = Path(__file__).resolve().parent.parent / "src" / "shiftlab"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each `os.environ`-style attribute or `from os import environ`-style name, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in ENVIRONMENT]
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(module):
    assert environment_reads(module.read_text()) == []


def test_the_guard_sees_every_way_in():
    source = "import os\nfrom os import getenv\na = os.environ.get('X')\nb = os.getenv('Y')\n"
    assert sorted(environment_reads(source)) == [
        "line 2: from os import getenv", "line 3: os.environ", "line 4: os.getenv",
    ]


# A text file's bytes must not depend on the locale: under LC_ALL=C the default
# encoding is ASCII, and a config or artifact with a non-ASCII id failed there.
TEXT_CALLS = {"open": 2, "read_text": 0, "write_text": 1}  # name -> encoding's place as a method


def locale_encodings(source: str) -> list[str]:
    """Each `open`, `read_text` or `write_text` call with no encoding, and for `open`
    no binary mode, with its line. Called by name, `open` takes the file first, so
    its mode and encoding come one place later than in `Path.open`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in TEXT_CALLS:
            continue
        at = TEXT_CALLS[name] + (name == "open" and isinstance(func, ast.Name))
        if len(node.args) > at or any(kw.arg == "encoding" for kw in node.keywords):
            continue
        if name == "open":
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"] or node.args[at - 2 : at - 1]
            if mode and isinstance(mode[0], ast.Constant) and "b" in str(mode[0].value):
                continue
        found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_lets_the_locale_pick_an_encoding(module):
    assert locale_encodings(module.read_text(encoding="utf-8")) == []


def test_the_encoding_guard_sees_every_text_call():
    source = (
        "a = open(p)\nb = open(p, 'r')\nc = p.open()\nd = p.open('w')\n"
        "e = p.read_text()\nf = p.write_text(t)\ng = open(p, mode='a')\n"
        "h = open(p, 'rb')\ni = p.open('wb')\nj = open(p, mode='rb')\n"
        "k = open(p, encoding='utf-8')\nl = p.open('w', encoding='utf-8')\n"
        "m = p.read_text('utf-8')\nn = p.write_text(t, 'utf-8')\n"
        "o = p.write_text(t, encoding='utf-8')\nq = open(p, 'r', -1, 'utf-8')\n"
        "r = p.read_bytes()\ns = p.write_bytes(b)\nu = p.open('r', -1, 'utf-8')\n"
        "v = open(p, 'w', -1)\n"
    )
    assert locale_encodings(source) == [
        f"line {i}: {name}" for i, name in enumerate(
            ["open", "open", "open", "open", "read_text", "write_text", "open"], start=1)
    ] + ["line 20: open"]


# numpy sends a flagless `np.unique` down a hash table, many times slower
# here than a sort; any of these flags makes it sort.
SORT_FLAGS = {"return_index", "return_inverse", "return_counts"}


def hashing_uniques(source: str) -> list[str]:
    """Each `np.unique` call without a sort flag set, or `from numpy import unique`, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            flags = [kw.value for kw in node.keywords if kw.arg in SORT_FLAGS]
            if all(isinstance(f, ast.Constant) and not f.value for f in flags):
                found.append(f"line {node.lineno}: {node.func.value.id}.unique")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import unique"
                      for a in node.names if a.name == "unique"]
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_takes_the_hashing_unique(module):
    assert hashing_uniques(module.read_text()) == []


def test_the_unique_guard_sees_every_hashing_call():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy import unique\n"
        "a = np.unique(c)\nb = numpy.unique(c, return_counts=False)\n"
        "d = np.unique(c, return_index=True)\ne, f = np.unique(c, return_inverse=flag)\n"
    )
    assert hashing_uniques(source) == [
        "line 3: from numpy import unique", "line 4: np.unique", "line 5: numpy.unique",
    ]


# A permutation sort (`argsort`, or the argsort inside `np.unique(...,
# return_inverse=True)`) was measured at 6 to 15 times the time of `np.sort`
# on the same million int64 keys (numpy 2.4, 2-core x86-64);
# `core.window_groups` packs each key with its index and sorts values instead.
def permutation_sorts(source: str) -> list[str]:
    """Each `argsort` call or import, and each `unique` that may return an inverse, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "argsort":
                found.append(f"line {node.lineno}: argsort")
            elif name == "unique" and any(
                kw.arg == "return_inverse"
                and not (isinstance(kw.value, ast.Constant) and not kw.value.value)
                for kw in node.keywords
            ):
                found.append(f"line {node.lineno}: unique(return_inverse)")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import argsort"
                      for a in node.names if a.name == "argsort"]
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_sorts_a_permutation(module):
    assert permutation_sorts(module.read_text()) == []


def test_the_permutation_guard_sees_every_argsort_and_inverse():
    source = (
        "import numpy as np\nfrom numpy import argsort\n"
        "a = np.argsort(c, kind='stable')\nb = c.argsort()\n"
        "_, d = np.unique(c, return_inverse=True)\ne = np.unique(c, return_inverse=flag)\n"
        "f = np.unique(c, return_inverse=False)\ng = np.unique(c, return_index=True)\n"
        "h = np.sort(c)\n"
    )
    assert permutation_sorts(source) == [
        "line 2: from numpy import argsort", "line 3: argsort", "line 4: argsort",
        "line 5: unique(return_inverse)", "line 6: unique(return_inverse)",
    ]


# The sensitivity sweep and `covering_words` read one cylinder family,
# `stability._cylinders`, and later readers of it (a uniform diam-mean test,
# the recurrence hypotheses) should read it too instead of scanning again.
def uses_by_definition(source: str, name: str) -> list[tuple[int, str | None]]:
    """(line, enclosing top-level def or class, or None) of each use of `name` as a
    variable or an attribute."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                found.append((node.lineno, getattr(top, "name", None)))
    return found


def test_stability_scans_windows_only_for_the_cylinder_family():
    uses = uses_by_definition((SRC / "stability.py").read_text(), "window_groups")
    assert [top for _, top in uses] == ["_cylinders"]


# The window scan's helpers stay in `core`: a caller resumes a scan by passing
# an earlier index to `occurrences`.
@pytest.mark.parametrize("name", ["_block_occurrences", "_matching_starts", "_octets", "_octet"])
def test_only_core_names_the_scan_helpers(name):
    named = [path.name for path in sorted(SRC.glob("*.py")) if uses_by_definition(path.read_text(), name)]
    assert named == ["core.py"]


# A diam series is read through its three readers: `values()`, `gap_counts` and
# `_running_sums`; the series CSV reads the offsets beside the gap counts.
OFFSET_READERS = {"stability.py": {"DiamSeries", "_running_sums"}, "cli.py": {"_series_csv"}}


@pytest.mark.parametrize("module", OFFSET_READERS)
def test_only_the_series_readers_read_its_offsets(module):
    uses = uses_by_definition((SRC / module).read_text(), "first_disagreement")
    assert {top for _, top in uses} <= OFFSET_READERS[module]


def test_the_window_scan_guard_sees_every_use():
    source = (
        "from .core import window_groups\n"
        "def _cylinders(x):\n    return window_groups(x, 3)\n"
        "class A:\n    def f(self, x):\n        return core.window_groups(x, 2)\n"
        "scans = map(window_groups, xs)\n"
    )
    assert uses_by_definition(source, "window_groups") == [
        (3, "_cylinders"), (6, "A"), (7, None),
    ]


# Each library module's `__all__` is the one list of its public names.
def test_the_package_exports_exactly_the_library_modules_all():
    modules = (core, generate, recurrence, stability)
    public = {
        name for name, value in vars(shiftlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == {name for m in modules for name in m.__all__}
    for m in modules:
        for name in m.__all__:
            assert getattr(shiftlab, name) is getattr(m, name), f"{m.__name__}.{name}"


# A public method that only tests call is code no run reaches.
ROOT = SRC.parent.parent


def public_methods(source: str) -> set[str]:
    """The public, non-dunder method names (properties included) of every class."""
    return {
        item.name
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def attribute_names(source: str) -> set[str]:
    """Every name read as `.name` in a Python source."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def test_every_public_method_is_called_by_the_program():
    sources = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*(attribute_names(p.read_text()) for p in sources))
    readme = (ROOT / "README.md").read_text()
    defined = set().union(*(public_methods(p.read_text()) for p in SRC.glob("*.py")))
    unused = {name for name in defined - used if not re.search(rf"\.{name}\b", readme)}
    assert unused == set()


def test_the_method_guard_sees_methods_and_attribute_reads():
    source = (
        "class A:\n    def f(self):\n        return self.g\n"
        "    @property\n    def g(self):\n        return 1\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n"
        "    def __add__(self, o):\n        return o\n    def _h(self):\n        pass\n"
        "def top():\n    return A.make().f()\n"
    )
    assert public_methods(source) == {"f", "g", "make"}
    assert attribute_names(source) == {"g", "make", "f"}


# A range kind's rules are written once, in `core.RANGES`: the config checks a field
# against them, and `core.checked` every library parameter that declares the kind.
KINDS = ("Count", "Increasing", "Share")


def declared_kinds(fn) -> dict[str, str]:
    """parameter -> its annotation, for each parameter that declares a range kind."""
    return {p.name: p.annotation for p in inspect.signature(fn).parameters.values()
            if str(p.annotation).removesuffix(" | None") in KINDS}


KIND_DECLARING = [
    (f"{m.__name__.removeprefix('shiftlab.')}.{name}", getattr(m, name))
    for m in (core, generate, recurrence, stability) for name in m.__all__
    if inspect.isfunction(getattr(m, name)) and declared_kinds(getattr(m, name))
]


def test_every_library_function_that_declares_a_range_kind_is_checked():
    assert len(KIND_DECLARING) >= 19
    wrapper = core.checked(lambda: None).__code__
    assert [name for name, fn in KIND_DECLARING if fn.__code__ is not wrapper] == []


BAD = {"Count": [0, -1], "Increasing": [[], [4, 2], [0, 2]], "Share": [0.0, 1.5]}
GOOD = {"Count": 1, "Increasing": [1], "Share": 0.5}


def bad_calls():
    """(function, the other required arguments, parameter, its annotation, a bad value):
    an argument is valid where it declares a kind, else None, which no function body
    takes, so the refusal comes before any work."""
    for name, fn in KIND_DECLARING:
        kinds = declared_kinds(fn)
        for param, annotation in kinds.items():
            required = {
                p.name: GOOD[kinds[p.name].removesuffix(" | None")] if p.name in kinds else None
                for p in inspect.signature(fn).parameters.values()
                if p.default is p.empty and p.name != param
            }
            for bad in BAD[annotation.removesuffix(" | None")]:
                yield pytest.param(fn, required, param, annotation, bad, id=f"{name}-{param}-{bad}")


@pytest.mark.parametrize("fn, required, param, annotation, bad", bad_calls())
def test_a_library_call_and_a_config_refuse_a_bad_value_with_one_rule_text(
    fn, required, param, annotation, bad
):
    kind = annotation.removesuffix(" | None")
    with pytest.raises(cli.ConfigError) as config:
        cli._check_field(f"tests[0].{param}", bad, kind, kind != annotation)
    values = [bad, np.array(bad)] if kind == "Increasing" else [bad]  # an array is checked by len
    for value in values:
        with pytest.raises(ValueError) as library:
            fn(**required, **{param: value})
        assert str(library.value) == f"{param} {config.value.message}"
