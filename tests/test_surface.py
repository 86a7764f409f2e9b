"""The package's settable surface, pinned so that no option is added unnoticed,
its one transform path, and the rule that every export has a reader."""

import ast
from pathlib import Path

import nstorus

SRC = Path(nstorus.__file__).parent

# Defaulted parameters plus @dataclass fields with a default, over src/nstorus/*.py.
SETTABLE_VALUES = 46

# The FFT layer: every grid transform goes through these and nothing else.
# Block L_p norms run irfft2's two passes (ifft, irfft) themselves, since
# irfft2 ignores out= and they write into reused buffers.
FFT_FUNCTIONS = {"rfft2", "irfft2", "ifft", "irfft"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    """Defaulted parameters (positional and keyword-only; lambdas excluded) and
    dataclass fields with a default."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_walk_counts_what_it_claims():
    source = '''
from dataclasses import dataclass, field
import dataclasses

def f(a, b=1, *args, c, d=2, **kw):
    g = lambda x=3: x
    def inner(y=4): ...

@dataclass(frozen=True)
class A:
    x: int
    y: int = 0
    z: dict = field(default_factory=dict)
    def m(self, k=5): ...

@dataclasses.dataclass
class B:
    w: int = 1

class C:
    v: int = 1
'''
    # b, d, y, z, w, and the defaults of inner and m; not the lambda or the plain class
    assert settable_values(source) == 7


def test_settable_values_are_pinned():
    total = sum(settable_values(p.read_text()) for p in sorted(SRC.glob("*.py")))
    assert total == SETTABLE_VALUES, (
        f"{total} settable values, pinned at {SETTABLE_VALUES}: a deleted option lowers "
        "the pin; a new one needs a caller that sets it"
    )


def fft_functions(source: str) -> set:
    """Names X of every np.fft.X / numpy.fft.X reference, plus any `from numpy.fft` import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"
                and getattr(node.value.value, "id", None) in ("np", "numpy")):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            names.update(alias.name for alias in node.names)
    return names


def test_fft_walk_finds_what_it_claims():
    source = '''
import numpy as np
from numpy.fft import fft2
a = np.fft.rfft2(x, norm="forward")
b = numpy.fft.ifft2(a)
f = np.fft.fftfreq
'''
    assert fft_functions(source) == {"rfft2", "ifft2", "fftfreq", "fft2"}


def test_only_real_transforms():
    used = set()
    for p in sorted(SRC.glob("*.py")):
        used |= fft_functions(p.read_text())
    assert used <= FFT_FUNCTIONS, (
        f"transforms outside the real-FFT layer: {sorted(used - FFT_FUNCTIONS)}"
    )


def parameters_named(source: str, name: str) -> list:
    """Functions, methods and nested functions included, with a parameter called name."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and name in {a.arg for a in node.args.posonlyargs + node.args.args
                         + node.args.kwonlyargs}]


def test_products_and_solves_take_no_band():
    # the dealiased band is a function of n (nonlinear.dealias_band), so no product or
    # solve is handed one; random_field(band=...) sets the support of data, and stays
    # outside this rule
    found = {p.stem: parameters_named(p.read_text(), "band")
             for p in (SRC / "nonlinear.py", SRC / "solver.py")}
    assert found == {"nonlinear": [], "solver": []}


def test_every_exported_name_resolves():
    missing = [name for name in nstorus.__all__ if not hasattr(nstorus, name)]
    assert not missing, f"names in nstorus.__all__ that do not resolve: {missing}"


# Outside src/nstorus, only the acceptance criteria and the benchmark tracer keep
# an export alive; no other test does.
KEEP_READERS = (SRC.parents[1] / "tests" / "test_acceptance.py",
                SRC.parents[1] / "perfbench" / "tracer.py")


def referenced_names(source: str) -> set:
    """Names, attributes and imported names a module uses, plus the dotted parts
    of its string constants (the tracer binds its spans by string)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_referenced_names_walk_finds_what_it_claims():
    source = '''
from .fields import random_field as rf
SPANS = (("solver", "Stepper.step", "x"),)
y = np.fft.rfft2(a)
"""bilinear_b in a docstring"""
'''
    assert referenced_names(source) >= {"random_field", "Stepper", "step", "rfft2", "a", "np"}
    assert "bilinear_b" not in referenced_names(source)


def test_every_export_is_reached():
    unreached = []
    for name in nstorus.__all__:
        home = getattr(nstorus, name).__module__.rsplit(".", 1)[-1]
        readers = [p for p in sorted(SRC.glob("*.py")) if p.stem not in ("__init__", home)]
        if not any(name in referenced_names(p.read_text()) for p in [*readers, *KEEP_READERS]):
            unreached.append(name)
    assert not unreached, (
        f"exports that no other module, acceptance criterion or tracer span reaches: {unreached}"
    )
