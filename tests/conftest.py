import shutil
import tempfile
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_hypothesis_home = None


def pytest_configure(config):
    # Hypothesis caches the literals of local modules under its home
    # directory (./.hypothesis by default) while pytest collects, even with
    # no example database; a throwaway home keeps the checkout clean.
    global _hypothesis_home
    _hypothesis_home = tempfile.mkdtemp(prefix="rmarith-hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(_hypothesis_home, ignore_errors=True)


@pytest.fixture
def kernel_work(monkeypatch):
    """Work done by the class-map kernels from now on: field scans and
    fundamental units by discriminant, forms reduced and rho-cycles walked."""
    from rmarith import quadforms

    work = SimpleNamespace(scans=Counter(), units=Counter(), reduced=0, walks=0)
    real_scan, real_unit = quadforms._field_forms, quadforms.fundamental_unit
    real_reduce, real_cycle = quadforms._reduce, quadforms._cycle

    def scan(d):
        work.scans[d] += 1
        return real_scan(d)

    def unit(d):
        work.units[d] += 1
        return real_unit(d)

    def reduce(a, b, c, d):
        work.reduced += 1
        return real_reduce(a, b, c, d)

    def walk(a, b, c, d):
        work.walks += 1
        return real_cycle(a, b, c, d)

    for name, counted in (("_field_forms", scan), ("fundamental_unit", unit),
                          ("_reduce", reduce), ("_cycle", walk)):
        monkeypatch.setattr(quadforms, name, counted)
    return work
