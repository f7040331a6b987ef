import shutil
import tempfile

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
