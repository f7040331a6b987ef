import importlib
import pkgutil

import rmarith


def _memos():
    """maxsize of every functools memo defined at module level in rmarith."""
    out = {}
    for info in pkgutil.iter_modules(rmarith.__path__):
        if info.name == "__main__":  # running it starts the CLI
            continue
        module = importlib.import_module(f"rmarith.{info.name}")
        for name, value in vars(module).items():
            cache_info = getattr(value, "cache_info", None)
            if callable(cache_info) and value.__module__ == module.__name__:
                out[f"{info.name}.{name}"] = cache_info().maxsize
    return out


def test_every_lru_cache_is_bounded():
    # computing modules keep no state between calls: a question builds its
    # field once and passes it down
    assert _memos() == {"cli.build_parser": 1}
