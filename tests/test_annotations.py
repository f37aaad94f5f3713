import importlib
import inspect
import pkgutil
import typing

import quasihopf


def _functions():
    """Every function and method written in a module of the package:
    functions, methods, static and class methods and property getters."""
    for info in pkgutil.iter_modules(quasihopf.__path__):
        mod = importlib.import_module(f"quasihopf.{info.name}")
        for obj in vars(mod).values():
            if inspect.isfunction(obj):
                found = [obj]
            elif inspect.isclass(obj):
                found = [getattr(v, "__func__", getattr(v, "fget", v))
                         for v in vars(obj).values()]
            else:
                continue
            yield from (f for f in found if inspect.isfunction(f)
                        and f.__code__.co_filename == mod.__file__)


def test_every_annotation_resolves():
    functions = list(_functions())
    assert len(functions) > 300
    unresolved = []
    for f in functions:
        try:
            typing.get_type_hints(f)
        except NameError as exc:
            unresolved.append(f"{f.__module__}.{f.__qualname__}: {exc}")
    assert unresolved == []
