import importlib
import pkgutil

import ordview


def test_all_names_resolve():
    # a stale __all__ entry breaks ``from ordview.<module> import *``
    names = ["ordview"] + [
        f"ordview.{info.name}" for info in pkgutil.iter_modules(ordview.__path__)
    ]
    stale = []
    for module_name in names:
        module = importlib.import_module(module_name)
        stale += [
            f"{module_name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert stale == []
