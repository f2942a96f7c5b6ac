import importlib
import pkgutil

import hemocult
from hemocult import errors


def test_every_exported_name_resolves():
    modules = [hemocult] + [importlib.import_module(f"hemocult.{info.name}")
                            for info in pkgutil.iter_modules(hemocult.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__ for m in listed} >= {"hemocult.cohort", "hemocult.lstm", "hemocult.prep",
                                               "hemocult.training"}
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_error_class_declares_its_exit_code():
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.HemocultError)
               and cls is not errors.HemocultError]
    assert sorted(cls.__dict__.get("exit_code") for cls in classes) == [2, 3, 4, 5, 6]
