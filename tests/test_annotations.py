"""Every annotation in the package names something that exists.

The modules use ``from __future__ import annotations``, so an annotation is
kept as a string and one naming a type that was never imported, or that has
since been deleted, goes unnoticed at import.  This test evaluates them all.
"""

import importlib
import inspect
import pkgutil
import typing
from functools import cached_property

import pytest

import delcodes

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(delcodes.__path__, "delcodes.")
                 if info.name != "delcodes.__main__")


def annotated(module):
    """The functions, classes, methods and properties a module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                elif isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_every_annotation_resolves(module_name):
    module = importlib.import_module(module_name)
    broken = []
    for name, obj in annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            broken.append(f"{name}: {exc}")
    assert not broken
