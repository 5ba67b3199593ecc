"""Toolchain for a controlled requirements-specification language:
parsing, semantic and linguistic validation with quick fixes, and
document generation (JSON, structured text, templates).

Importing the package loads none of its modules: each public name
loads the module that defines it on first use (PEP 562), so a command
compiles only the modules its input needs.
"""

# Each public name, with the module that defines it.
_HOMES = {
    "Diagnostic": "model",
    "Model": "model",
    "OverlappingEdits": "model",
    "QuickFix": "model",
    "ResolvedModel": "workspace",
    "SourceSpan": "model",
    "TextEdit": "model",
    "Workspace": "workspace",
    "apply_edits": "model",
    "load_workspace": "workspace",
    "parse": "parser",
    "print_element": "printer",
    "print_model": "printer",
    "resolve": "workspace",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
