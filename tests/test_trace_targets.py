"""The benchmark's traced run patches library functions by module attribute.

A refactor that drops or renames one of those bindings breaks only the
traced run, so the bindings named in ``perfbench/tracing.py`` are checked
here.  The file is loaded read-only; nothing is installed.
"""

import importlib
import types
from pathlib import Path

import pytest

import threshcov.cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
tracing = types.ModuleType("_perfbench_tracing")
exec(compile(_TRACING.read_text(encoding="utf-8"), str(_TRACING), "exec"),
     tracing.__dict__)


@pytest.mark.parametrize("target", sorted({t for t, _, _ in tracing._TARGETS}))
def test_target_resolves(target):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"threshcov.{module_name}")
    assert callable(getattr(module, attr, None)), target


@pytest.mark.parametrize("command", tracing._CLI_COMMANDS)
def test_cli_command_exists(command):
    assert command in threshcov.cli._COMMANDS
