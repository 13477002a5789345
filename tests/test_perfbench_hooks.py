"""The repo benchmark's layer hooks still resolve against the source.

``perfbench/layers.py`` times each simulator layer by wrapping the entry
points named in its ``ENTRY_POINTS`` table, looked up in the owner's
``__dict__``. A refactor that renames or moves one of them (say, an
engine method now inherited instead of defined on ``CalendarEngine``)
would otherwise only surface when the benchmark's traced mode runs.
The module is executed from its source text, so no bytecode is written
under ``perfbench/``.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers() -> types.ModuleType:
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS_PY)
    code = compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec")
    exec(code, module.__dict__)
    return module


LAYERS = _load_layers()
ENTRIES = [(module, path) for _layer, module, path, _kind in LAYERS.ENTRY_POINTS]


@pytest.mark.parametrize("module,path", ENTRIES,
                         ids=[f"{module}:{path}" for module, path in ENTRIES])
def test_entry_point_resolves_to_an_own_attribute(module, path):
    owner, attr = LAYERS._resolve(module, path)
    assert attr in vars(owner), (
        f"{module}.{path}: perfbench wraps {attr!r} from the owner's "
        f"__dict__, but it is not defined there")
