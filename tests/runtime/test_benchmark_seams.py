"""Every layer seam the repository benchmark traces must resolve.

``perfbench/tracing.py`` wraps program functions by qualified name
(``LAYER_SEAMS``).  A seam the program renames is skipped without an
error and its layer reads as idle: renaming ``_decode_step`` would turn
``llm.decode_step_ms`` into a silent 0.  This test turns such a rename
into a failure.  It reads ``LAYER_SEAMS`` and changes nothing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"

#: Seams known to be stale: the packed interpreter was deleted with its
#: executor, and the benchmark still lists it.
STALE_SEAMS = {"repro.mapping.plan.PackedExecutor.run"}


def _layer_seams():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LAYER_SEAMS


def _resolves(module_name: str, path: str) -> bool:
    """Whether the tracer can patch ``path``: the attribute must be
    defined on its owner itself, not inherited."""
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    try:
        for name in owners:
            owner = getattr(owner, name)
        return attr in vars(owner)
    except AttributeError:
        return False


def test_every_traced_seam_resolves():
    seams = _layer_seams()
    assert seams
    missing = {
        f"{module_name}.{path}"
        for module_name, path, _, _ in seams
        if not _resolves(module_name, path)
    }
    assert missing <= STALE_SEAMS, sorted(missing - STALE_SEAMS)
