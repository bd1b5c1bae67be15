"""The benchmark tracer wraps library functions by module attribute; every
name it wraps must exist, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_wraps_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _layer, _note in tracer.WRAPS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert tracer.WRAPS and not missing
