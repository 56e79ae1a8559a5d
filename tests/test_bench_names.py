"""Every name the benchmark's span tracer wraps exists in the package.

``bench/tracer.py`` replaces each ``(module, class, attribute)`` of its
``WRAPS`` table and fails at install time on a missing one; this looks the
names up the same way, without installing any wrapper, so a change that
deletes or renames a wrapped name fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = []
    for mod_name, cls_name, attr, _span in _load_tracer().WRAPS:
        module = importlib.import_module(f"bousscontrol.{mod_name}")
        if cls_name is None:
            found = hasattr(module, attr)
        else:
            owner = getattr(module, cls_name, None)
            found = owner is not None and attr in vars(owner)
        if not found:
            missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
    assert not missing, f"names wrapped by bench/tracer.py are missing: {missing}"
