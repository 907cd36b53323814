import importlib.util
import sys
from pathlib import Path

import polareig.cli  # noqa: F401  the launcher wraps what this import loads

LAUNCHER = Path(__file__).resolve().parent.parent / "polarbench" / "launcher.py"


def _launcher():
    spec = importlib.util.spec_from_file_location("polarbench_launcher", LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_launcher_wraps_exists():
    # the tables are read, never installed: a deleted name would make every
    # traced benchmark step exit before it runs
    launcher = _launcher()
    missing = []
    for mod, attr, *_ in launcher.FUNCTIONS + launcher.LEAVES + launcher.COUNTERS:
        module = sys.modules.get("polareig." + mod)
        if getattr(module, attr, None) is None and (mod, attr) not in launcher.OPTIONAL:
            missing.append(f"{mod}.{attr}")
    space = sys.modules["polareig.polarspace"].PolarSpace
    missing += [f"PolarSpace.{attr}" for attr, *_ in launcher.METHODS
                if attr not in vars(space)]
    if not isinstance(getattr(sys.modules["polareig.serialize"], "GRAPH_FORMATS", None),
                      dict):
        missing.append("serialize.GRAPH_FORMATS")
    assert missing == []
