import os
import subprocess
import sys
import types

import eventspec


def test_all_lists_every_public_name():
    public = {name for name, value in vars(eventspec).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(eventspec.__all__) == len(set(eventspec.__all__))
    assert set(eventspec.__all__) == public


def test_cli_import_leaves_out_interpolate_and_stats():
    # both are slow to import and only needed for spline fits and KS tests
    code = ("import sys, eventspec.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.stats') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eventspec.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
