"""Start-up contract: a process loads only the layers it runs.

``gnmodel`` is a lazy namespace, and the CLI imports the GN, Monte Carlo and
moment engines inside the subcommands that run them.  The import test runs
in a fresh interpreter, since this one has loaded every module already.
"""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gnmodel

DEMO = Path(__file__).resolve().parent.parent / "demos" / "single_span.yaml"

# what setup (the CLI import, load_config, KernelModel) loaded, and what an
# in-process psd run loaded on top of it; numpy is imported before the first
# snapshot, so its own eager imports (numpy.random on NumPy 1.x) do not count
PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import gnmodel.cli
from gnmodel import KernelModel, load_config
cfg = load_config(sys.argv[1])
KernelModel(link=cfg.link, quadrature_tolerance=cfg.kernel_tolerance,
            max_cells_per_span=cfg.kernel_max_cells)
setup = set(sys.modules) - before
assert gnmodel.cli.run(["--config", sys.argv[1], "--output", sys.argv[2],
                        "psd"]) == 0
print(json.dumps({"setup": sorted(setup), "psd": sorted(sys.modules)}))
"""


def test_setup_loads_no_engine_it_does_not_run(tmp_path):
    src = os.path.dirname(os.path.dirname(gnmodel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(DEMO), str(tmp_path / "psd.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    setup, after_psd = set(loaded["setup"]), set(loaded["psd"])
    assert "gnmodel.config" in setup and "gnmodel.kernel" in setup
    for name in ("gnmodel.gn", "gnmodel.moments", "gnmodel.montecarlo",
                 "gnmodel.rng", "numpy.random", "concurrent.futures"):
        assert name not in setup, name
    assert "gnmodel.gn" in after_psd
    assert "gnmodel.moments" not in after_psd
    assert "gnmodel.montecarlo" not in after_psd


class TestNamespace:
    def test_public_names_are_their_defining_objects(self):
        for name in gnmodel.__all__:
            home = importlib.import_module(f"gnmodel.{gnmodel._HOME[name]}")
            assert getattr(gnmodel, name) is getattr(home, name), name
        assert len(set(gnmodel.__all__)) == len(gnmodel.__all__)

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from gnmodel import *", scope)
        assert set(gnmodel.__all__) <= set(scope)
        for name in gnmodel.__all__:
            assert scope[name] is getattr(gnmodel, name), name

    def test_every_submodule_is_an_attribute(self):
        names = {m.name for m in pkgutil.iter_modules(gnmodel.__path__)}
        assert names == set(gnmodel._SUBMODULES)
        for name in names:
            assert getattr(gnmodel, name) is \
                importlib.import_module(f"gnmodel.{name}"), name
            assert name in dir(gnmodel)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            gnmodel.nonesuch
        assert not hasattr(gnmodel, "fourth_moment_identity")
        with pytest.raises(ImportError):
            exec("from gnmodel import nonesuch", {})
