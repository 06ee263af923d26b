"""Import budget: the client path and the bare package stay light.

A fresh ``repro query`` process imports ``repro.cli`` and
``repro.service.client`` to send one HTTP request; it must not load
numpy or the model stack.  Each budget is measured in a fresh
interpreter, since this one has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.errors import UnknownNameError

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: What the client path must never load.
HEAVY = {"numpy", "repro.experiments", "repro.machine", "repro.pipelines"}


def _loaded(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    probe = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return set(json.loads(done.stdout))


class TestImportBudget:
    def test_query_path_loads_no_numpy_or_model_stack(self):
        loaded = _loaded("import repro.cli, repro.service.client")
        assert not loaded & HEAVY, sorted(loaded & HEAVY)

    def test_bare_package_loads_no_numpy(self):
        assert "numpy" not in _loaded("import repro")

    def test_default_seed_needs_no_numpy(self):
        assert "numpy" not in _loaded("from repro.rng import DEFAULT_SEED")


class TestLazyExports:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        assert set(repro.__all__) <= set(dir(repro))

    def test_subpackage_names_resolve(self):
        from repro.faults import FaultyDevice, RetryPolicy
        from repro.service import DEFAULT_PORT, ExperimentService, LruCache

        assert DEFAULT_PORT == 8077
        assert all(callable(c) for c in (FaultyDevice, RetryPolicy,
                                         ExperimentService, LruCache))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(UnknownNameError):
            repro.no_such_name  # noqa: B018
        assert not hasattr(repro, "no_such_name")
        # ...so ``from package import submodule`` still imports it.
        from repro import units

        assert units.KiB == 1024
