from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# A checkout runs its tests without installing: src/ comes first on sys.path
# here and on PYTHONPATH for the CLI tests that start a subprocess.
SRC = str(Path(__file__).parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
sys.path.insert(0, str(Path(__file__).parent))

import helpers  # noqa: E402

SAMPLES = Path(__file__).parent.parent / "samples"


@pytest.fixture
def alc():
    return helpers.alc()


@pytest.fixture
def ac():
    return helpers.ac()


@pytest.fixture
def aloop():
    return helpers.aloop()


@pytest.fixture
def union_sys():
    return helpers.union_ars()


@pytest.fixture
def eventual():
    return helpers.eventual_ars()


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return SAMPLES
