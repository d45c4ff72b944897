import os

import numpy as np
import pytest

from wavemark import BitMatrix


def make_mark(rows: int = 15, cols: int = 64) -> BitMatrix:
    """Deterministic non-trivial bit pattern (about one third ones)."""
    return BitMatrix(np.arange(rows * cols).reshape(rows, cols) * 7919 % 3 % 2)


def _report_cpus(monkeypatch, cpus: int) -> None:
    """Make the process report ``cpus`` CPUs it may use, as its affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def mark():
    return make_mark()
