"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np
import pytest

from polarsim import linalg


@pytest.fixture()
def count_factorizations(monkeypatch) -> Callable[[], list[tuple[str, tuple[int, ...]]]]:
    """Start recording factorizations: ``calls = count_factorizations()``.

    The returned list gets (kind, shape) per factorization, in call order:
    "eigh" and "svd" for linalg.hermitian_eig and linalg.svd, and "np.eig",
    "np.eigh" and "np.qr" for numpy's own factorizations where they are
    called outside linalg.  Recording stops when the test's monkeypatch is
    undone.
    """

    def start() -> list[tuple[str, tuple[int, ...]]]:
        calls: list[tuple[str, tuple[int, ...]]] = []
        for name, attr in (("eigh", "hermitian_eig"), ("svd", "svd")):

            def counting(mat, *args, _name=name, _original=getattr(linalg, attr), **kwargs):
                calls.append((_name, np.shape(mat)))
                return _original(mat, *args, **kwargs)

            monkeypatch.setattr(linalg, attr, counting)
        for attr in ("eig", "eigh", "qr"):

            def counting_np(mat, *args, _name=f"np.{attr}", _original=getattr(np.linalg, attr),
                            **kwargs):
                if sys._getframe(1).f_globals.get("__name__") != linalg.__name__:
                    calls.append((_name, np.shape(mat)))
                return _original(mat, *args, **kwargs)

            monkeypatch.setattr(np.linalg, attr, counting_np)
        return calls

    return start
