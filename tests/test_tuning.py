"""Tests for the dispatch knob that :class:`SearchSpec` exposes.

``dispatch_min_batch`` only decides whether a batch is evaluated inline
or sharded across workers; it takes a non-negative integer or ``None``
(the per-transport default).  Anything else is rejected at construction.
"""

from __future__ import annotations

import pytest

from repro.search.spec import SearchSpec


class TestSpecKnobs:
    def test_dispatch_min_batch_rejects_garbage(self):
        with pytest.raises(ValueError):
            SearchSpec(model="ncf", dispatch_min_batch="sometimes")
