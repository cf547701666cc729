"""Deterministic derivation of child seeds from a single root seed.

Every random stage of the pipeline (a convnet's filter banks, the
cross-validation shuffles) receives its own seed derived from the
run's root seed and a short namespace path.  Derivation is
pure arithmetic, so the same root always expands to the same family of
streams regardless of the order stages are executed in.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_seed"]


def _token(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    value = int(part)
    if value < 0:
        raise ValueError(f"seed parts must be non-negative, got {value}")
    return value


def derive_seed(root: int, *path: int | str) -> int:
    """Return a 32-bit seed for the stream named by ``path`` under ``root``.

    Distinct paths give statistically independent streams; the same
    (root, path) pair always returns the same value.  Integers go to
    ``SeedSequence`` whole, so a root at or above 2**32 does not share
    the streams of the root its low 32 bits make.
    """
    entropy = [_token(root)] + [_token(p) for p in path]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
