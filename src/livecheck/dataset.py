"""Directory-tree datasets: <root>/live/*.pgm and <root>/fake/*.pgm."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .imageproc import ingest
from .pipeline import FAKE_LABEL, LIVE_LABEL

__all__ = ["CLASS_DIRS", "DatasetManifest", "load_dataset", "load_images"]

# Live images come first in every enumeration; names sort within class.
CLASS_DIRS = (("live", LIVE_LABEL), ("fake", FAKE_LABEL))


@dataclass(frozen=True)
class DatasetManifest:
    """Validated listing of a dataset tree.

    ``entries`` holds (relative path, class name) pairs, live first,
    lexicographic within each class.  ``skipped`` lists unreadable
    files that were dropped under ``skip_unreadable``.  ``images`` holds
    the decoded pixels of each entry.
    """

    root: Path
    entries: tuple[tuple[str, str], ...]
    skipped: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    images: tuple[np.ndarray, ...] = field(kw_only=True, repr=False, compare=False)

    def labels(self) -> np.ndarray:
        by_name = dict(CLASS_DIRS)
        return np.asarray([by_name[cls] for _, cls in self.entries], dtype=np.float64)


def load_dataset(root: str | Path, skip_unreadable: bool = False) -> DatasetManifest:
    """Scan and validate a dataset directory.

    Both class directories must exist and contain at least one image.
    Every file is decoded exactly once and the pixels are kept for
    ``load_images``; a broken file is an error naming the path unless
    ``skip_unreadable`` is set, in which case it lands in
    ``manifest.skipped``.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"dataset root {root} is not a directory")
    entries: list[tuple[str, str]] = []
    skipped: list[tuple[str, str]] = []
    images: list[np.ndarray] = []
    for class_name, _ in CLASS_DIRS:
        class_dir = root / class_name
        if not class_dir.is_dir():
            raise ValueError(f"missing class directory: {class_dir}")
        files = sorted(p.name for p in class_dir.iterdir() if p.is_file())
        kept_any = False
        for name in files:
            rel = f"{class_name}/{name}"
            try:
                images.append(ingest((class_dir / name).read_bytes()))
            except ValueError as exc:
                if skip_unreadable:
                    skipped.append((rel, str(exc)))
                    continue
                raise ValueError(f"unreadable image {class_dir / name}: {exc}") from exc
            entries.append((rel, class_name))
            kept_any = True
        if not kept_any:
            raise ValueError(f"class directory {class_dir} has no readable images")
    return DatasetManifest(root=root, entries=tuple(entries), skipped=tuple(skipped), images=tuple(images))


def load_images(manifest: DatasetManifest) -> tuple[list[np.ndarray], np.ndarray]:
    """The images ``load_dataset`` decoded, with their labels."""
    return list(manifest.images), manifest.labels()
