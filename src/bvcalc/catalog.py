"""The bundled catalog of worked algebras."""

from __future__ import annotations

import os
from pathlib import Path

from .algfile import LoadedAlgebra, load

CATALOG_NAMES = (
    "abelian-dim2",
    "coordinate-2d",
    "coordinate-3d",
    "heisenberg-dim3",
    "nonabelian-dim2",
    "nonabelian-dim2-nonflat",
    "poisson-linear-2d",
    "poisson-symplectic-2d",
    "sl2",
)


def catalog_path(name: str) -> Path:
    if name not in CATALOG_NAMES:
        raise KeyError(f"no catalog algebra named {name!r}")
    return Path(os.path.dirname(__file__), "catalog", f"{name}.alg")


def load_catalog(name: str) -> LoadedAlgebra:
    return load(catalog_path(name))


def resolve(name_or_path: str) -> Path:
    """Interpret an argument as a file path, falling back to a catalog name."""
    path = Path(name_or_path)
    if path.exists():
        return path
    if name_or_path in CATALOG_NAMES:
        return catalog_path(name_or_path)
    raise FileNotFoundError(f"{name_or_path!r} is neither a file nor a catalog name")
