"""Pseudospectral variational toolbox for a three-component derivative NLS system."""

from .grid import Grid, State, norm_h1
from .params import PhysParams, WaveParams

__all__ = [
    "Grid",
    "State",
    "PhysParams",
    "WaveParams",
    "norm_h1",
]

__version__ = "0.1.0"
