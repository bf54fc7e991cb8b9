"""Pseudo-spectral simulator for a simplified incompressible nematic
liquid crystal system, with dyadic frequency decomposition, Besov and
Chemin-Lerner norm tracking, paraproduct splitting, and a fixed-point
iteration mode for cross-validating the direct integrator.
"""

__version__ = "0.1.0"
