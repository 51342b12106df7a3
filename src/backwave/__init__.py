"""Backward-from-infinity wave scattering simulator and audit suite.

Constructs solutions of the linear wave equation and of weak-null model
systems backward in time from radiation data prescribed at null infinity,
and audits the weighted energy identities, decay rates and backscatter
formulas that govern those constructions, at desk scale.
"""

__version__ = "0.1.0"
