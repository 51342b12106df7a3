"""Backward-from-infinity wave scattering simulator and audit suite.

Constructs solutions of the linear wave equation and of weak-null model
systems backward in time from radiation data prescribed at null infinity,
and audits the weighted energy identities, decay rates and backscatter
formulas that govern those constructions, at desk scale.
"""

__version__ = "0.1.0"

from backwave.cutoffs import Cutoff, chi_wave_zone, chi_exterior
from backwave.profiles import Profile, make_profile, ProfileError
from backwave.radiation import RadiationField, derive_F1
from backwave.engine import RadialGrid, FieldState, Trajectory
from backwave.functionals import FitResult, FunctionalReport, fit_decay

__all__ = [
    "Cutoff", "chi_wave_zone", "chi_exterior",
    "Profile", "make_profile", "ProfileError",
    "RadiationField", "derive_F1",
    "RadialGrid", "FieldState", "Trajectory",
    "FitResult", "FunctionalReport", "fit_decay",
]
