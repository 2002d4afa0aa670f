"""Edge-to-edge regular polygon spirals and their limiting distances.

The chain of unit regular polygons with increasing side counts traces a
logarithmic spiral with growth rate 4/pi.  This package builds the exact
centre sequences and vertex chain, implements the asymptotic machinery
describing them, maps the centres onto the spiral r = exp(4*theta/pi) with
one fixed rigid motion per family, and measures the limiting distances 5/6 and
7/12 (all polygons, by parity) and 7/24 (odd polygons).
"""

from .asymptotics import (
    APPROXIMANTS,
    EULER_GAMMA,
    GROWTH_RATE,
    Approximant,
    Parity,
    alt_harmonic_expansion,
    approximant,
    asymptotic_form,
    detemple_bounds,
    em_sum_minus_integral,
    gap_limit,
    limit_distance,
    power_sum_closed,
    power_sum_prefix,
    spiral_gap,
)
from .geometry import (
    Family,
    Violation,
    build_chain,
    centers,
    compensated_cumsum,
    validate_chain,
)
from .metrics import (
    APPROXIMANT_SCALE,
    FRAMES,
    FitError,
    SpiralFrame,
    distance_table,
    fit_motion_to_approximant,
    fit_motion_to_spiral,
    inner_side_fraction,
    parity_means,
    richardson_extrapolate,
)
from .spiral import nearest_distances, offset_distance_profile

__all__ = [
    "APPROXIMANTS",
    "APPROXIMANT_SCALE",
    "Approximant",
    "EULER_GAMMA",
    "FRAMES",
    "Family",
    "FitError",
    "GROWTH_RATE",
    "Parity",
    "SpiralFrame",
    "Violation",
    "alt_harmonic_expansion",
    "approximant",
    "asymptotic_form",
    "build_chain",
    "centers",
    "compensated_cumsum",
    "detemple_bounds",
    "distance_table",
    "em_sum_minus_integral",
    "fit_motion_to_approximant",
    "fit_motion_to_spiral",
    "gap_limit",
    "inner_side_fraction",
    "limit_distance",
    "nearest_distances",
    "offset_distance_profile",
    "parity_means",
    "power_sum_closed",
    "power_sum_prefix",
    "richardson_extrapolate",
    "spiral_gap",
    "validate_chain",
]
