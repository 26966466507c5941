"""Word problem and area certificates for finitely presented metabelian groups."""

from .bounds import Bound
from .collection import CostLedger, ordered_form, relator_module
from .elements import Ambient, ModuleElement, parse_element, render_element
from .errors import (AmbientMismatch, BudgetExceeded, ExponentSumError,
                     ParseError, TamenessViolation)
from .geometry import GeometryReport, geometry_constants, tameness_check
from .groebner import (DivisionCertificate, GroebnerBasis, buchberger_strong,
                       divide_with_certificate, growth_function, laurent_embed,
                       normal_form, verify_certificate)
from .presentation import (GroupWord, Presentation, TamenessDatum,
                           exponent_sums, parse_presentation, parse_word)
from .presets import PresetSpec, build, norm_growth, witness_family
from .wordproblem import (AreaCertificate, brute_force_min_certificate,
                          dehn_profile, is_identity, module_dehn_upper)

__all__ = [name for name in dir() if not name.startswith("_")]
