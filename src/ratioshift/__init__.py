"""Exact Taylor shifts and shape certification for coefficient sequences.

Each public name is imported from its module on first use, so importing the
package alone loads none of them: the console script (``__main__.run``)
loads every module inside its own interrupt handler.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "numeric_core": ("DomainError", "ParseError", "Rational", "binomial", "parse_rational",
                     "ratio_leq", "render_rational"),
    "poly_ops": ("Polynomial", "ShiftAlgorithm", "boundary_coeffs", "mul_by_x_plus_one",
                 "normalize", "taylor_shift"),
    "shape_props": ("PropertyVerdict", "Status", "Witness", "audit_implications",
                    "check_log_concave", "check_no_internal_zeros",
                    "check_nonneg_nondecreasing", "check_ratio_monotone", "check_spiral",
                    "check_unimodal"),
    "theorem_engine": ("HypothesisError", "Lemma3Report", "edge_inequality_holds",
                       "induction_decompose", "induction_replay_holds", "lemma1_holds",
                       "lemma2_preserved", "lemma3_gap", "s1_rearranged", "s1_sum"),
    "boros_moll": ("bm_coefficient", "bm_polynomial", "bm_ratio_identity", "bm_shifted_seq"),
    "quartic_integral": ("IntegralCheck", "QuadratureError", "closed_form_rhs",
                         "quadrature_lhs", "verify_identity"),
    "fuzz_harness": ("CampaignReport", "CampaignSpec", "gen_nondecreasing_seq",
                     "run_campaign"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
