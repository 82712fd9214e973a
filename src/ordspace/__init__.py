"""Exact Cantor-Bendixson and Szlenk index computations on compact ordinal spaces.

The public names are loaded on first access (PEP 562): importing the package
imports none of its layers, and `from ordspace import parse` imports only
the ordinal layer, so a command line run pays only for what it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "ordinal": (
        "OMEGA", "ONE", "ZERO", "Ordinal", "ParseError", "add", "compare",
        "divide_by_omega_pow", "format_ordinal", "from_int", "left_subtract",
        "leading_exponent", "mul_nat", "omega_mul", "omega_pow", "parse",
        "predecessor", "successor", "tower_index",
    ),
    "topology": (
        "ClosedSet", "Singleton", "Stratum", "cb_index", "contains", "derivative",
        "finite_points", "format_closed_set", "interval", "is_empty",
        "iterated_derivative", "roundup",
    ),
    "grasberg": (
        "GrasbergParams", "KingReport", "QueenReport", "StepFunction", "check_king",
        "check_queen", "constant", "grasberg_norm", "indicator", "params", "phi",
        "step_add", "step_convex", "step_scale", "sup_on", "value_at",
    ),
    "fuzz": ("random_step_function",),
    "trees": (
        "EMPTY_TREE", "FactReport", "FiniteTree", "check_fact_i", "check_fact_ii",
        "rank", "tree_from_json", "tree_from_text", "tree_to_json", "tree_to_text",
    ),
    "szlenk": ("SzlenkResult", "dirac_derivative", "index_of_CK", "index_of_interval"),
    "extract": (
        "CertificateError", "ExtractionCertificate", "FamilyContractError",
        "WeaklyNullFamily", "extract_small_combination", "family_from_table",
        "marching_indicators", "zero_family",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
