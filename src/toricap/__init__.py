"""Exact symplectic-capacity invariants of toric moment domains.

Everything is computed in exact rational arithmetic over three shape
classes (standard families, weakly convex polygons, rectangle unions):
diagonal and min-coordinate radii, inscribed-cube sizes, certified
Lagrangian capacities, boundary-slope cube-capacity bounds, and a
combinatorial obstruction search for cube embeddings.

``import toricap`` loads none of the layer modules.  The first access to
a public name (``toricap.capacity_report``, ``from toricap import
delta``, ``from toricap import *``) or to a layer module imports every
layer once and binds each public name as a plain module global, so later
accesses are ordinary attribute reads.  The ``toricap`` command imports
only the layers that its subcommand runs (see :mod:`toricap.cli`).
"""

__version__ = "0.1.0"

# Each public name, listed under the layer module that defines it.
_EXPORTS = {
    "capacities": (
        "CapacityReport",
        "XaCheck",
        "capacity_report",
        "omega_a",
        "report_to_dict",
        "sweep_to_csv",
        "verify_xa",
    ),
    "domains": (
        "Polygon2D",
        "StandardDomain",
        "ToricDomain",
        "domain_from_dict",
        "domain_to_dict",
        "is_weakly_convex",
        "parse_domain",
        "serialize_domain",
        "square_polygon",
    ),
    "ech": (
        "CombOrbit",
        "CombOrbitSet",
        "LeqResult",
        "SearchReport",
        "SearchStatus",
        "SearchWitness",
        "action",
        "cross_term",
        "enumerate_orbit_sets",
        "enumeration_truncated",
        "format_orbit_set",
        "leq_relation",
        "obstruction_search",
        "orbit_invariants",
        "parse_orbit_set",
        "verify_witness",
    ),
    "errors": ("DomainError", "InapplicableError", "ToricapError"),
    "geometry": (
        "cube_bound",
        "cube_inclusion",
        "delta",
        "domain_contains",
        "domain_on_boundary",
        "eta",
        "finite_d_bound",
        "is_monotone",
        "support",
    ),
    "lagrangian": (
        "CLCertificate",
        "CLRule",
        "a_min_brute",
        "a_min_closed",
        "cube_normalized_value",
        "lagrangian_capacity",
    ),
    "rationals": ("Interval", "format_rational", "parse_rational"),
    "unions": ("Rect", "Rectilinear2D"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _load_public_names() -> None:
    """Import every layer and bind its public names in this module."""
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        layer = import_module(f"{__name__}.{module}")
        namespace.update((name, getattr(layer, name)) for name in names)
    # Every public name and layer module is a global now.  CPython does
    # not specialise attribute reads on a module that has a ``__getattr__``,
    # so dropping it keeps reads such as ``toricap.delta`` on the fast path;
    # an unknown name then raises the default AttributeError.
    namespace.pop("__getattr__", None)


def __getattr__(name: str):
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_public_names()
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
