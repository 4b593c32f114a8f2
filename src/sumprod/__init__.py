"""Exact workbench for sum-product growth over prime fields.

Submodules load on first use (PEP 562): `import sumprod` runs none of
them, `sumprod.make_field` loads `core` (and the `errors` it imports), and
`sumprod.chain_small` loads `chains` with what it imports.  Each access is
resolved anew, so a name rebound in its defining submodule (a test's
monkeypatch, a tracer's wrapper) shows through the package at once.
"""

import importlib
import sys
import types

# defining submodule -> the public names it exports through the package
_EXPORTS = {
    "core": ("PLUS", "MINUS", "FSet", "PrimeField", "RepFn", "make_field", "sumset", "negate",
             "signed_combination", "pattern_combination", "product_set", "dilate", "scale",
             "ratio_set", "rep_fn"),
    "energy": ("ADDITIVE", "MULTIPLICATIVE", "EnergyReport", "additive_energy",
               "multiplicative_energy", "energy", "intersection_count"),
    "lemmas": ("CoverResult", "greedy_cover", "katz_shen_subset", "GkWitness", "gk_witness",
               "xi_search", "bucket_index", "BucketDecomposition", "chang_decompose",
               "chang_floor_holds", "select_j0", "PlunneckeAudit", "plunnecke_audit"),
    "chains": ("ChainStep", "ChainReport", "chain_small", "chain_large", "prop51_audit",
               "chain_unbalanced", "chain_balanced", "energy_bound_audit", "extract_half_subset"),
    "search": ("SearchRecord", "canonical_form", "objective", "exhaustive_extremal",
               "anneal_extremal", "RatioScanEntry", "RatioScanTable", "ratio_threshold_scan"),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "core", "chains", "errors", "lemmas", "search")

__all__ = [*_HOME, "errors"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        return getattr(sys.modules.get(home) or importlib.import_module(home), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(types.ModuleType):
    """Keeps `sumprod.energy` the function `energy.energy`.

    Loading a submodule binds it on its package; for `energy` that would
    hide the exported function of the same name once the module loads.
    """

    def __setattr__(self, name, value):
        if not (isinstance(value, types.ModuleType) and name in _HOME):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
