"""salemlab: finite-stage fractal constructions and dimension estimators.

Each public name loads its module on first access (PEP 562), so a caller pays
only for the layers it uses: ``import salemlab.cli`` loads geometry alone.
"""

__version__ = "0.1.0"

SAMPLES_BOUND = 2**12  # the largest --samples of `report` and `sweep` (exit 2 above) and samples_per_band of a fit

_EXPORTS = {
    "bitseq": "BitMatrix BitSequence p3_member phi_transform q2_member",
    "constructions": "CantorScheme ConstructionError FpScheme GeneralizedCantorScheme IntervalScheme JarnikScheme"
    " Pi03Scheme SAlphaScheme SalemGapScheme StageReport WeihrauchScheme cantor_stage jarnik_stage radial_lift"
    " radial_reports shrink_bound_holds weihrauch_dimension_target",
    "dimension": "DecayFit DimensionReport FitError box_count_fit clamp_dimension countable_union_sup covering_sum"
    " fourier_decay_fit frostman_fit salem_report",
    "geometry": "BoxUnion GeometryError HausdorffDistance IntervalUnion diameter disjoint_from_compact"
    " hausdorff_metric intersects_open simplex_partition_1d subset_of_open",
    "measures": "MeasureError PiecewiseUniformMeasure SelfSimilarProductMeasure affine_pushforward ball_mass"
    " natural_measure",
    "numberfield": "GaussianInt gaussian_block_reports gaussian_jarnik_stage is_gaussian_prime mult_matrix"
    " mult_matrix_inv norm residue_system",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

