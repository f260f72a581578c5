"""Index sensing with a dual-film plasmonic splitter: model and analysis.

The package models a symmetric pair of attenuated-total-reflection
metal films (prism | film | sample gap | film | prism) as a lossy
two-port beamsplitter whose split ratio and phase depend sharply on the
refractive index in the gap, and quantifies how precisely that index
can be estimated from photon statistics behind it.

Layering, bottom up:

* materials: tabulated/constant refractive indices (gold built in),
* tmm: transfer-matrix response of layer stacks and the calibration
  search for a balanced splitter,
* quantum_stats: photon-pair and coherent-benchmark outcome
  probabilities over arrays of splitter operating points,
* estimation: Fisher information, the pair-vs-coherent enhancement,
  an information decomposition over the splitter parameters, and the
  instrumental uncertainty budget,
* continuum: finite-bandwidth wavepacket corrections and the
  single-frequency drift diagnostic,
* cli: a command-line front end over all of the above.
"""

from .continuum import (HomMoments, QuadratureGrid, SpectralProfile,
                        coherent_spectral_amplitudes, continuum_classical_means,
                        continuum_fisher, continuum_hom_moments, default_grid,
                        hom_click_vector_from_moments, quadrature_grid,
                        relative_difference, spectral_profile,
                        stack_spectral_response)
from .errors import (CalibrationError, ConfigError, HomsensorError,
                     MaterialDataError, StackDefinitionError,
                     UndefinedRatioError, UnphysicalPointError,
                     WavelengthRangeError)
from .estimation import (BudgetReport, BudgetRow, BudgetSource,
                         DecompositionResult, FisherReport, PhaseScanResult,
                         enhancement_ratio, fisher_classical,
                         fisher_decomposition, fisher_from_distribution,
                         fisher_hom, fisher_report, load_budget_sources,
                         phi_ab_scan, precision_bound, uncertainty_budget)
from .materials import (Material, MaterialTable, constant_material, gold_jc,
                        load_material_table, parse_material_csv,
                        refractive_index, save_material_table)
from .quantum_stats import (BsPoint, CoherentInput, bs_point,
                            coherent_output_means, hom_click_distribution,
                            poisson_pair_grid)
from .tmm import (CalibrationResult, Layer, LayerStack, StackResponse,
                  calibrate_stack, fresnel, load_stack, make_sensor_stack,
                  response_derivatives, reversed_stack, save_stack,
                  stack_response)

__version__ = "0.1.0"

__all__ = [
    "BsPoint", "BudgetReport", "BudgetRow", "BudgetSource",
    "CalibrationError", "CalibrationResult", "CoherentInput", "ConfigError",
    "DecompositionResult", "FisherReport", "HomMoments", "HomsensorError",
    "Layer", "LayerStack", "Material", "MaterialDataError", "MaterialTable",
    "PhaseScanResult", "QuadratureGrid", "SpectralProfile",
    "StackDefinitionError", "StackResponse", "UndefinedRatioError",
    "UnphysicalPointError", "WavelengthRangeError",
    "bs_point", "calibrate_stack", "coherent_output_means",
    "coherent_spectral_amplitudes", "constant_material",
    "continuum_classical_means", "continuum_fisher", "continuum_hom_moments",
    "default_grid", "enhancement_ratio", "fisher_classical",
    "fisher_decomposition", "fisher_from_distribution", "fisher_hom",
    "fisher_report", "fresnel", "gold_jc", "hom_click_distribution",
    "hom_click_vector_from_moments", "load_budget_sources",
    "load_material_table", "load_stack", "make_sensor_stack",
    "parse_material_csv", "phi_ab_scan", "poisson_pair_grid",
    "precision_bound", "quadrature_grid", "refractive_index",
    "relative_difference", "response_derivatives", "reversed_stack",
    "save_material_table", "save_stack", "spectral_profile",
    "stack_response", "stack_spectral_response", "uncertainty_budget",
]
