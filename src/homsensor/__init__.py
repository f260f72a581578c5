"""Index sensing with a dual-film plasmonic splitter: model and analysis.

The package models a symmetric pair of attenuated-total-reflection
metal films (prism | film | sample gap | film | prism) as a lossy
two-port beamsplitter whose split ratio and phase depend sharply on the
refractive index in the gap, and quantifies how precisely that index
can be estimated from photon statistics behind it.

Layering, bottom up:

* records: the frozen-record base class of every record type below,
* materials: tabulated/constant refractive indices (gold built in),
* tmm: transfer-matrix response of layer stacks and the calibration
  search for a balanced splitter,
* quantum_stats: the splitter moments (I_T, I_R, K) of an operating
  point, the photon-pair and coherent-benchmark outcome models written
  once in those moments, and the Fisher kernel that sums them,
* continuum: the one chain from a stack to the moments and the
  information pair, on a quadrature grid of wavelength nodes: a
  finite-bandwidth wavepacket (the same models fed spectrally averaged
  moments), whose drift from the single-frequency figures the
  `continuum` subcommand reports, or the one-node single frequency,
* estimation: the per-point Fisher information of each probe (on the
  one-node grid), the pair-vs-coherent enhancement, an information
  decomposition over the splitter parameters, and the instrumental
  uncertainty budget,
* cli: a command-line front end over all of the above.

The public names below are listed once, by owning submodule, in
_EXPORTS, and each loads on first access (PEP 562): `import homsensor`
imports no submodule, and `homsensor.load_stack` imports only the
layers that tmm needs.  A submodule name (`homsensor.tmm`) resolves the
same way.
"""

from importlib import import_module as _import_module

# submodule -> the public names it exports
_EXPORTS = {
    "continuum": ("QuadratureGrid", "continuum_classical_means",
                  "continuum_fisher", "continuum_hom_moments",
                  "quadrature_grid"),
    "errors": ("CalibrationError", "ConfigError", "HomsensorError",
               "MaterialDataError", "StackDefinitionError",
               "UndefinedRatioError", "UnphysicalPointError",
               "WavelengthRangeError"),
    "estimation": ("BudgetSource", "fisher_classical", "fisher_decomposition",
                   "fisher_from_distribution", "fisher_hom", "fisher_report",
                   "load_budget_sources", "phi_ab_scan", "precision_bound",
                   "uncertainty_budget"),
    "materials": ("Material", "MaterialTable", "constant_material", "gold_jc"),
    "quantum_stats": ("CoherentInput", "bs_point", "coherent_output_means",
                      "hom_click_distribution", "poisson_pair_grid",
                      "splitter_moments"),
    "tmm": ("Layer", "LayerStack", "StackResponse", "calibrate_stack",
            "fresnel", "load_stack", "make_sensor_stack",
            "response_derivatives", "save_stack", "stack_response"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name):
    """Import the submodule that owns `name` (or is `name`) on first use."""
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = _import_module("." + module, __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_EXPORTS))
