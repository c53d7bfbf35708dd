"""Simulation toolkit for a microcavity-enhanced AlGaAs source of
counterpropagating telecom photon pairs.

Submodules
----------
materials   Al(x)Ga(1-x)As refractive-index dispersion models
layers      the layer structure: layers, regions, the stack and its layer plan
stack       1D transfer-matrix engine: reflectivity, fields, cavity resonance
modes       guided TE/TM modes of the multilayer planar waveguide
roots       Brent's root finder, one bracket or many at once
phasematch  energy/momentum conservation for the counterpropagating geometry
spectra     emission spectra: sinc^2 profile, convolution, peak widths
efficiency  cavity enhancement factor and detection-chain count budget
hom         two-photon interference dip: model, simulation, fitting
config      device configuration: JSON defaults, overrides, checks, builder
cli         command-line interface, one command per figure or report
"""

__version__ = "0.1.0"
