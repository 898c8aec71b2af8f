"""Interpolated-FIR reduced-rank adaptive receivers for DS-CDMA downlink.

The receiver filters the chip-rate vector with a short adaptive
interpolator, decimates by L, and detects with an M/L-tap filter; both
filters adapt jointly in trained (LMS/RLS) or blind constrained
minimum-variance (SG/RLS) modes.  Batch designs, convergence analysis
tools and a Monte-Carlo harness round out the package.
"""

__version__ = "0.1.0"
