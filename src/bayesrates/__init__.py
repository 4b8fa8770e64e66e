"""Desk-scale laboratory for sequential Bayesian prediction and contraction rates.

Modules:
    divergences  grids, grid densities, divergence functionals
    models       model families, priors, the misspecified setup, likelihoods
    inference    sequential posteriors, predictives, identity checks
    geometry     rate schedules, thickness, separation, coverings, sieves
    experiments  regimes, replication engine, certification, verifications
    cli          configuration parsing and the command-line driver
"""

__version__ = "0.1.0"
