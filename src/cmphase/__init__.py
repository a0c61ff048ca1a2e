"""Distributed estimation of a location, a scale, and their SNR over a
Gaussian multiple-access channel using constant-modulus phase
transmissions.

Sensors observe a common location theta through additive noise of scale
sigma, transmit e^{j omega x} with a fixed power budget, and the fusion
center works from the coherent sum: its normalized value concentrates
on sqrt(P) e^{j omega theta} phi(sigma, omega), where phi is the
sensing-noise characteristic function. The package provides the channel
simulation, the phase/magnitude estimators and their joint
minimum-variance counterpart, asymptotic variance expressions with
verified closed forms, omega tuning, efficiency reports, and Monte
Carlo drivers behind a CLI. Each name is imported from its module (see
README, Layout), as in `from cmphase.tuning import optimal_omega`.
"""

__version__ = "0.1.0"
