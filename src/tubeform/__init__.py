"""Tube-certified distributed MPC for leader-follower formations on integrator chains."""

__version__ = "0.1.0"
