"""Simulation engine: clock, metrics, experiment runner, reporting."""
