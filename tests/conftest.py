"""Hypothesis runs the same examples on every run, with no example database.

A green tier-1 run is then deterministic: property tests do not draw
fresh examples per run, and nothing is stored between runs.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
