"""Hypothesis profiles for the property tests.

``derandomize`` draws the same examples on every run; CI selects it with
``--hypothesis-profile=derandomize`` so a property failure reproduces.
"""

from hypothesis import settings

settings.register_profile("derandomize", derandomize=True)
