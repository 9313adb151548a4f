"""Hypothesis settings shared by every property in the suite."""

from hypothesis import settings

# an example's run time depends on the machine and on warm-up, not on the code's correctness
settings.register_profile("fermiosc", deadline=None)
settings.load_profile("fermiosc")
