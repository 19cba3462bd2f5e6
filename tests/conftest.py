"""Hypothesis profiles of the suite.

``mutants`` skips the shrink phase: ``tools/mutants.py`` needs only to know
that a named test fails on a broken copy, not its smallest failing example.
The suite itself runs the default profile.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
