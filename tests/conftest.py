"""Test settings: Hypothesis draws the same examples on every run and keeps no
database, so a run neither depends on nor replays what an earlier run found."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
