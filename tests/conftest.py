"""Shared test settings.

Property tests draw their examples deterministically (derandomize), with no
per-example deadline and a modest example count, so the suite gives the same
verdict on every run and on slow or loaded hosts.
"""

from hypothesis import settings

settings.register_profile("bdsde", deadline=None, derandomize=True, max_examples=20)
settings.load_profile("bdsde")
