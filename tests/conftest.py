"""Test-wide configuration.

Keeping a conftest at the tests root puts this directory on sys.path, so
test modules can import the shared `helpers` and `gap_oracle` modules.
"""

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
# The larger run CI makes of the differential tests (--hypothesis-profile=ci).
settings.register_profile("ci", deadline=None, max_examples=1000)
settings.load_profile("suite")
