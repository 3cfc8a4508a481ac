"""Hypothesis profiles. `ci` (``pytest --hypothesis-profile=ci``) prints
the reproduction blob of a failing example, so that a failure in a CI log
can be replayed locally with ``@reproduce_failure``. Recent Hypothesis
ships a `ci` profile of its own, loaded when the CI variable is set; it
is kept as the parent, so only print_blob is ours to set, and each test
keeps its own max_examples and deadline."""

from hypothesis import settings
from hypothesis.errors import InvalidArgument

try:
    _parent = settings.get_profile("ci")
except InvalidArgument:
    _parent = None
settings.register_profile("ci", _parent, print_blob=True)
