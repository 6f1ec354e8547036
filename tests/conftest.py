"""Suite-wide hypothesis settings.

Examples are derived from each test's source rather than drawn at random,
so every run checks the same cases; no example database is written and no
per-example deadline applies (a slow or shared machine must not turn into
a flaky failure).
"""

from hypothesis import settings

settings.register_profile("semiblind", derandomize=True, deadline=None, database=None)
settings.load_profile("semiblind")
