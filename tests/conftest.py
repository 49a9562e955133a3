"""Settings shared by every test module."""

from hypothesis import settings

# Property tests replay the same examples on every run, so a failure
# reproduces and a pass does not depend on the draw.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
