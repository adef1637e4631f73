import os

# Hypothesis caches the constants it reads from the project's modules in its
# storage directory even when a test sets database=None. A directory under the
# null device cannot be created, so the suite runs without writing that cache.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(os.devnull, "hypothesis"))
