from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database and have no time limit per example, so every run on any machine
# gives the same verdict.
settings.register_profile("quadpole", derandomize=True, deadline=None, database=None)
settings.load_profile("quadpole")
