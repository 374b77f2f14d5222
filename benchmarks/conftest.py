"""Shared benchmark configuration.

Every benchmark here regenerates one table or figure of the paper (see
DESIGN.md section 5 for the index). The simulations are deterministic,
so a single benchmark round is meaningful; pytest-benchmark still
reports the wall-clock cost of regenerating each artifact.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): which paper artifact a benchmark rebuilds"
    )
