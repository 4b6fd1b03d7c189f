import pytest

from qsl12 import shooting


@pytest.fixture(scope="session")
def cfg002() -> shooting.ShotConfig:
    return shooting.ShotConfig(eps=0.002)


@pytest.fixture(scope="session")
def opt002(cfg002) -> shooting.Optimum:
    """Refined minimum-time transfer for eps = 0.002, shared across tests."""
    return shooting.refine(1.85, 0.5, cfg002)


@pytest.fixture(scope="session")
def path002(cfg002, opt002):
    """The extremal and pulses of ``opt002``, sampled as the exports are."""
    return shooting.extremal(opt002, cfg002)
